"""Where derivation length starts to raise RecursionError.

    python3 perfbench/depth_scan.py

Bisects, on the default recursion limit, the smallest list length at which
``len/2`` fails under ``sld`` and under ``sres`` (solve, then print), and
the smallest lazy-k at which ``from(0, X)`` under ``sres`` fails.  Prints one
line per case with the public hornlog call that raised, or "none up to
4000".  These are the onsets recorded in baseline.json; derive-deep keeps
its sizes below them and probes n = 1000 separately.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402


def first_failure(fails, lo: int, hi: int):
    """Smallest n in (lo, hi] with fails(n), given not fails(lo)."""
    if not fails(hi):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fails(mid):
            hi = mid
        else:
            lo = mid
    return hi


def main() -> int:
    _, mods, _ = run.set_up("derive-deep", 0)
    parse = mods.syntax.parse_program
    len_p, from_p = parse(wl.LEN_SRC), parse(wl.FROM_SRC)
    raised = {}

    def fails(label, program, engine, goal, lazy_k):
        try:
            return not wl._derive(mods, program, engine, goal, lazy_k,
                                  lambda a, t: "").ok
        except RecursionError as exc:
            raised[label] = run.raised_in(exc)
            return True

    def len_goal(n):
        return f"len([{', '.join('a' * n)}], N)"

    cases = {
        "sld len": lambda n: fails("sld len", len_p, "sld", len_goal(n),
                                   10 ** 7),
        "sres len": lambda n: fails("sres len", len_p, "sres", len_goal(n),
                                    10 ** 7),
        "sres from lazy-k": lambda k: fails("sres from lazy-k", from_p,
                                            "sres", "from(0, X)", k),
    }
    print(f"recursion limit {sys.getrecursionlimit()}")
    for label, probe in cases.items():
        hit = first_failure(probe, 10, 4000)
        if hit is None:
            print(f"{label}: no RecursionError up to 4000")
            continue
        probe(hit)
        print(f"{label}: RecursionError from {hit}, "
              f"raised in {raised[label]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

1. A tiny run of each workload, untraced and traced, must print every metric
   BENCHMARK.json names, with ``correct`` true.
2. Each reference check must reject a deliberately wrong answer, both fed
   directly and produced by a hornlog whose printer has been sabotaged.

Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from answers import check_answer, ref_answer  # noqa: E402

failures = []


def expect(label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}")
    if not ok:
        failures.append(label)


def tiny_runs() -> None:
    """Runs of one pass each, in-process, with MIN_OPS lowered."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    min_ops, run.MIN_OPS = run.MIN_OPS, 4
    try:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for workload in (w["name"] for w in spec["workloads"]):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = run.main(["--workload", workload, "--seed", "7",
                                     "--seconds", "0", "--trace", str(trace)])
                try:
                    result = json.loads(out.getvalue().strip().splitlines()[-1])
                except (IndexError, json.JSONDecodeError):
                    result = {}
                got = {k: v.get("unit") for k, v in
                       result.get("metrics", {}).items()}
                expect(f"tiny {workload} --trace {trace}: exit 0, correct, "
                       f"every {key} metric with its unit",
                       code == 0 and result.get("correct") is True
                       and got == want)
    finally:
        run.MIN_OPS = min_ops


def wrong_answers_rejected() -> None:
    _, mods, _ = run.set_up("derive-deep", 1)
    ref = ref_answer("X = obj(elist, @A), "
                     "T = obj(nelist, [head:Y, tail:obj(elist, @A)])")
    expect("typed answer: right one accepted", not check_answer(
        ref, "X = obj(elist, V1), T = obj(nelist, [head:Y, tail:obj(elist, V1)])"))
    expect("typed answer: unshared variable rejected", bool(check_answer(
        ref, "X = obj(elist, V1), T = obj(nelist, [head:Y, tail:obj(elist, V2)])")))
    expect("typed answer: wrong head type rejected", bool(check_answer(
        ref_answer("T = obj(nelist, [head:int, tail:obj(elist, [])])"),
        "T = obj(nelist, [head:bool, tail:obj(elist, [])])")))
    expect("partial answer: a true prefix accepted", not check_answer(
        ref_answer("X = [0, s(0), s(s(0))|@R]"), "X = [0|[s(0)|V7?]]  % partial",
        prefix=True))
    expect("partial answer: a wrong prefix rejected", bool(check_answer(
        ref_answer("X = [0, s(0), s(s(0))|@R]"), "X = [0|[0|V7?]]  % partial",
        prefix=True)))
    expect("total answer: a hole rejected", bool(check_answer(
        ref_answer("X = cons(0, X)"), "X = cons(0, V3?)")))

    check = wl._buildlist_check(24)
    good = ("R = obj(listfact, []), R2 = obj(elist, []), T = obj(elist, []) "
            "\\/ obj(nelist, [head:int|[tail:obj(elist, [])|[]]]) \\/ V8?"
            "  % partial\n")
    expect("buildList: pinned layer count accepted", not check(good, ""))
    expect("buildList: wrong layer count rejected", bool(wl._buildlist_check(
        36)(good, "")))

    expect("derive-deep: wrong numeral rejected", bool(wl._expect_text(
        "total", "N = s(s(z))")(_Answer("total"), "N = s(z)")))
    expect("derive-deep: short from-prefix rejected", bool(
        wl._expect_from_prefix(3)(_Answer("partial"),
                                  "X = [0|[s(0)|V5?]]  % partial")))

    # Sabotage the printer: every derive-deep op must then fail its check.
    workload = wl.build("derive-deep", mods, 1, ROOT)
    real = mods.syntax.print_answer
    mods.syntax.print_answer = lambda a, style="flat", unfold=3: \
        real(a, style, unfold).replace("s(", "s(s(", 1)
    try:
        kinds = {}
        for op in workload.ops:
            kind = op.spec["kind"]
            if kind not in kinds and kind != "zeros":
                kinds[kind] = op.run().ok
    finally:
        mods.syntax.print_answer = real
    expect("derive-deep: sabotaged printer fails len and from ops",
           kinds and not any(kinds.values()))

    # An exit code other than the documented one fails a CLI op.
    _, mods, cli = run.set_up("cli-short", 1)
    op = next(op for op in cli.ops if op.spec["argv"][0] == "check")
    expect("cli-short: right exit code accepted", op.run().ok)
    real_main = mods.cli.main
    mods.cli.main = lambda argv=None: 0
    try:
        expect("cli-short: wrong exit code rejected", not op.run().ok)
    finally:
        mods.cli.main = real_main

    # A wrong stage set fails a fixpoint op.
    _, mods, oracle = run.set_up("oracle-lemmas", 1)
    op = next(op for op in oracle.ops if op.spec["kind"] == "tp"
              and op.spec["program"] == "subclass")
    expect("oracle-lemmas: stage sets accepted", op.run().ok)
    real_down, real_up = mods.fixpoint.tp_down, mods.fixpoint.tp_up
    mods.fixpoint.tp_down = mods.fixpoint.tp_up = \
        lambda p, n, frag: real_up(p, n - 1, frag)
    try:
        expect("oracle-lemmas: wrong stage sets rejected", not op.run().ok)
    finally:
        mods.fixpoint.tp_down, mods.fixpoint.tp_up = real_down, real_up


class _Answer:
    def __init__(self, kind):
        self.kind = kind


if __name__ == "__main__":
    wrong_answers_rejected()
    tiny_runs()
    print(f"{len(failures)} failed" if failures else "all passed")
    sys.exit(1 if failures else 0)

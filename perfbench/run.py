"""hornlog benchmark: one closed-loop workload per process.

    python3 perfbench/run.py --workload derive-deep --seed 1 --seconds 35 \\
        --trace 0

Run from the root of a hornlog checkout; the program under test is imported
from ``src/``.  One client runs one op at a time, no threads.  Each run:

1. sets up (imports hornlog afresh, generates the seeded ops, parses their
   programs) ``SETUP_REPEATS`` times, then once more every ``SETUP_EVERY_S``
   between the ops of step 2, and reports the median set-up as ``setup_s``;
2. runs whole passes over the op pool, each in a seeded order, for about
   ``--seconds`` and at least ``MIN_OPS`` ops, timing each op from its first
   call into hornlog to its checked, rendered verdict; the latency
   percentiles take each op at its median over the run's passes;
3. with ``--trace 1``, runs the same op sequence twice more, untraced and
   then traced (spans from ``tracer.py``), asserts that both produce the same
   outputs and reports the per-layer metrics;
4. prints a report and, as its last line, one JSON object with ``correct``,
   ``attempted``, ``failed`` and ``metrics``.

Every end-to-end timing is in reference seconds: wall seconds scaled by the
host's speed at the time, which a fixed kernel measures between ops (see
``hostspeed.py``).  The full result (machine stamp, op hash, every metric,
wall-clock op and set-up times, kernel timings) is also written to
``.perfbench/`` in the checkout, and with ``--trace 1`` the spans too.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from hostspeed import KERNEL_REF_S, HostSpeed  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SETUP_REPEATS = 5
SETUP_EVERY_S = 1.0
#: Ops a closed loop runs at least, so that p90 has ten samples beyond it.
MIN_OPS = 100
#: Stop starting ops after this long, whatever --seconds says, so that a run
#: ends well inside three minutes.
HARD_STOP_S = 120.0
DEFAULT_RECURSION_LIMIT = 1000
MODULES = ("terms", "syntax", "engine", "transform", "fixpoint", "minioo",
           "compiler", "cli")
OUT_DIR = ROOT / ".perfbench"


class SetupError(Exception):
    pass


# ---------------------------------------------------------------------------
# Set-up


def import_hornlog() -> types.SimpleNamespace:
    """Import hornlog from the checkout's ``src/``, dropping any copy already
    imported, so every set-up pays the import."""
    src = ROOT / "src"
    if not (src / "hornlog" / "__init__.py").is_file():
        raise SetupError(f"no hornlog sources under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules
                 if m == "hornlog" or m.startswith("hornlog.")]:
        del sys.modules[name]
    pkg = importlib.import_module("hornlog")
    if Path(pkg.__file__).resolve().parent != (src / "hornlog").resolve():
        raise SetupError(f"hornlog imported from {pkg.__file__}, not {src}")
    mods = {name: importlib.import_module(f"hornlog.{name}")
            for name in MODULES}
    return types.SimpleNamespace(hornlog=pkg, **mods)


def set_up(name: str, seed: int):
    gc.collect()  # the last set-up's garbage is not collected in this one
    start = time.perf_counter()
    mods = import_hornlog()
    workload = workloads.build(name, mods, seed, ROOT)
    return time.perf_counter() - start, mods, workload


def hornlog_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name == "hornlog" or name.startswith("hornlog.")}


class SetupSampler:
    """Times further set-ups while the closed loop runs.

    Set-ups spread over the whole run, rather than bunched before it, see the
    host at as many speeds as the ops do; each is scaled to reference speed
    by ``host``, and ``setup_s`` is their median."""

    def __init__(self, name: str, seed: int, host: HostSpeed):
        self.name, self.seed, self.host = name, seed, host
        self.times: list = []  # reference seconds
        self.wall: list = []  # wall seconds
        self.last = -math.inf

    def sample(self):
        """One timed set-up; returns its modules and workload.  The caller
        restores ``sys.modules`` if it keeps running an earlier set-up's."""
        self.host.check(force=True)
        start = time.perf_counter()
        seconds, mods, workload = set_up(self.name, self.seed)
        self.wall.append(seconds)
        self.times.append(seconds * self.host.scale(start, start + seconds))
        self.last = time.perf_counter()
        return mods, workload

    def maybe_sample(self) -> None:
        """Sample again if SETUP_EVERY_S has passed, leaving the running
        set-up's modules in ``sys.modules`` (hornlog imports one lazily)."""
        if time.perf_counter() - self.last < SETUP_EVERY_S:
            return
        running = hornlog_modules()
        try:
            self.sample()
        finally:
            for name in hornlog_modules():
                del sys.modules[name]
            sys.modules.update(running)


# ---------------------------------------------------------------------------
# The closed loop


def passes(n_ops: int, seed: int):
    """Passes over the pool, each in a fresh seeded order."""
    rng = random.Random(f"schedule-{seed}")
    while True:
        order = list(range(n_ops))
        rng.shuffle(order)
        yield order


def raised_in(exc: BaseException) -> str:
    """The outermost hornlog function on the exception's traceback."""
    frames = traceback.extract_tb(exc.__traceback__)
    return next((f.name for f in frames
                 if f"{os.sep}hornlog{os.sep}" in f.filename), "?")


def run_op(op) -> tuple:
    """(start, latency_s, outcome); an exception fails the op."""
    start = time.perf_counter()
    try:
        outcome = op.run()
    except Exception as exc:  # the op's failure is a measurement
        outcome = workloads.Outcome(
            False, type(exc).__name__, 0,
            f"{type(exc).__name__} in {raised_in(exc)}: {exc}"[:300])
    return start, time.perf_counter() - start, outcome


def closed_loop(workload, seed: int, seconds: float, host: HostSpeed,
                tracer=None, sequence=None, keep_outputs: bool = False,
                sampler: SetupSampler = None) -> dict:
    """Run whole passes over the pool, one op at a time, or replay exactly
    ``sequence``.  Passes stop once ``MIN_OPS`` ops have run and another
    pass would end more than half a pass beyond ``seconds``.

    Whole passes make every run execute the pool's own mix of op kinds and
    sizes, so a run's percentiles do not depend on where a pass was cut, and
    the run still lasts ``seconds`` give or take half a pass.  Between ops,
    outside their time, garbage is collected, ``host`` times its kernel now
    and then, and ``sampler`` times a set-up.  The records hold each op's
    latency in reference seconds (see hostspeed.py); ``wall_op_s`` sums the
    wall seconds."""
    timed = []
    plan = [sequence] if sequence is not None else \
        passes(len(workload.ops), seed)
    # Outputs are kept only for comparing replays, so that memory does not
    # grow with the number of ops a run completes.
    start = time.perf_counter()
    for order in plan:
        pass_start = time.perf_counter()
        for index in order:
            if time.perf_counter() - start >= HARD_STOP_S:
                break
            if sampler is not None:
                sampler.maybe_sample()
            # The last ops' garbage is collected here, outside every op's
            # time, rather than by whichever op next fills the collector's
            # generations.  Repeats of one derive-deep op spread by 0.15 of
            # their median so, and by 0.25 without.
            gc.collect()
            host.check()
            if tracer is not None:
                tracer.op_id = len(timed)
            op_start, latency, outcome = run_op(workload.ops[index])
            if not keep_outputs:
                outcome.output = None
            timed.append((index, op_start, latency, outcome))
        now = time.perf_counter()
        elapsed, last_pass = now - start, now - pass_start
        if (len(timed) >= MIN_OPS and elapsed + last_pass / 2 >= seconds) \
                or elapsed >= HARD_STOP_S:
            break
    wall_s = time.perf_counter() - start
    host.check(force=True)  # so that the last ops have a check after them
    records = [(index, lat * host.scale(t, t + lat), out)
               for index, t, lat, out in timed]
    return {"records": records, "wall_s": wall_s,
            "op_s": sum(lat for _, lat, _ in records),
            "wall_op_s": sum(lat for _, _, lat, _ in timed)}


# ---------------------------------------------------------------------------
# Metrics


def percentile(values: list, q: float) -> float:
    """The Bernstein-polynomial estimate of the q-quantile (0 < q < 1): a
    mean of the order statistics, the i-th of n (from 0) weighted by the
    binomial probability C(n-1, i) q^i (1-q)^(n-1-i).

    It moves smoothly as neighbouring values trade places, where the nearest
    rank jumps from one op to the next.  Ranks weighted below a millionth of
    the heaviest are left out, so that an infinite value (a failed op)
    decides the estimate only near q."""
    ordered = sorted(values)
    n = len(ordered)
    logs = [math.lgamma(n) - math.lgamma(i + 1) - math.lgamma(n - i)
            + i * math.log(q) + (n - 1 - i) * math.log1p(-q)
            for i in range(n)]
    top = max(logs)
    weighted = [(math.exp(w - top), v) for w, v in zip(logs, ordered)
                if w - top > math.log(1e-6)]
    return (sum(w * v for w, v in weighted)
            / sum(w for w, _ in weighted))


def op_latencies(records: list) -> list:
    """One latency per op of the pool: the median over its executions in
    the run, a failed execution counting as infinitely slow.

    The pool is the workload's mix, so percentiles are taken over its ops;
    an op's median over the run's passes keeps a stall of the host during
    one execution out of them."""
    runs: dict = {}
    for index, lat, out in records:
        runs.setdefault(index, []).append(lat if out.ok else math.inf)
    return [statistics.median(lats) for lats in runs.values()]


def end_to_end(loop: dict, setup_s: float) -> dict:
    records = loop["records"]
    # A failed op misses every latency limit.
    latencies = op_latencies(records)
    done = sum(1 for _, _, out in records if out.ok)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, "s"),
        "verdict_s_p50": (percentile(latencies, 0.5), "s"),
        "verdict_s_p90": (percentile(latencies, 0.9), "s"),
        "ops_per_s": (done / loop["op_s"], "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }


def derivation_metrics(workload, loop: dict) -> tuple:
    """steps_per_s, step_cost_growth.<engine> and the per-band table of
    median microseconds per step (derive-deep only)."""
    records = [(workload.ops[i], lat, out) for i, lat, out in loop["records"]
               if out.ok]
    steps = sum(out.steps for _, _, out in records)
    metrics = {"steps_per_s": (steps / loop["op_s"], "1/s")}
    table = {}
    for engine, bands in workload.bands.items():
        per_band = [[] for _ in bands]
        for op, lat, out in records:
            if op.band and op.band[0] == engine and out.steps:
                per_band[op.band[1]].append(lat / out.steps * 1e6)
        medians = [statistics.median(b) if b else None for b in per_band]
        table[engine] = [{"n": list(band), "us_per_step": m, "samples": len(b)}
                         for band, m, b in zip(bands, medians, per_band)]
        if medians[0] and medians[-1]:
            metrics[f"step_cost_growth.{engine}"] = (
                medians[-1] / medians[0], "ratio")
    return metrics, table


def per_layer(tracer: Tracer, traced: dict, untraced: dict) -> dict:
    c, calls, self_s = tracer.counts, tracer.calls, tracer.self_time

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ("syntax.term_text", "terms.resolve", "engine.rewrite_normalize",
                 "terms.unify", "terms.match", "terms.rename_apart",
                 "engine.subst_step", "compiler.compile_class_table",
                 "transform.transform_program", "terms.canon_key",
                 "fixpoint.tp_step", "fixpoint.down_member_with_proof"):
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.self_s"] = (self_s[name], "s")
    for name in ("terms.bump_counter_past", "minioo.parse",
                 "transform.strip_answer", "cli.main", "syntax.parse",
                 "syntax.print_answer", "fixpoint.build_fragment",
                 "engine.solve"):
        m[f"{name}.self_s"] = (self_s[name], "s")
    m["terms.unify.ok_ratio"] = (
        ratio(c["terms.unify.ok"], calls["terms.unify"]), "ratio")
    m["terms.match.ok_ratio"] = (
        ratio(c["terms.match.ok"], calls["terms.match"]), "ratio")
    m["engine.rewrite_steps"] = (c["engine.rewrite_steps"], "count")
    m["engine.steps"] = (c["engine.steps"], "count")
    m["engine.clause_yield"] = (ratio(c["engine.clause_ok"],
                                      c["engine.renamed"]), "ratio")
    m["compiler.clauses"] = (c["compiler.clauses"], "count")
    m["fixpoint.fragment_atoms"] = (c["fixpoint.fragment_atoms"], "count")
    m["cli.answers_printed_ratio"] = (ratio(
        c["cli.answers_printed"], c["cli.verdict_answers"]), "ratio")
    m["trace.overhead_ratio"] = (traced["op_s"] / untraced["op_s"], "ratio")
    return m


# ---------------------------------------------------------------------------
# Stamps and output


def source_sha() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hornlog").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; "none"
    outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "none"


def ops_sha(workload) -> str:
    blob = json.dumps([op.spec for op in workload.ops], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(metrics: dict, note: str = "") -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:38s} {fmt(value):>14s} {unit}"
              f"{note if name.startswith('verdict_s_') else ''}")


def failures(loop: dict, workload, limit: int = 5) -> list:
    seen, out = set(), []
    for index, _, outcome in loop["records"]:
        if not outcome.ok and index not in seen:
            seen.add(index)
            out.append(f"{json.dumps(workload.ops[index].spec)[:160]}: "
                       f"{outcome.why}")
    return out[:limit]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    limit = sys.getrecursionlimit()
    if limit != DEFAULT_RECURSION_LIMIT:
        print(f"error: recursion limit is {limit}, the benchmark measures "
              f"the default {DEFAULT_RECURSION_LIMIT}", file=sys.stderr)
        return 2
    host = HostSpeed()
    sampler = SetupSampler(args.workload, args.seed, host)
    try:
        for _ in range(SETUP_REPEATS):
            mods, workload = sampler.sample()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stamp = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git": git_sha(), "src_sha256": source_sha(),
        "recursion_limit": limit, "pool_ops": len(workload.ops),
        "ops_sha256": ops_sha(workload), "seconds": args.seconds,
    }
    print("perfbench " + " ".join(f"{k}={v}" for k, v in stamp.items()))

    loop = closed_loop(workload, args.seed, args.seconds, host,
                       sampler=sampler)
    records = loop["records"]
    attempted = len(records)
    failed = sum(1 for _, _, out in records if not out.ok)
    e2e = end_to_end(loop, statistics.median(sampler.times))
    extra = {"failed_ratio": (failed / attempted, "ratio")}
    bands = None
    if workload.bands:
        derived, bands = derivation_metrics(workload, loop)
        extra.update(derived)
    print(f"closed loop: {attempted} ops in {loop['wall_s']:.2f} s, "
          f"{failed} failed; op time {loop['wall_op_s']:.2f} s wall, "
          f"{loop['op_s']:.2f} s at reference speed (kernel median "
          f"{host.median_kernel_s() * 1e3:.3f} ms, reference "
          f"{KERNEL_REF_S * 1e3:.3f} ms)")
    print(f"set-up: median of {len(sampler.times)}, "
          f"{statistics.median(sampler.wall):.4f} s wall")
    for line in failures(loop, workload):
        print(f"  FAILED {line}")
    print("end-to-end:")
    pool = len({index for index, _, _ in records})
    report(e2e, f"  ({pool} ops at their median of {attempted} executions)")
    report(extra)
    if bands:
        print("median us/step by derivation-length band:")
        for engine, rows in bands.items():
            cells = "  ".join(
                f"n{r['n'][0]}-{r['n'][1]}: "
                f"{fmt(r['us_per_step']) if r['us_per_step'] else '-'}"
                f" ({r['samples']})" for r in rows)
            print(f"  {engine:5s} {cells}")
    probes = []
    for label, probe in workload.probes:
        _, _, outcome = run_op(workloads.Op({}, probe))
        probes.append({"probe": label, "ok": outcome.ok, "why": outcome.why})
        print(f"deep-tail probe {label}: "
              f"{'ok' if outcome.ok else outcome.why[:100]}")
    correct = failed == 0
    metrics = e2e
    layer = None
    if args.trace:
        metrics, layer, correct, t_attempted, t_failed = traced_phases(
            args, workload, mods, host, loop, extra, probes)
        attempted += t_attempted
        failed += t_failed

    result = {"stamp": stamp, "attempted": attempted, "failed": failed,
              "correct": correct, "end_to_end": e2e, "extra": extra,
              "bands": bands, "probes": probes, "layers": layer,
              "setup_times_s": sampler.times, "setup_wall_s": sampler.wall,
              "kernel_s": host.kernel_s, "kernel_ref_s": KERNEL_REF_S,
              "wall_op_s": loop["wall_op_s"], "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(result, indent=1, default=str) + "\n")
    # JSON has no infinity: the latency of a failed op is written as 1e9 s.
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": v if math.isfinite(v) else 1e9,
                           "unit": u}
                    for name, (v, u) in metrics.items()}}))
    return 0


def traced_phases(args, workload, mods, host, loop, extra, probes):
    """Replay the closed loop's op sequence untraced, then traced; compare
    outputs; return the per-layer metrics."""
    # The first half of the measured passes, at least one whole pass, keeps
    # the traced run near --seconds.
    pool = len(workload.ops)
    sequence = [index for index, _, _ in loop["records"]]
    sequence = sequence[:max(pool, len(sequence) // (2 * pool) * pool)]
    untraced = closed_loop(workload, args.seed, 0, host, sequence=sequence,
                           keep_outputs=True)
    modules = {"hornlog": mods.hornlog}
    modules.update({name: getattr(mods, name) for name in MODULES})
    tracer = Tracer(modules)
    tracer.install()
    try:
        traced = closed_loop(workload, args.seed, 0, host, tracer=tracer,
                             sequence=sequence, keep_outputs=True)
    finally:
        tracer.uninstall()
    mismatched = [
        index for (index, _, a), (_, _, b)
        in zip(untraced["records"], traced["records"])
        if a.output != b.output or a.ok != b.ok]
    failed = sum(1 for r in (untraced, traced) for _, _, out in r["records"]
                 if not out.ok)
    attempted = len(untraced["records"]) + len(traced["records"])
    correct = (not mismatched and failed == 0
               and all(out.ok for _, _, out in loop["records"]))

    metrics = per_layer(tracer, traced, untraced)
    derived = {k: v for k, v in extra.items()
               if k.startswith(("steps_per_s", "step_cost_growth."))}
    for name in ("steps_per_s", "step_cost_growth.sld",
                 "step_cost_growth.sres", "step_cost_growth.colp"):
        metrics[name] = derived.get(name, (0.0, "1/s" if name ==
                                           "steps_per_s" else "ratio"))
    metrics["engine.deep_tail_failed"] = (
        sum(1 for p in probes if not p["ok"]), "count")

    op_time = traced["wall_op_s"]  # wall seconds, as the spans are
    layer_self = tracer.layer_self()
    covered = sum(layer_self.values())
    print(f"traced replay: {len(sequence)} ops, untraced "
          f"{untraced['wall_s']:.2f} s, traced {traced['wall_s']:.2f} s, "
          f"{len(tracer.start)} spans, outputs "
          f"{'identical' if not mismatched else f'DIFFER on {len(mismatched)} ops'}")
    if tracer.missing:
        print(f"  not traced (absent): {', '.join(tracer.missing)}")
    print("self time by module (share of traced op time):")
    for name in LAYERS:
        print(f"  {name:10s} {layer_self[name]:10.4f} s "
              f"{100 * layer_self[name] / op_time:6.1f} %")
    print(f"  {'harness':10s} {op_time - covered:10.4f} s "
          f"{100 * (op_time - covered) / op_time:6.1f} %  "
          "(reference checks and glue)")
    print("per-layer:")
    report(metrics)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"{args.workload}-seed{args.seed}.spans.tsv")
    layer = {"self_s": layer_self, "op_time_s": op_time,
             "mismatched_ops": mismatched[:20]}
    return metrics, layer, correct, attempted, failed


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer spans recorded from outside the program.

The tracer replaces module attributes of ``hornlog.*`` with wrappers: every
attribute bound to a traced function (its home module and every module that
imported it by name) is swapped, so calls between layers pass through a
wrapper while the program's source stays untouched.  A wrapper records one
span (name, start, end, parent span, op id) and keeps per-name totals; self
time is a span's duration minus the time its child spans cover.

A traced function that calls itself through its own module global (the
printer ``term_text`` does) sees the original while a call is open, so only
the outermost call becomes a span and the wrappers add one stack frame per
boundary crossing, never one per recursion level.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from time import perf_counter

#: Spans: layer-qualified name -> (module, attribute) pairs it stands for.
SPANS = {
    "terms.unify": [("terms", "unify")],
    "terms.match": [("terms", "match")],
    "terms.rename_apart": [("terms", "rename_apart")],
    "terms.bump_counter_past": [("terms", "bump_counter_past")],
    "terms.resolve": [("terms", "resolve")],
    "terms.canon_key": [("terms", "canon_key")],
    "syntax.parse": [("syntax", "parse_program"), ("syntax", "parse_goal"),
                     ("syntax", "parse_term")],
    "syntax.term_text": [("syntax", "term_text")],
    "syntax.print_answer": [("syntax", "print_answer")],
    "engine.solve": [("engine", "sld_solve"), ("engine", "colp_solve"),
                     ("engine", "sres_solve"),
                     ("engine", "productivity_report")],
    "engine.rewrite_normalize": [("engine", "rewrite_normalize")],
    "engine.subst_step": [("engine", "subst_step")],
    "transform.transform_program": [("transform", "transform_program")],
    "transform.transform_goal": [("transform", "transform_goal")],
    "transform.strip_answer": [("transform", "strip_answer")],
    "fixpoint.check_transform_lemmas": [("fixpoint",
                                         "check_transform_lemmas")],
    "fixpoint.build_fragment": [("fixpoint", "build_fragment")],
    "fixpoint.tp_iterate": [("fixpoint", "tp_up"), ("fixpoint", "tp_down")],
    "fixpoint.tp_step": [("fixpoint", "tp_step")],
    "fixpoint.down_member_with_proof": [("fixpoint",
                                         "down_member_with_proof")],
    "minioo.parse": [("minioo", "parse_classes"), ("minioo", "parse_expr")],
    "compiler.infer": [("compiler", "infer")],
    "compiler.compile_class_table": [("compiler", "compile_class_table")],
    "compiler.compile_expr": [("compiler", "compile_expr")],
    "cli.main": [("cli", "main")],
}

LAYERS = ("terms", "syntax", "engine", "transform", "fixpoint", "minioo",
          "compiler", "cli")


class Tracer:
    """Span store plus the wrappers that feed it.  One tracer per traced
    phase; ``install`` and ``uninstall`` bracket the phase."""

    def __init__(self, modules: dict):
        self.modules = modules  # short name -> module, plus "hornlog"
        self.names: list = []
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.open: list = []  # [span index, time covered by children]
        self.op_id = -1
        self.calls: dict = defaultdict(int)
        self.self_time: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self.missing: list = []
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def _span(self, name: str, fn, home, attr: str, on_result):
        nid = len(self.names)
        self.names.append(name)
        t = self

        def wrapper(*args, **kwargs):
            idx = len(t.start)
            t.start.append(perf_counter())
            t.end.append(0.0)
            t.name_id.append(nid)
            t.parent.append(t.open[-1][0] if t.open else -1)
            t.op_of.append(t.op_id)
            frame = [idx, 0.0]
            t.open.append(frame)
            mine = getattr(home, attr, None)
            setattr(home, attr, fn)
            try:
                result = fn(*args, **kwargs)
            finally:
                setattr(home, attr, mine)
                now = perf_counter()
                t.open.pop()
                t.end[idx] = now
                dur = now - t.start[idx]
                t.calls[name] += 1
                t.self_time[name] += dur - frame[1]
                if t.open:
                    t.open[-1][1] += dur
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counter(self, fn, on_call):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_call(args, result)
            return result
        return wrapper

    def _swap(self, orig, replacement) -> None:
        for mod in self.modules.values():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, orig))

    def install(self) -> None:
        c = self.counts

        def bump(key, amount=1):
            c[key] += amount

        hooks = {
            "terms.unify": lambda r: bump("terms.unify.ok", r is not None),
            "terms.match": lambda r: bump("terms.match.ok", r is not None),
            "engine.rewrite_normalize": lambda r: bump(
                "engine.rewrite_steps", r.steps),
            "engine.solve": lambda r: bump(
                "engine.steps", getattr(r, "steps_used", 0)),
            "compiler.compile_class_table": lambda r: bump(
                "compiler.clauses", len(r.program.clauses)),
            "fixpoint.build_fragment": lambda r: bump(
                "fixpoint.fragment_atoms", len(r.atoms)),
        }
        for name, targets in SPANS.items():
            for modname, attr in targets:
                home = self.modules.get(modname)
                orig = getattr(home, attr, None) if home else None
                if orig is None:
                    self.missing.append(f"{modname}.{attr}")
                    continue
                self._swap(orig, self._span(name, orig, home, attr,
                                            hooks.get(name)))
        # Count-only wrappers at one module's own bindings.  Clause selection
        # in the engine: renamed candidate clauses, and the unify/match
        # calls that accepted one.  Answer deduplication in the CLI: answers
        # in verdicts against answers printed.
        engine, cli = self.modules["engine"], self.modules["cli"]
        counters = (
            (engine, "unify_atoms",
             lambda a, r: bump("engine.clause_ok", r is not None)),
            (engine, "match_atoms",
             lambda a, r: bump("engine.clause_ok", r is not None)),
            (engine, "rename_apart", lambda a, r: bump("engine.renamed")),
            (cli, "_report_verdict",
             lambda a, r: bump("cli.verdict_answers", len(a[0].answers))),
            (cli, "print_answer", lambda a, r: bump("cli.answers_printed")),
        )
        for mod, attr, on_call in counters:
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{mod.__name__}.{attr}")
                continue
            setattr(mod, attr, self._counter(fn, on_call))
            self._undo.append((mod, attr, fn))

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, orig = self._undo.pop()
            setattr(mod, attr, orig)

    # -- results ---------------------------------------------------------

    def layer_self(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for name, s in self.self_time.items():
            out[name.split(".", 1)[0]] += s
        return out

    def write(self, path) -> int:
        """Write every span as a tab-separated line: op id, name, start,
        end, parent span index (-1 for a top-level span)."""
        with open(path, "w") as f:
            f.write("op\tname\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                f.write(f"{self.op_of[i]}\t{self.names[self.name_id[i]]}\t"
                        f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                        f"{self.parent[i]}\n")
        return len(self.start)

"""Command-line front end.

One executable, six pipelines: ``solve`` runs a goal under any of the three
engines, ``compile`` and ``infer`` drive the object-language front end,
``transform`` applies the proof-term transformation, ``check`` gathers
productivity evidence, and ``oracle`` dumps bounded fixpoint iterations.

Exit codes are part of the interface: 0 answers found / check passed,
1 no answers / counterexample, 2 budget exhausted (including searches
aborted because a rewriting phase diverged), 3 usage or parse errors,
4 internal error (a failure of hornlog itself, reported on one stderr line).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from hornlog.compiler import compile_class_table, infer, runtime_clauses
from hornlog.engine import (
    Budget,
    Verdict,
    colp_solve,
    productivity_report,
    sld_solve,
    sres_solve,
)
from hornlog.fixpoint import (
    FragmentError,
    build_fragment,
    check_transform_lemmas,
    tp_down,
    tp_up,
)
from hornlog.minioo import parse_classes, parse_expr
from hornlog.syntax import (
    ParseError,
    PrintError,
    atom_text,
    clause_text,
    parse_goal,
    parse_program,
    parse_term,
    print_answer,
    program_text,
    term_text,
)
from hornlog.terms import Atom, BindingEnv, Compound, Var, canon_key, to_mu
from hornlog.transform import (
    TransformError,
    strip_verdict,
    transform_goal,
    transform_program,
)

EXIT_OK = 0
EXIT_NO = 1
EXIT_BUDGET = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4

_ENGINES = ("sld", "colp", "sres")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the interface reserves 2
    for exhausted budgets, so turn its errors into exceptions instead."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _positive(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


# C0 and C1 control characters, each escaped as repr writes it (\x00)
_CONTROLS = {c: repr(chr(c))[1:-1] for c in (*range(32), *range(127, 160))}


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise _UsageError(f"cannot read {path.translate(_CONTROLS)}: "
                          f"{getattr(exc, 'strerror', None) or exc}")


def _write(path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise _UsageError(f"cannot write {str(path).translate(_CONTROLS)}: "
                          f"{getattr(exc, 'strerror', None) or exc}")


def _budget(args) -> Budget:
    overrides = {}
    for name in ("max_steps", "max_depth", "max_rewrite_steps",
                 "max_subst_steps", "max_answers"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    return Budget(**overrides)


def _note_ignored_caps(args) -> None:
    for name in (("max_depth",) if args.engine == "sres"
                 else ("max_rewrite_steps", "max_subst_steps", "lazy_k")):
        if getattr(args, name) is not None:
            print(f"note: --{name.replace('_', '-')} does not bind "
                  f"{args.engine}", file=sys.stderr)


def _auto_style(answer) -> str:
    return {"partial": "lazy", "rational": "mu"}.get(answer.kind, "flat")


def _report_verdict(verdict: Verdict, args) -> int:
    if verdict.kind == "not_universally_observable":
        print("not universally observable: a rewriting phase diverged",
              file=sys.stderr)
        for line in verdict.witness or ():
            print(line, file=sys.stderr)
        return EXIT_BUDGET
    trace = getattr(args, "trace", False)
    seen = set()
    last = (None, None)  # the previous answer's bindings and kind
    for answer in verdict.answers:
        # Backtracking revisits the same rational answer at every unrolling
        # depth; print each answer once up to bisimulation (a lone answer
        # needs no key).  The goal variables share one term graph, so key
        # them together: two wrappers are bisimilar exactly when their
        # children are.
        if answer.bindings is last[0] and answer.kind == last[1]:
            continue  # the previous answer's key, in ``seen`` already
        last = answer.bindings, answer.kind
        if len(verdict.answers) > 1:
            goal = Compound("", tuple(Var(n) for n in answer.goal_vars))
            key = (answer.kind, canon_key(goal, answer.bindings))
            if key in seen:
                continue
            seen.add(key)
        if trace and answer.trace:
            for line in answer.trace:
                print(line)
        style = args.style or _auto_style(answer)
        text = print_answer(answer, style, args.unfold)
        if answer.kind == "partial":
            text += "  % partial"
        print(text)
    if verdict.answers:
        return EXIT_OK
    if verdict.kind == "failed":
        print("no.")
        return EXIT_NO
    print(f"budget exhausted after {verdict.steps_used} steps, no answers",
          file=sys.stderr)
    return EXIT_BUDGET


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_solve(args) -> int:
    program = parse_program(_read(args.program), args.program)
    goal = parse_goal(args.goal)
    budget = _budget(args)
    if args.occurs_check is not None and args.engine != "sld":
        print(f"note: --occurs-check is fixed off for {args.engine}",
              file=sys.stderr)
    _note_ignored_caps(args)
    if args.transform:
        program, goal = transform_program(program).program, transform_goal(goal)
    if args.engine == "sld":
        occurs = args.occurs_check != "off"
        verdict = sld_solve(goal, program, budget, occurs_check=occurs,
                            trace=args.trace)
    elif args.engine == "colp":
        verdict = colp_solve(goal, program, budget, trace=args.trace)
    else:
        verdict = sres_solve(goal, program, budget, lazy_k=args.lazy_k or 3,
                             trace=args.trace)
    if args.transform:
        verdict = strip_verdict(verdict)
    return _report_verdict(verdict, args)


def _cmd_compile(args) -> int:
    table = parse_classes(_read(args.source), args.source)
    unit = compile_class_table(table)
    n_runtime = len(runtime_clauses().clauses)
    lines = [f"% provenance: {'runtime' if i < n_runtime else c.span}\n"
             f"{clause_text(c)}" for i, c in enumerate(unit.program.clauses)]
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_infer(args) -> int:
    table = parse_classes(_read(args.source), args.source)
    expr = parse_expr(args.expr)
    assumptions = {}
    for item in args.assume or ():
        name, eq, value = item.partition("=")
        if not eq or not name:
            raise _UsageError(f"--assume wants NAME=TYPE, got {item!r}")
        assumptions[name.lower()] = parse_term(value)
    _note_ignored_caps(args)
    verdict = infer(table, expr, engine=args.engine, budget=_budget(args),
                    assumptions=assumptions or None,
                    lazy_k=args.lazy_k or 3)
    return _report_verdict(verdict, args)


def _cmd_transform(args) -> int:
    transformed = transform_program(parse_program(_read(args.program),
                                                  args.program))
    table = [f"{kappa} -> {atom_text(clause.head)}"
             for kappa, clause in transformed.back_map.items()]
    body = program_text(transformed.program)
    if args.output:
        _write(args.output, body + "\n")
        _write(Path(args.output).with_suffix(".kappa"),
               "\n".join(table) + "\n")
    else:
        print(body)
        print()
        print("\n".join(table))
    return EXIT_OK


def _cmd_check(args) -> int:
    program = parse_program(_read(args.program), args.program)
    goal = parse_goal(args.goal)
    report = productivity_report(goal, program, _budget(args))
    print(f"universally observable: {'yes' if report.observable else 'no'}")
    print(f"liveness: {report.liveness} substitution steps witnessed")
    if report.produced:
        pairs = ", ".join(f"{f}:{n}"
                          for f, n in sorted(report.produced.items()))
        print(f"produced constructors: {pairs}")
    if not report.observable:
        for line in report.witness or ():
            print(line, file=sys.stderr)
        return EXIT_NO
    return EXIT_OK


def _atom_line(atom: Atom, env: BindingEnv) -> str:
    """Render a fragment atom; rational arguments get `where` equations."""
    eqs = {}
    roots = []
    for arg in atom.args:
        m = to_mu(env, arg)
        roots.append(m.root)
        eqs.update(dict(m.equations))
    text = atom_text(Atom(atom.pred, tuple(roots)))
    if eqs:
        text += "  where " + ", ".join(
            f"{name} = {term_text(rhs)}" for name, rhs in sorted(eqs.items()))
    return text


def _cmd_oracle(args) -> int:
    program = parse_program(_read(args.program), args.program)
    if args.mode == "lemmas":
        report = check_transform_lemmas(program, n=args.n, d=args.d, c=args.c)
        if report.holds:
            print(f"holds (stages={report.stages}, "
                  f"fragment atoms={report.fragment_atoms})")
            return EXIT_OK
        for line in report.counterexamples:
            print(line)
        return EXIT_NO
    fragment = build_fragment(program, args.d, args.c)
    iterate = tp_up if args.mode == "up" else tp_down
    trace = iterate(program, args.n, fragment)
    for k, stage in enumerate(trace.sets):
        print(f"-- n={k}")
        for line in sorted(_atom_line(a, fragment.env)
                           for a in stage.values()):
            print(line)
    if trace.fixed_point:
        print("fixed point reached", file=sys.stderr)
    return EXIT_OK


def _emit(text: str, output) -> None:
    if output:
        _write(output, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Argument wiring


def _cap_flags(parser, flags=("--max-steps", "--max-depth",
                               "--max-rewrite-steps", "--max-subst-steps")):
    for flag in flags:
        parser.add_argument(flag, type=_positive)


def _solver_flags(parser) -> None:
    parser.add_argument("--style", choices=("flat", "mu", "lazy"),
                        help="answer rendering (default: picked per answer)")
    parser.add_argument("--unfold", type=_positive, default=3,
                        help="cycle unfoldings in the lazy style")
    parser.add_argument("--lazy-k", type=_positive,
                        help="substitution steps before a partial answer "
                             "(default 3)")
    _cap_flags(parser)
    parser.add_argument("--max-answers", type=_positive, default=10,
                        help="stop the search after this many answers "
                             "(default 10; backtracking through a cycle "
                             "yields the same rational answer endlessly)")


@functools.cache  # parse_args leaves the parser as it was
def _build_parser() -> _Parser:
    parser = _Parser(prog="hornlog", description=__doc__.split("\n\n")[1],
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    solve = sub.add_parser("solve", help="run a goal against an .lp program")
    solve.add_argument("program", help=".lp file")
    solve.add_argument("goal", help='goal text, e.g. "?- zeros(X)."')
    solve.add_argument("--engine", choices=_ENGINES, default="sld")
    solve.add_argument("--occurs-check", choices=("on", "off"), default=None,
                       help="unification occurs check (sld only; default on)")
    solve.add_argument("--transform", action="store_true",
                       help="apply the proof-term transformation to program "
                            "and goal first, stripping proofs from answers")
    solve.add_argument("--trace", action="store_true",
                       help="print derivation trace lines before each answer")
    _solver_flags(solve)
    solve.set_defaults(fn=_cmd_solve)

    compile_ = sub.add_parser("compile",
                              help="compile a .moo class table to clauses")
    compile_.add_argument("source", help=".moo file")
    compile_.add_argument("-o", "--output", help="write .lp here "
                                                 "(default: stdout)")
    compile_.set_defaults(fn=_cmd_compile)

    infer_ = sub.add_parser("infer",
                            help="type an expression against a .moo file")
    infer_.add_argument("source", help=".moo file")
    infer_.add_argument("expr", help='expression, e.g. "new EList()"')
    infer_.add_argument("--engine", choices=_ENGINES, default="sres")
    infer_.add_argument("--assume", action="append", metavar="NAME=TYPE",
                        help="fix a free variable's type (repeatable)")
    _solver_flags(infer_)
    infer_.set_defaults(fn=_cmd_infer, trace=False)

    transform = sub.add_parser("transform",
                               help="add proof-term arguments to a program")
    transform.add_argument("program", help=".lp file")
    transform.add_argument("-o", "--output",
                           help="write the transformed .lp here plus a "
                                ".kappa sidecar mapping proof functors to "
                                "source clause heads")
    transform.set_defaults(fn=_cmd_transform)

    check = sub.add_parser("check",
                           help="report productivity evidence for a goal")
    check.add_argument("program", help=".lp file")
    check.add_argument("goal")
    # only the caps productivity_report keeps
    _cap_flags(check, ("--max-steps", "--max-rewrite-steps",
                       "--max-subst-steps"))
    check.set_defaults(fn=_cmd_check)

    oracle = sub.add_parser("oracle",
                            help="bounded fixpoint iteration over a fragment")
    oracle.add_argument("program", help=".lp file")
    oracle.add_argument("mode", choices=("up", "down", "lemmas"))
    oracle.add_argument("-n", type=_positive, default=4,
                        help="iteration stages")
    oracle.add_argument("-d", type=_nonnegative, default=2,
                        help="term depth bound of the fragment")
    oracle.add_argument("-c", type=_nonnegative, default=1,
                        help="cycle bound (rational atoms admitted if >= 1)")
    oracle.set_defaults(fn=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    # A character that the output encoding lacks (``σ`` in a trace line
    # under latin-1) is written as a backslash escape instead of failing.
    for stream in (sys.stdout, sys.stderr):
        reconfigure = getattr(stream, "reconfigure", None)
        if reconfigure is not None:
            reconfigure(errors="backslashreplace")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, TransformError, PrintError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FragmentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"error: internal error: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

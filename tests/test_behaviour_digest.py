"""Behaviour digest: one SHA-256 per case of what hornlog computes.

The golden file ``tests/golden/behaviour.json`` maps each case name to the
SHA-256 of the case's rendered text.  A refactor that means to change no
behaviour must leave every digest as it is.  On a mismatch the test prints
the first differing case, with its input and its current output.

Cases:

* ``term/<i>``: seeded random rational terms (six variables, each bound to
  a random term, to a variable, or left free) and a few hand-built deep,
  shared and cyclic ones.  Each records ``has_cycle``; ``to_mu`` (root and
  equations, in order); ``resolve`` at depths 0, 1 and 2, as a structure
  and printed flat, nested and marked; and the ``canon_key`` partition:
  the index of the first case whose key equals this term's key, and that
  of its ``from_mu(to_mu(...))`` copy.  So the shape of a key is not
  pinned, only which terms it equates.
* ``program/<i>``: seeded ``genprog`` programs and goals.  ``sld`` and
  ``colp`` run traced with certificates, ``sres`` runs traced; every
  answer is printed in all three styles; and ``productivity_report``.
* ``oracle/<sample>/<mode>/<flags>``: ``hornlog oracle`` up, down and
  lemmas on every ``.lp`` sample, exit code and both streams.
* ``pair/<i>``: ``unify`` with the occurs check off and on, and ``match``,
  on seeded pairs of random rational terms whose pattern side is renamed
  apart (its variables are ``P<i>``; odd cases also bind some of them).
  Each records every binding of the result in order, or the failure.
* ``rename/<name>``: ``rename_apart`` of every clause of every sample and
  of every ``genprog`` program above, the counter threaded through: the
  clause text, the counter after it, and each renamed variable's span.
* ``parse/<i>``: ``program_text`` of every ``.lp`` sample, every node and
  span of a few well-formed terms, and the ``ParseError`` text of a fixed
  list of malformed programs, goals and terms.  ``parse/lines/<i>``: every
  clause, atom and term node with its span, or the error and its span, of
  multi-line programs, goals and terms with CRLF line ends, tabs, comments
  mid-line and at the end of input, other characters that ``\\s`` matches
  (form feed, U+0085, U+00A0, ...) and a bad character on a later line.
* ``cli/<i>``: ``solve``, ``infer``, ``check``, ``transform`` and
  ``compile`` on the samples and ``lists.moo``, exit code and both
  streams, with the checkout path cut from them.
* ``moo/<name>``: the ``.moo`` front end.  ``parse_classes`` of
  ``lists.moo`` and of a source with inheritance (``class_table_text``,
  each declaration's ``repr`` and every expression node with its span);
  nodes and spans of fixed expressions; the ``MooError`` text and span of
  malformed sources and expressions; ``moo/lines/<i>``, the same for
  multi-line sources and expressions written as ``parse/lines/<i>``'s
  inputs are; and seeded random expressions,
  printed with ``expr_text``, parsed back and compiled with
  ``compile_expr`` (the goal, the result and the type environment).
* ``referee/<name>``: the fixpoint referee on the ``.lp`` samples with
  finite fixpoints and on seeded ``random_lemma_program``s: ``up_member``
  and ``down_member_with_proof`` of every atom of the ``d = 1, c = 1``
  fragment at stages 0-3, and the ``check_transform_lemmas`` report.
  ``referee/<name>/proof-up``: the upward stages 0-3 of the same program's
  proof-carrying version over that fragment (``tp_up`` with
  ``ignore_last``), each stage's atoms printed and sorted.
  ``referee/query/<i>``: ``up_member`` on seeded terminating queries at
  stages 0-7.
* ``referee/<name>/stages``: the stages 0-3 of ``tp_up``, ``tp_down``,
  ``tp_up`` with ``ignore_last`` over the proof-carrying program and the
  proof-carrying downward chain (``_proof_stage``), each stage's atoms
  printed in the stage dict's order, so that insertion order and
  representatives are pinned.  The programs are the ``referee/<name>``
  ones over the same fragment; hand-written ones, over the ``d = 2,
  c = 1`` fragment, whose bodies have variables the head never reads,
  shared body variables or ground atoms; and ``certificate/<i>``:
  ``certificate_fragment``s of ``colp`` answers whose seeds keep variables
  free.  ``referee/c2/<name>/stages`` prints the same chains over the
  ``d = 2, c = 2`` fragment of ``zeros``, ``ex3`` and four more seeded
  ``random_lemma_program``s, where rational systems of two equations and
  the arena's variable names for them are pinned.
* ``proof/<sample>/<goal>/<engine>``: ``render_proof`` of every proof
  variable of every answer each engine gives to a transformed goal.
* ``print/shared/<name>``: answers whose term graph is much smaller than
  its unfolding, printed in every style.  ``from/<k>`` is the ``sres``
  prefix of ``from(0, X)`` at ``lazy_k`` k (at k = 300 in the lazy style
  only, which is how the CLI prints it); ``dag/<d>`` the doubling DAG
  ``Y0 = f(Y1, Y1)``, ..., ``Y<d> = a`` at unfold 1 and 3; ``cycle/<i>``
  a cycle reached from two places, and one with a shared acyclic part,
  each at unfold 0-3 together with ``resolve`` of every variable.
* ``engine/index/<program>/<i>``: clause selection by the first argument.
  Two programs whose heads' first arguments mix variables, constants,
  list cells and compounds of clashing arity, with repeated head
  variables and zero-arity predicates, run as ``program/<i>`` runs them,
  and ``up_member`` at stages 0-3.  Each goal's first argument is bound
  directly, through a chain of ``eq`` bindings, to a cyclic term, or not
  at all; goal variables share names with head variables.
* ``observe/<name>``: what observing a derivation reads off it.
  ``productivity/<sample>`` is ``productivity_report`` on ``zeros``,
  ``from``, ``ex3``'s ``q(X)`` and ``p(X)`` and a 40-cell ``len`` at
  ``max_subst_steps`` 200; ``trace/<engine>/len`` a traced 200-cell
  ``len`` under each engine and ``trace/sres/from`` a traced ``from``
  prefix, each with its answers; ``resolve/<i>`` ``resolve`` of every
  variable at depths 0-3, with and without ``cut=12``, on cycles that
  hang off long acyclic parts; ``exit/<name>`` the ways a search stops
  that the cases above do not reach: ``sld`` and ``colp`` cut by
  ``max_steps`` or ``max_depth`` after answers, and ``sres`` (with
  ``productivity_report``) stopped by ``max_steps`` short of
  ``max_subst_steps``, cut by a cap after answers, or diverging after
  answers.
* ``colp/<name>``: ancestor closure on long branches.  ``from/<d>`` is
  ``colp`` on ``from(0, X)`` at ``max_depth`` d, traced; ``chain/cli``
  and ``chain/solve`` a 12-call ``addLast`` chain of mixed element types,
  through ``infer`` and as the compiled goal solved traced with
  certificates; ``zeros/<i>`` the traced certificate answers of ``zeros``
  goals.
* ``key/<i>``: the ``canon_key`` partition, as in ``term/<i>``, of long
  finite lists (literal and through bindings), shared and unshared DAGs,
  finite prefixes that hang off cycles and cycles over finite parts.
* ``head/<name>``: resolving against clause heads with repeated variables
  (``p(X, X)``, ``subclass(X, X)``), heads with a compound where the goal
  has a variable (``p(f(Y), Y)``, failing the occurs check against
  ``p(X, X)`` under ``sld``) and heads with ``[]`` twice, literal and as
  shared list tails.  ``program/<i>`` runs each goal as ``program/<i>``
  runs its goals, which pins ``productivity_report``'s consumed
  constructors.  ``step/<i>`` takes one ``sld_step`` with and without the
  occurs check, one ``subst_step`` and one ``rewrite_normalize`` of an
  atom under environments whose targets are identical, equal but
  distinct, cyclic, or a variable loop ``X -> Y -> X``; each child's body
  atoms, with every variable's span, and its bindings in order.
  ``subst/<i>`` is ``subst_step`` on goals that are not normal forms.

No case reads ``Compound.fp`` or anything else that depends on ``hash``
salting.  A change that means to alter behaviour regenerates the file with

    PYTHONPATH=src python tests/test_behaviour_digest.py --regenerate

and lists every changed case.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

from genprog import (
    random_atom,
    random_lemma_program,
    random_program,
    random_terminating_program,
    random_terminating_query,
)

from hornlog.cli import main
from hornlog import minioo as moo
from hornlog.compiler import compile_class_table, compile_expr
from hornlog.engine import (
    Answer,
    Budget,
    colp_solve,
    productivity_report,
    rewrite_normalize,
    sld_solve,
    sld_step,
    sres_solve,
    subst_step,
)
from hornlog import fixpoint
from hornlog.fixpoint import (
    FragmentError,
    build_fragment,
    certificate_fragment,
    check_transform_lemmas,
    down_member_with_proof,
    tp_down,
    tp_up,
    up_member,
)
from hornlog.minioo import MooError, parse_classes, parse_expr
from hornlog.syntax import (
    ParseError,
    PrintError,
    atom_text,
    clause_text,
    goal_text,
    parse_goal,
    parse_program,
    parse_term,
    print_answer,
    program_text,
    term_text,
)
from hornlog.terms import (
    EMPTY_ENV,
    NIL,
    Atom,
    BindingEnv,
    Compound,
    Goal,
    Var,
    canon_key,
    const,
    from_mu,
    has_cycle,
    match,
    mklist,
    rename_apart,
    resolve,
    term_vars,
    to_mu,
    unify,
)
from hornlog.transform import (
    proof_vars,
    render_proof,
    transform_goal,
    transform_program,
)

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "behaviour.json"
ROOT = HERE.parent
SAMPLES = ROOT / "samples"

RANDOM_TERMS = 1500
RANDOM_PAIRS = 600
RANDOM_PROGRAMS = 150
RANDOM_EXPRS = 300
REFEREE_PROGRAMS = 6
REFEREE_QUERIES = 40
TERMINATING_PROGRAMS = 50
BUDGET = Budget(max_steps=150, max_depth=25, max_rewrite_steps=60,
                max_subst_steps=40, max_answers=4)

# ---------------------------------------------------------------------------
# Rational terms

_VARS = [f"X{i}" for i in range(6)]
_FUNCS = [("f", 1), ("g", 2), (".", 2), ("\\/", 2), ("fld", 2)]
_CONSTS = ["a", "b", "[]"]


def _random_term(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Var(rng.choice(_VARS))
        return const(rng.choice(_CONSTS))
    name, arity = rng.choice(_FUNCS)
    return Compound(name, tuple(_random_term(rng, depth - 1)
                                for _ in range(arity)))


def _random_rational(rng: random.Random):
    bindings = {}
    for name in _VARS:
        r = rng.random()
        if r < 0.5:
            bindings[name] = _random_term(rng, 3)
        elif r < 0.6:
            bindings[name] = Var(rng.choice(_VARS))
    return BindingEnv(bindings), _random_term(rng, 3)


def _built_terms():
    """Deep, shared and cyclic terms that random draws rarely reach."""
    s = const("0")
    for _ in range(60):
        s = Compound("s", (s,))
    dag = const("a")
    for _ in range(6):
        dag = Compound("f", (dag, dag))
    ring = {f"R{i}": Compound("n", (const(str(i % 3)), Var(f"R{i + 1}")))
            for i in range(39)}
    ring["R39"] = Compound("n", (const("0"), Var("R0")))
    return [
        (EMPTY_ENV, mklist([const("a")] * 80)),
        (EMPTY_ENV, mklist([const(str(i)) for i in range(80)], Var("T"))),
        (EMPTY_ENV, s),
        (EMPTY_ENV, dag),
        (BindingEnv(ring), Var("R0")),
        (BindingEnv(ring), Compound("pair", (Var("R0"), Var("R7")))),
        (BindingEnv({"X": Compound("cons", (const("0"), Var("X")))}),
         mklist([Var("X"), Var("X")])),
        (BindingEnv({"U": Compound("f", (Var("W"),)),
                     "W": Compound("g", (Var("U"),))}),
         Compound("pair", (Var("U"), Var("W")))),
    ]


def _bindings_text(env: BindingEnv) -> str:
    return ", ".join(f"{n} = {term_text(t)}"
                     for n, t in sorted(env.bindings.items()))


def term_cases() -> dict:
    rng = random.Random(20171)
    inputs = [_random_rational(rng) for _ in range(RANDOM_TERMS)]
    inputs += _built_terms()
    first_with_key: dict = {}
    cases = {}
    for i, (env, t) in enumerate(inputs):
        lines = [f"input {term_text(t)} under {{{_bindings_text(env)}}}",
                 f"has_cycle {has_cycle(env, t)}"]
        m = to_mu(env, t)
        lines.append(f"to_mu {m!r}")
        for depth in (0, 1, 2):
            r = resolve(env, t, depth)
            lines += [f"resolve {depth} {r!r}",
                      f"  flat {term_text(r)}",
                      f"  nested {term_text(r, nested_lists=True)}",
                      f"  marked {term_text(r, nested_lists=True, marked=True)}"]
        copy, copy_env = from_mu(m, EMPTY_ENV)
        classes = [first_with_key.setdefault(canon_key(x, e), i)
                   for x, e in ((t, env), (copy, copy_env))]
        lines.append(f"canon_key class {classes}")
        cases[f"term/{i}"] = "\n".join(lines)
    return cases


# ---------------------------------------------------------------------------
# Programs


def _answer_text(answer) -> list:
    lines = [f"answer {answer.kind} after {answer.steps_used} steps"]
    lines += [f"  {line}" for line in answer.trace or ()]
    for style in ("flat", "mu", "lazy"):
        try:
            text = print_answer(answer, style, 2)
        except PrintError as exc:
            text = f"PrintError: {exc}"
        lines.append(f"  {style}: {text}")
    if answer.selected is not None:
        lines.append("  selected " + "; ".join(atom_text(a)
                                             for a in answer.selected))
        lines.append(f"  full_env {{{_bindings_text(answer.full_env)}}}")
    return lines


def _verdict_text(name: str, verdict) -> list:
    lines = [f"{name} {verdict.kind} after {verdict.steps_used} steps"]
    lines += [f"  witness {line}" for line in verdict.witness or ()]
    for answer in verdict.answers:
        lines += _answer_text(answer)
    return lines


def _program_text(program, goal) -> str:
    lines = [f"program {atom_text(c.head)} :- "
             + ", ".join(atom_text(a) for a in c.body)
             for c in program.clauses]
    lines.append("goal " + ", ".join(atom_text(a) for a in goal.atoms))
    lines += _verdict_text("sld", sld_solve(goal, program, BUDGET, trace=True,
                                            certificate=True))
    lines += _verdict_text("colp", colp_solve(goal, program, BUDGET,
                                              trace=True, certificate=True))
    lines += _verdict_text("sres", sres_solve(goal, program, BUDGET, lazy_k=2,
                                              trace=True))
    report = productivity_report(goal, program, BUDGET)
    lines.append(f"productivity {report.observable} {report.liveness} "
                 f"{sorted(report.produced.items())}")
    lines += [f"  witness {line}" for line in report.witness or ()]
    return "\n".join(lines)


def _programs() -> list:
    rng = random.Random(20172)
    pairs = [(random_program(rng), Goal((random_atom(rng),)))
             for _ in range(RANDOM_PROGRAMS)]
    for _ in range(TERMINATING_PROGRAMS):
        p = random_terminating_program(rng)
        pairs.append((p, random_terminating_query(rng, p)))
    return pairs


def program_cases() -> dict:
    return {f"program/{i}": _program_text(p, g)
            for i, (p, g) in enumerate(_programs())}


# ---------------------------------------------------------------------------
# The oracle command

# The defaults on from.lp take several seconds, so it runs only the small
# fragments.
_ORACLE_FLAGS = [(), ("-n", "3", "-d", "1", "-c", "1"),
                 ("-n", "3", "-d", "2", "-c", "0")]


def _cli_text(argv: list) -> str:
    """Exit code and both streams of ``hornlog argv``, with the checkout
    path cut, so that the text is the same in every checkout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = (f"exit {code}\n-- stdout\n{out.getvalue()}"
            f"-- stderr\n{err.getvalue()}")
    return text.replace(f"{ROOT}/", "")


def oracle_cases() -> dict:
    cases = {}
    for sample in sorted(SAMPLES.glob("*.lp")):
        for flags in _ORACLE_FLAGS:
            if not flags and sample.stem == "from":
                continue
            for mode in ("up", "down", "lemmas"):
                name = f"oracle/{sample.stem}/{mode}/{' '.join(flags)}"
                cases[name] = _cli_text(["oracle", str(sample), mode, *flags])
    return cases


# ---------------------------------------------------------------------------
# Unification and matching


def _pattern_side(t):
    """``t`` with every variable ``X<i>`` renamed to ``P<i>``."""
    if isinstance(t, Var):
        return Var("P" + t.name[1:])
    return Compound(t.functor, tuple(_pattern_side(a) for a in t.args))


def _result_text(env) -> str:
    if env is None:
        return "fail"
    return "; ".join(f"{n} = {term_text(t)}" for n, t in env.bindings.items())


def pair_cases() -> dict:
    rng = random.Random(20173)
    cases = {}
    for i in range(RANDOM_PAIRS):
        env, target = _random_rational(rng)
        pattern_env, pattern = _random_rational(rng)
        pattern = _pattern_side(pattern)
        if i % 2:
            env = BindingEnv({**env.bindings, **{
                "P" + n[1:]: _pattern_side(t)
                for n, t in pattern_env.bindings.items()}})
        lines = [f"pattern {term_text(pattern)} target {term_text(target)} "
                 f"under {{{_result_text(env)}}}"]
        for occurs_check in (False, True):
            out = unify(pattern, target, env, occurs_check)
            lines.append(f"unify {occurs_check} {_result_text(out)}"
                         f"{' (same env)' if out is env else ''}")
        out = match(pattern, target, env)
        lines.append(f"match {_result_text(out)}"
                     f"{' (same env)' if out is env else ''}")
        cases[f"pair/{i}"] = "\n".join(lines)
    return cases


# ---------------------------------------------------------------------------
# Clause renaming


def _renamed_text(clauses, counter: int) -> str:
    env = BindingEnv(counter=counter)
    lines = []
    for c in clauses:
        before = env.counter
        renamed, env = rename_apart(c, env)
        lines.append(f"{clause_text(renamed)} counter {env.counter}")
        seen = set()
        for a in (renamed.head, *renamed.body):
            for arg in a.args:
                for v in term_vars(arg):
                    if v.name not in seen:
                        seen.add(v.name)
                        span = v.span and (v.span.file, v.span.line,
                                           v.span.column, v.span.length)
                        lines.append(f"  {v.name} {span}")
        assert len(seen) == env.counter - before
    return "\n".join(lines)


def rename_cases() -> dict:
    cases = {}
    for sample in sorted(SAMPLES.glob("*.lp")):
        program = parse_program(sample.read_text(), sample.name)
        cases[f"rename/{sample.stem}"] = _renamed_text(program.clauses, 0)
    lists = SAMPLES / "lists.moo"
    unit = compile_class_table(parse_classes(lists.read_text(), lists.name))
    cases["rename/lists"] = _renamed_text(unit.program.clauses, 3)
    for i, (program, _) in enumerate(_programs()):
        cases[f"rename/program/{i}"] = _renamed_text(program.clauses, i)
    return cases


# ---------------------------------------------------------------------------
# Parsing

_WELL_FORMED = [
    "f(X, _, g(_, Y), _)",
    "a \\/ b \\/ c",
    "(a \\/ b) \\/ c",
    "x:int \\/ y:(a \\/ b)",
    "obj(nelist, [head:int, tail:T]) \\/ obj(elist, [])",
    "[a, b|T]",
    "[[], [_|_], [x:y]]",
    "((f((a))))",
    "s(s(s(0)))",
    "[1, 2, 3]",
]

_MALFORMED = [
    ("program", "p(X) :- q(X)"),
    ("program", "p(X) :- ."),
    ("program", "p(X :- q."),
    ("program", "p(X))."),
    ("program", "p([a, b)."),
    ("program", "p([a|b|c])."),
    ("program", "X :- p."),
    ("program", "p :- X."),
    ("program", "p(a) :- q(b), ."),
    ("program", "p(#)."),
    ("program", "p(a)\nq(b)."),
    ("program", "p(a : ). "),
    ("program", "p(a \\/ )."),
    ("program", "p(f(a, ))."),
    ("program", "p(())."),
    ("program", "p([)."),
    ("program", ":- p."),
    ("goal", ""),
    ("goal", "?-"),
    ("goal", "?- p(X) q"),
    ("goal", "p(X)."),
    ("goal", "p(X), Y"),
    ("goal", "p(X). q"),
    ("goal", "p(X,"),
    ("goal", "p(X)) "),
    ("term", ""),
    ("term", "f(a) g"),
    ("term", "a:b:c"),
    ("term", "(a"),
    ("term", "[a"),
    ("term", "[a|]"),
    ("term", "f(a"),
    ("term", "f(a,"),
    ("term", "a \\/"),
    ("term", ":"),
    ("term", "|"),
    ("term", "f(a) :- b"),
]


def _nodes_text(t) -> str:
    """Every node of ``t`` in preorder, with its span."""
    lines, stack = [], [(t, 0)]
    while stack:
        x, depth = stack.pop()
        span = x.span and (x.span.line, x.span.column, x.span.length)
        label = x.name if isinstance(x, Var) else x.functor
        lines.append(f"{'  ' * depth}{label} {span}")
        if isinstance(x, Compound):
            stack.extend((a, depth + 1) for a in reversed(x.args))
    return "\n".join(lines)


# Multi-line inputs: CRLF line ends, tabs, comments mid-line and at the end
# of input with no newline, and the characters ``\s`` matches besides the
# usual ones (form feed, vertical tab, U+0085, U+00A0, U+2028, U+3000).
# Only ``\n`` starts a line, so every other one counts as a column.
_LINES = [
    ("program", "p(a).\r\n% note\r\n\tp(b) :- q(X), % tail\r\n  r(X).\r\n"),
    ("program", "p(a).\r\n% note\r\n\tp(b) :- q(X), % tail\r\n  r(X) ? .\r\n"),
    ("program", "p(X) :- q(X). % end, no newline"),
    ("program", "p(a).\f\n q(b)\x85.\xa0r(c).\v\n\u2028s(\u3000d)."),
    ("program", "p(\n  f(X,\tY),\r\n  [a, b|T]\n).  % c\n\n\tq :- p(_, _, _).%x"),
    ("program", "p(a).\n\n  q(b) :-\n\t r(c) & s.\n"),
    ("program", "p(a).\r\n\tq(b\r\n%c\r\n"),
    ("program", "p(a).\xa0\x85\f\v$"),
    ("program", "p(a).\n\tq(\xe9)."),
    ("program", "% only\r\n% comments\r\n"),
    ("program", "p :-\r\n\tq,\r\n\tr.\r\n% last"),
    ("goal", "?- p(X),\r\n\tq(Y) % c\r\n."),
    ("goal", "p(a"),
    ("goal", "p(X)\r\n\t\r\n  ,% c\n q(X) r"),
    ("term", "f(\n\ta \\/\n\tb:c\r\n)"),
    ("term", "[\ta,\r\n\tb\x85|\xa0T\f]"),
    ("term", "p(\u0663)"),
    ("term", "f(a,\n\n\n    \t  @)"),
    ("term", "g(X) % trailing"),
]


def _parsed_nodes_text(parsed) -> str:
    """Every clause, atom and term node of a parsed program, goal or term,
    with its span, in the style of ``_nodes_text``."""
    if isinstance(parsed, (Var, Compound)):
        return _nodes_text(parsed)
    if isinstance(parsed, Goal):
        clauses = [(None, a) for a in parsed.atoms]
    else:
        clauses = [(c, a) for c in parsed.clauses for a in (c.head, *c.body)]
    lines, seen = [], None
    for c, a in clauses:
        if c is not None and c is not seen:
            seen = c
            s = c.span
            lines.append(f"clause {c.idx} {(s.line, s.column, s.length)}")
        s = a.span
        lines.append(f" atom {a.pred}/{len(a.args)} "
                     f"{(s.line, s.column, s.length)}")
        for t in a.args:
            lines += ["  " + line for line in _nodes_text(t).split("\n")]
    return "\n".join(lines)


def parse_cases() -> dict:
    cases = {}
    for sample in sorted(SAMPLES.glob("*.lp")):
        program = parse_program(sample.read_text(), sample.name)
        cases[f"parse/{sample.stem}"] = program_text(program)
    parsers = {"program": parse_program, "goal": parse_goal,
               "term": parse_term}
    inputs = [("term", text) for text in _WELL_FORMED] + _MALFORMED
    for i, (kind, text) in enumerate(inputs):
        try:
            parsed = parsers[kind](text)
        except ParseError as exc:
            out = f"ParseError {exc} span {exc.span!r}"
        else:
            out = _nodes_text(parsed) if kind == "term" else repr(parsed)
        cases[f"parse/{i}"] = f"{kind} {text!r}\n{out}"
    for i, (kind, text) in enumerate(_LINES):
        try:
            parsed = parsers[kind](text, "lines.lp")
        except ParseError as exc:
            out = f"ParseError {exc} span {exc.span!r}"
        else:
            out = _parsed_nodes_text(parsed)
        cases[f"parse/lines/{i}"] = f"{kind} {text!r}\n{out}"
    return cases


# ---------------------------------------------------------------------------
# The other commands

_CLI = [
    ("solve", "zeros.lp", "zeros(X)", "--engine", "sld", "--max-steps", "40"),
    ("solve", "zeros.lp", "zeros(X)", "--engine", "colp", "--trace"),
    ("solve", "zeros.lp", "zeros(X)", "--engine", "colp", "--style", "lazy"),
    ("solve", "zeros.lp", "zeros(X)", "--engine", "sres", "--trace",
     "--lazy-k", "2", "--max-answers", "3"),
    ("solve", "zeros.lp", "zeros(X)", "--engine", "sres", "--style", "mu"),
    ("solve", "zeros.lp", "zeros(X)", "--engine", "sres", "--style", "flat"),
    ("solve", "from.lp", "from(0, X)", "--engine", "colp", "--trace",
     "--max-depth", "60"),
    ("solve", "from.lp", "from(0, X)", "--engine", "sres", "--trace",
     "--transform", "--lazy-k", "4"),
    ("solve", "from.lp", "from(0, [A, B, C|T])", "--engine", "sld",
     "--max-depth", "30"),
    ("solve", "subclass.lp", "subclass(X, Y)", "--engine", "sld", "--trace",
     "--max-answers", "6", "--max-depth", "12"),
    ("solve", "subclass.lp", "subclass(a, X)", "--engine", "colp",
     "--transform", "--max-answers", "4"),
    ("solve", "subclass.lp", "subclass(X, object)", "--engine", "sres",
     "--trace", "--transform"),
    ("solve", "subclass.lp", "subclass(b, a)", "--engine", "sres"),
    ("solve", "ex3.lp", "p(X)", "--engine", "sres", "--trace",
     "--transform", "--max-answers", "2"),
    ("solve", "ex3.lp", "q(X)", "--engine", "sres", "--trace"),
    ("solve", "ex3.lp", "p(f(f(X))), q(a)", "--engine", "colp", "--trace"),
    ("solve", "ex3.lp", "p(X)", "--engine", "sld", "--occurs-check", "off",
     "--max-steps", "20"),
    ("solve", "ex3.lp", "p(X", "--engine", "sld"),
    ("infer", "lists.moo", "new EList().addLast(i)", "--engine", "sld",
     "--assume", "i=int", "--max-answers", "1"),
    ("infer", "lists.moo", "new EList().addLast(42).addLast(false).head",
     "--engine", "sld", "--max-answers", "1"),
    ("infer", "lists.moo", "new ListFact().replicate(n, x)", "--engine",
     "colp", "--assume", "n=int", "--assume", "x=int", "--max-answers", "2"),
    ("infer", "lists.moo", "new ListFact().buildList(n, new EList())",
     "--engine", "colp", "--max-steps", "200"),
    ("infer", "lists.moo", "new ListFact().buildList(n, new EList())",
     "--engine", "sres", "--lazy-k", "4", "--max-answers", "2"),
    ("infer", "lists.moo", "new EList().addLast(i)", "--assume", "i=int",
     "--lazy-k", "64", "--max-answers", "1", "--style", "lazy"),
    ("infer", "lists.moo", "new EList().nothere()", "--engine", "sld"),
    ("check", "zeros.lp", "zeros(X)", "--max-subst-steps", "30"),
    ("check", "from.lp", "from(0, X)", "--max-subst-steps", "30"),
    ("check", "ex3.lp", "q(X)", "--max-rewrite-steps", "12"),
    ("check", "ex3.lp", "p(X)", "--max-subst-steps", "30"),
    ("check", "subclass.lp", "subclass(a, X)", "--max-rewrite-steps", "12"),
    ("transform", "zeros.lp"),
    ("transform", "from.lp"),
    ("transform", "ex3.lp"),
    ("transform", "subclass.lp"),
    ("compile", "lists.moo"),
]


def cli_cases() -> dict:
    cases = {}
    for i, (command, sample, *rest) in enumerate(_CLI):
        argv = [command, str(SAMPLES / sample), *rest]
        cases[f"cli/{i}"] = (" ".join([command, sample, *rest]) + "\n"
                             + _cli_text(argv))
    return cases


# ---------------------------------------------------------------------------
# The .moo front end

_MOO_SOURCE = """
// inheritance, super arguments and case folding
class Cons extends NEList {
    Extra;
    CONS(h, t, e) {
        super(h, t.tail);
        this.extra = if (e <= 0) null else e - 1;
    }
    get() { this.EXTRA }
}
class Base {
    m(x, y) { x.f(y, new Cons(1, this, true)).g - 2 }
}
"""

_MOO_EXPRS = [
    "new EList().addLast(42)",
    "x.addLast(y)",
    "this",
    "null",
    "true",
    "false",
    "0",
    "123",
    "n - 1 - 2",
    "a - b.c - d.e(f)",
    "n <= 0",
    "a - b <= c - d",
    "if (n <= 0) new EList() else new NEList(x, this.replicate(n - 1, x))",
    "if (a) if (b) c else d else e",
    "if (a) b else if (c) d else e",
    "if (a) b else c <= d",
    "(if (a) b else c).m()",
    "(if (a) b else c) <= d",
    "x.f.g.h",
    "x.f(y).g",
    "new A(new B(), new C(1, 2), x.y)",
    "((x))",
    "(x - y) - z",
    "x - (y - z)",
    "x <= (y <= z)",
    "(x <= y) <= z",
    "x.m()",
    "new A()",
    "this.head.tail",
    "if (true) 1 else 2",
    "X.Y",
    "x // comment\n  .f",
    "new\n  A(\n x,\n\ty)",
    "x.m(if (a) b else c, d)",
    "new A(if (a) b else c)",
    "(if (a) b else c)",
    "x.m(a - b, c <= d)",
    "(new A()).f",
    "1.f",
    "this.m(this).n(null, false)",
]

_MOO_MALFORMED = [
    ("expr", ""),
    ("expr", "x y"),
    ("expr", "x <= y <= z"),
    ("expr", "1 - if (a) b else c"),
    ("expr", "x <= if (a) b else c"),
    ("expr", "(x"),
    ("expr", "new 1()"),
    ("expr", "new A"),
    ("expr", "new A(x"),
    ("expr", "new A(x,)"),
    ("expr", "x."),
    ("expr", "x.if"),
    ("expr", "x.m(a b)"),
    ("expr", "if x"),
    ("expr", "if (x) y"),
    ("expr", "if (x) y else"),
    ("expr", "x < y"),
    ("expr", "x + y"),
    ("expr", "super"),
    ("expr", "x - "),
    ("expr", "x <= "),
    ("expr", "x.f = y"),
    ("expr", "f(x)"),
    ("expr", "x.m(a)(b)"),
    ("expr", ")"),
    ("source", "class"),
    ("source", "x"),
    ("source", "class A extends {"),
    ("source", "class A"),
    ("source", "class A { 1; }"),
    ("source", "class A { m(1) { x } }"),
    ("source", "class A { A() { x; } }"),
    ("source", "class A { f; A(x) { super(); this.1 = x; } }"),
    ("source", "class A { f; A(x) { super(); this.f = x } }"),
    ("source", "class A { A() { super() } }"),
    ("source", "class A { A(x) { super(; } }"),
    ("source", "class A { m() { x; } }"),
    ("source", "class A { m() { x }"),
    ("source", "class A {\n  m() { 1 +++ 2 }\n}"),
    ("source", "class A extends A { A() { super(); } }"),
    ("source", "class A extends B {} class B extends A {}"),
    ("source", "class A {} class A {}"),
    ("source", "class Object {}"),
    ("source", "class A { f; A() { super(); } }"),
    ("source", "class A { f; g; A(x) { super(); this.g = x; this.f = x; } }"),
    ("source", "class A { f; A(x) { super(); this.f = x; this.f = x; } }"),
    ("source", "class A { A(x) { super(); this.f = x; } }"),
    ("source", "class A { m(x, x) { x } }"),
    ("source", "class A { m(x) { x } m(y) { y } }"),
    ("source", "class A { f; f; A() { super(); } }"),
    ("source", "class A { A() { super(); } A() { super(); } }"),
]

# Multi-line sources and expressions, with the whitespace and comments of
# ``_LINES``.
_MOO_LINES = [
    ("source", "class A extends Object {\r\n\tf; // field\r\n\tA(x) {\r\n"
               "\t\tsuper();\r\n\t\tthis.f = x;\r\n\t}\r\n"
               "\tm() { this.f }\r\n} // end"),
    ("source", "class A {\n// c\n  A() { super(); } #\n}"),
    ("source", "class\xa0A\x85{\f m() {\v1 }\u2028}\u3000"),
    ("source", "CLASS Foo {\r\n\tBAR;\r\n\tFoo(B) { super(); this.bar = B; }"
               "\r\n}\r\n// tail"),
    ("source", "class A {\r\n\tm() { x }\r\n"),
    ("source", "class A {\n\tm(x) {\n\t\tx.f(\t// c\n\t\t  1 - \xe9)\n\t}\n}"),
    ("expr", "x\r\n\t.m(y, // c\r\n  z) + 1"),
    ("expr", "new A(\n\t1,\r\n\tx.f)"),
    ("expr", "x // only a comment at the end"),
    ("expr", "x\n  / y"),
    ("expr", "if (a\f<=\x85b)\n\tc\r\nelse\xa0d"),
    ("expr", "\n\n\t"),
]

_MOO_LABELS = ("name", "value", "cls", "fld", "method", "op")


def _moo_nodes_text(e) -> str:
    """Every node of the expression ``e`` in preorder, with its span."""
    lines, stack = [], [(e, 0)]
    while stack:
        x, depth = stack.pop()
        span = x.span and (x.span.file, x.span.line, x.span.column,
                           x.span.length)
        label = " ".join([type(x).__name__] + [
            repr(getattr(x, a)) for a in _MOO_LABELS if hasattr(x, a)])
        lines.append(f"{'  ' * depth}{label} {span}")
        kids = [getattr(x, a) for a in ("target", "cond", "then", "orelse",
                                        "lhs", "rhs") if hasattr(x, a)]
        kids += getattr(x, "args", ())
        stack.extend((k, depth + 1) for k in reversed(kids))
    return "\n".join(lines)


def _class_table_cases(name: str, text: str) -> str:
    ct = parse_classes(text, name)
    lines = [moo.class_table_text(ct)]
    for decl in ct.classes.values():
        lines.append(repr(decl))
        for e in decl.ctor.super_args:
            lines.append(_moo_nodes_text(e))
        for f, e in decl.ctor.assigns:
            lines.append(f"this.{f} =\n{_moo_nodes_text(e)}")
        for m in decl.methods.values():
            lines.append(f"{m.name}\n{_moo_nodes_text(m.body)}")
    return "\n".join(lines)


_MOO_CLASSES = ["elist", "nelist", "a"]
_MOO_NAMES = ["x", "n", "acc"]
_MOO_MEMBERS = ["addlast", "head", "m"]


def _random_expr(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([
            lambda: moo.Var(rng.choice(_MOO_NAMES)),
            lambda: moo.IntLit(rng.randrange(3)),
            lambda: moo.BoolLit(rng.random() < 0.5),
            moo.Null,
            moo.This,
        ])()
    sub = depth - 1
    kind = rng.randrange(6)
    if kind == 0:
        return moo.New(rng.choice(_MOO_CLASSES), tuple(
            _random_expr(rng, sub) for _ in range(rng.randrange(3))))
    if kind == 1:
        return moo.FieldAcc(_random_expr(rng, sub), rng.choice(_MOO_MEMBERS))
    if kind == 2:
        return moo.Invoke(_random_expr(rng, sub), rng.choice(_MOO_MEMBERS),
                          tuple(_random_expr(rng, sub)
                                for _ in range(rng.randrange(3))))
    if kind == 3:
        return moo.If(*(_random_expr(rng, sub) for _ in range(3)))
    return moo.BinOp(rng.choice(["<=", "-"]), _random_expr(rng, sub),
                     _random_expr(rng, sub))


def _moo_expr_text(text: str, env=None) -> str:
    try:
        e = parse_expr(text)
    except MooError as exc:
        return f"MooError {exc} span {exc.span!r}"
    lines = [_moo_nodes_text(e)]
    env = dict(env or {})
    goal, result = compile_expr(e, env)
    lines += [f"goal {goal_text(goal)}", f"result {term_text(result)}",
              "env " + ", ".join(f"{n}: {term_text(t)}"
                                 for n, t in env.items())]
    return "\n".join(lines)


def moo_cases() -> dict:
    lists = SAMPLES / "lists.moo"
    cases = {"moo/lists": _class_table_cases(lists.name, lists.read_text()),
             "moo/source": _class_table_cases("<moo>", _MOO_SOURCE)}
    for i, text in enumerate(_MOO_EXPRS):
        cases[f"moo/expr/{i}"] = f"{text!r}\n{_moo_expr_text(text)}"
    for i, (kind, text) in enumerate(_MOO_MALFORMED):
        try:
            if kind == "expr":
                parse_expr(text)
            else:
                parse_classes(text)
            out = "parsed"
        except MooError as exc:
            out = f"MooError {exc} span {exc.span!r}"
        cases[f"moo/error/{i}"] = f"{kind} {text!r}\n{out}"
    for i, (kind, text) in enumerate(_MOO_LINES):
        try:
            if kind == "expr":
                out = _moo_nodes_text(parse_expr(text, "lines.moo"))
            else:
                out = _class_table_cases("lines.moo", text)
        except MooError as exc:
            out = f"MooError {exc} span {exc.span!r}"
        cases[f"moo/lines/{i}"] = f"{kind} {text!r}\n{out}"
    rng = random.Random(20174)
    for i in range(RANDOM_EXPRS):
        text = moo.expr_text(_random_expr(rng, 6))
        env = {"n": const("int")} if i % 2 else None
        cases[f"moo/random/{i}"] = f"{text}\n{_moo_expr_text(text, env)}"
    return cases


# ---------------------------------------------------------------------------
# The fixpoint referee

_REFEREE_STAGES = range(4)
_QUERY_STAGES = range(8)


def _referee_programs() -> list:
    pairs = [(name, parse_program((SAMPLES / f"{name}.lp").read_text()))
             for name in ("zeros", "ex3", "subclass")]
    rng = random.Random(20175)
    pairs += [(f"random/{i}", random_lemma_program(rng))
              for i in range(REFEREE_PROGRAMS)]
    return pairs


def _guarded(fn, *args) -> str:
    """``fn(*args)`` as text, or the ``FragmentError`` it raises."""
    try:
        return str(fn(*args))
    except FragmentError as exc:
        return f"FragmentError {exc}"


def _shown(a: Atom, env: BindingEnv) -> Atom:
    """``a`` with each cycle of its arguments unfolded once."""
    return Atom(a.pred, tuple(resolve(env, t, 1) for t in a.args))


def _referee_text(p) -> str:
    """``up_member`` and ``down_member_with_proof`` of every fragment atom
    at stages 0-3, and the lemma report."""
    lines = [f"program {clause_text(c)}" for c in p.clauses]
    frag = build_fragment(p, 1, 1)
    proof_side = transform_program(p).program
    for a in frag.atoms.values():
        shown = _shown(a, frag.env)
        ups = [_guarded(up_member, p, a, k, frag.env)
               for k in _REFEREE_STAGES]
        downs = [_guarded(down_member_with_proof, proof_side, a, k, frag)
                 for k in _REFEREE_STAGES]
        lines.append(f"{atom_text(shown)} up {' '.join(ups)} "
                     f"down {' '.join(downs)}")
    try:
        report = check_transform_lemmas(p, n=3, d=1, c=1)
    except FragmentError as exc:
        lines.append(f"lemmas FragmentError {exc}")
    else:
        lines.append(f"lemmas {report.holds} {report.stages} "
                     f"{report.fragment_atoms}")
        lines += [f"  {line}" for line in report.counterexamples]
    return "\n".join(lines)


def _proof_up_text(p) -> str:
    """The upward proof-carrying stages 0-3 over the ``d = 1, c = 1``
    fragment, each stage's atoms printed and sorted."""
    frag = build_fragment(p, 1, 1)
    try:
        trace = tp_up(transform_program(p).program, _REFEREE_STAGES[-1],
                      frag, ignore_last=True)
    except FragmentError as exc:
        return f"FragmentError {exc}"
    lines = [f"fixed point {trace.fixed_point}"]
    for k, stage in enumerate(trace.sets):
        lines.append(f"stage {k}")
        lines += sorted(atom_text(_shown(a, frag.env))
                        for a in stage.values())
    return "\n".join(lines)


def referee_cases() -> dict:
    cases = {}
    for name, p in _referee_programs():
        cases[f"referee/{name}"] = _referee_text(p)
        cases[f"referee/{name}/proof-up"] = _proof_up_text(p)
    rng = random.Random(20176)
    for i in range(REFEREE_QUERIES):
        p = random_terminating_program(rng)
        goal = random_terminating_query(rng, p)
        lines = [f"program {clause_text(c)}" for c in p.clauses]
        lines.append(f"goal {goal_text(goal)} up " + " ".join(
            _guarded(up_member, p, goal.atoms[0], k) for k in _QUERY_STAGES))
        cases[f"referee/query/{i}"] = "\n".join(lines)
    return cases


# ---------------------------------------------------------------------------
# Proofs of transformed answers

_PROOF_GOALS = [
    ("zeros", "zeros(X)"),
    ("ex3", "p(X)"),
    ("ex3", "q(X)"),
    ("ex3", "p(f(f(X))), q(a)"),
    ("subclass", "subclass(X, Y)"),
    ("subclass", "subclass(a, object)"),
    ("from", "from(0, X)"),
]


def proof_cases() -> dict:
    """``render_proof`` of every proof variable of every answer each engine
    gives to the transformed goal."""
    cases = {}
    for name, text in _PROOF_GOALS:
        tp = transform_program(parse_program(
            (SAMPLES / f"{name}.lp").read_text()))
        goal = transform_goal(parse_goal(text))
        for engine, verdict in (
                ("sld", sld_solve(goal, tp.program, BUDGET)),
                ("colp", colp_solve(goal, tp.program, BUDGET)),
                ("sres", sres_solve(goal, tp.program, BUDGET, lazy_k=2))):
            lines = [f"{engine} {verdict.kind}"]
            for answer in verdict.answers:
                for v in proof_vars(goal):
                    lines.append(f"{v} {answer.kind}")
                    lines.append(render_proof(Var(v), tp, answer.bindings))
            cases[f"proof/{name}/{text}/{engine}"] = "\n".join(lines)
    return cases


# ---------------------------------------------------------------------------
# Answers that share subterms

_FROM_PREFIXES = [*range(1, 61), 300]
_DAG_DEPTHS = range(13)


def _shared_cycles() -> list:
    """A cycle reached from two places, and a cycle over a shared
    acyclic part (a doubling DAG under a stream), with their goal
    variables."""
    two_ways = {"X": Compound("f", (Var("Y"),)),
                "Y": Compound("g", (Var("X"),)),
                "A": Compound("h", (Var("Y"), Var("X")))}
    over_dag = {"X": Compound("cons", (Var("Y0"), Var("X"))),
                "A": Compound("h", (Var("X"), Var("Y0"), Var("S")))}
    over_dag.update(_dag_bindings(5))
    over_dag["S"] = Compound("k", (Var("X"), Var("Y2"), Var("S")))
    return [(BindingEnv(two_ways), ("A", "X", "Y")),
            (BindingEnv(over_dag), ("A", "X", "S"))]


def _dag_bindings(depth: int) -> dict:
    out = {f"Y{i}": Compound("f", (Var(f"Y{i + 1}"), Var(f"Y{i + 1}")))
           for i in range(depth)}
    out[f"Y{depth}"] = const("a")
    return out


def _styles_text(answer, unfolds, styles=("flat", "mu", "lazy")) -> list:
    lines = []
    for style in styles:
        for unfold in (unfolds if style == "lazy" else unfolds[:1]):
            try:
                text = print_answer(answer, style, unfold)
            except PrintError as exc:
                text = f"PrintError: {exc}"
            lines.append(f"{style} {unfold}: {text}")
    return lines


def print_cases() -> dict:
    cases = {}
    program = parse_program((SAMPLES / "from.lp").read_text())
    goal = parse_goal("from(0, X)")
    for k in _FROM_PREFIXES:
        verdict = sres_solve(goal, program, Budget(max_answers=1), lazy_k=k)
        lines = [f"sres {verdict.kind}"]
        for answer in verdict.answers:
            lines.append(f"answer {answer.kind}")
            lines += _styles_text(answer, (3,),
                                  ("lazy",) if k > 60 else ("flat", "mu", "lazy"))
        cases[f"print/shared/from/{k}"] = "\n".join(lines)
    for d in _DAG_DEPTHS:
        answer = Answer(BindingEnv(_dag_bindings(d)), ("Y0",), "total")
        cases[f"print/shared/dag/{d}"] = "\n".join(
            _styles_text(answer, (1, 3)))
    for i, (env, names) in enumerate(_shared_cycles()):
        lines = _styles_text(Answer(env, names, "rational"), (0, 1, 2, 3))
        for depth in range(4):
            lines += [f"resolve {depth} {n} {resolve(env, Var(n), depth)!r}"
                      for n in names]
        cases[f"print/shared/cycle/{i}"] = "\n".join(lines)
    return cases


# ---------------------------------------------------------------------------
# Clause selection by the first argument

_INDEX_PROGRAMS = {
    "p": """
        eq(X, X).
        p(X, var(X)).
        p(a, const).
        p([], nil).
        p([H|T], cons(H, T)).
        p(f(X), f1(X)).
        p(f(X, Y), f2(X, Y)).
        p(g(X, X), same(X)).
        p(X, X) :- q.
        p(f(b), fb) :- r.
        p(h, h) :- none.
        q.
        q :- r.
        r.
    """,
    "w": """
        eq(X, X).
        w(a, Y) :- q.
        w([], z).
        w([H|T], s(Y)) :- w(T, Y).
        w(f(X), Y) :- w(X, Y).
        w(f(X, Y), Y).
        w(g(X, X), X).
        w(X, X).
        w(k(X), Y) :- eq(X, Y), w(X, Y).
        q.
    """,
}

# (bindings, first argument, rest of the atom): the goal binds each pair
# with ``eq`` before the indexed atom, and ``up_member`` reads them as its
# environment.
_INDEX_GOALS = [
    ((), "a", "R"), ((), "b", "R"), ((), "[]", "R"), ((), "[a, b]", "R"),
    ((), "[a|T]", "R"), ((), "f(a)", "R"), ((), "f(f(a))", "R"),
    ((), "f(a, b)", "R"), ((), "f(X, Y)", "Y"), ((), "g(c, c)", "R"),
    ((), "g(c, d)", "R"), ((), "g(X, X)", "X"), ((), "g(X, Y)", "R"),
    ((), "h", "h"), ((), "k(a)", "R"), ((), "f(b)", "fb"),
    ((("X", "Y"), ("Y", "a")), "X", "R"),
    ((("X", "Y"), ("Y", "[a]")), "X", "R"),
    ((("X", "Y"), ("Y", "f(b)")), "X", "R"),
    ((("X", "Y"), ("Y", "Z"), ("Z", "g(c, c)")), "X", "R"),
    ((("X", "Y"), ("Y", "f(a, b)")), "X", "Y"),
    ((("X", "f(X)"),), "X", "R"),
    ((("X", "[a|X]"),), "X", "R"),
    ((("X", "g(X, X)"),), "X", "R"),
    ((("X", "Y"), ("Y", "g(Y, X)")), "X", "R"),
    ((("X", "f(X, X)"),), "X", "X"),
    ((("X", "Y"), ("Y", "X")), "X", "R"),
    ((), "X", "R"), ((), "X", "X"), ((), "X", "Y"), ((), "H", "T"),
]

_INDEX_ZERO_ARITY = ["q", "r", "none", "eq(X, a), q"]


def index_cases() -> dict:
    cases = {}
    for name, text in _INDEX_PROGRAMS.items():
        program = parse_program(text)
        pred = program.clauses[1].head.pred
        goals = [(parse_goal(g), None) for g in _INDEX_ZERO_ARITY]
        for pairs, first, rest in _INDEX_GOALS:
            atom = parse_goal(f"{pred}({first}, {rest})").atoms[0]
            eqs = [parse_goal(f"eq({x}, {t})").atoms[0] for x, t in pairs]
            env = BindingEnv({x: parse_term(t) for x, t in pairs})
            goals.append((Goal((*eqs, atom)), (atom, env)))
        for i, (goal, member) in enumerate(goals):
            text = _program_text(program, goal)
            if member is not None:
                atom, env = member
                text += "\nup " + " ".join(
                    _guarded(up_member, program, atom, k, env)
                    for k in _REFEREE_STAGES)
            cases[f"engine/index/{name}/{i}"] = text
    return cases


# ---------------------------------------------------------------------------
# Referee stages in insertion order

_STAGE_PROGRAMS = {
    "exists": "r(g(g(Z))) :- p(X), p(Y).\np(a).\np(f(X)) :- p(X).",
    "shared": "r(Z) :- p(Y), q(Y).\np(a).\np(f(X)) :- p(X).\n"
              "q(f(a)).\nq(g(X)) :- q(X).",
    "ground-body": "s(X) :- p(a), q(f(a)), p(X).\np(a).\n"
                   "p(g(X)) :- q(X).\nq(f(X)) :- p(X).",
    "chain": "r(X, W) :- p(X, Y), p(Y, Z), q(Z, W), q(V, V).\n"
             "p(a, f(a)).\np(f(X), X) :- q(X, X).\nq(X, X).",
}
_CERTIFICATES = [
    ("p(cons(X, Y)) :- p(Y).", "p(Z)"),
    ("p(cons(X, Y)) :- p(Y), q(X, W).\nq(A, B).", "p(Z)"),
]


def _chains(p, frag) -> list:
    """Name and thunk of each stage chain that ``_stages_text`` prints."""
    n = _REFEREE_STAGES[-1]
    proof_side = transform_program(p).program
    return [
        ("up", lambda: tp_up(p, n, frag)),
        ("down", lambda: tp_down(p, n, frag)),
        ("proof-up", lambda: tp_up(proof_side, n, frag, ignore_last=True)),
        ("proof-down", lambda: fixpoint._iterate(
            dict(frag.atoms), n, lambda s: fixpoint._proof_stage(
                fixpoint._proof_heads(proof_side, frag), frag, s, s))),
    ]


def _stages_text(p, frag) -> str:
    lines = [f"program {clause_text(c)}" for c in p.clauses]
    for name, chain in _chains(p, frag):
        try:
            trace = chain()
        except FragmentError as exc:
            lines.append(f"{name} FragmentError {exc}")
            continue
        lines.append(f"{name} fixed point {trace.fixed_point}")
        for k, stage in enumerate(trace.sets):
            lines.append(f"{name} stage {k}")
            lines += [atom_text(_shown(a, frag.env)) for a in stage.values()]
    return "\n".join(lines)


def stage_cases() -> dict:
    cases = {}
    for name, p in _referee_programs():
        cases[f"referee/{name}/stages"] = _stages_text(
            p, build_fragment(p, 1, 1))
    for name, text in _STAGE_PROGRAMS.items():
        p = parse_program(text)
        cases[f"referee/{name}/stages"] = _stages_text(
            p, build_fragment(p, 2, 1))
    for i, (text, goal) in enumerate(_CERTIFICATES):
        p = parse_program(text)
        answer = colp_solve(parse_goal(goal), p, Budget(max_answers=1),
                            certificate=True).answers[0]
        frag = certificate_fragment(p, answer)
        cases[f"referee/certificate/{i}/stages"] = (
            f"goal {goal}\n{_stages_text(p, frag)}")
    rng = random.Random(20190)
    wide = _referee_programs()[:2] + [
        (f"random/{i}", random_lemma_program(rng)) for i in range(4)]
    for name, p in wide:
        cases[f"referee/c2/{name}/stages"] = _stages_text(
            p, build_fragment(p, 2, 2))
    return cases


# ---------------------------------------------------------------------------
# Observing a derivation: traces, productivity reports, cut displays

_LEN = "len([], z). len([_|T], s(N)) :- len(T, N)."
_OBSERVE_BUDGET = Budget(max_subst_steps=200)


def _len_goal(n: int):
    return parse_goal("len([" + ", ".join(["a"] * n) + "], N)")


def _hanging_cycles() -> list:
    """Cycles reached through long acyclic parts, with their variables:
    ``X = f(Y, X)`` over a list ``Y``; a list whose tail is a stream; and
    two cycles through each other under a chain of ``s``."""
    cells = mklist([const(str(i % 4)) for i in range(60)], Var("T"))
    over_list = {"X": Compound("f", (Var("Y"), Var("X"))), "Y": cells,
                 "T": Compound("g", (Var("Z"),))}
    tail = {"L": mklist([const("a")] * 40, Var("S")),
            "S": Compound("cons", (const("b"), Var("S")))}
    chain = Var("U")
    for _ in range(30):
        chain = Compound("s", (chain,))
    twined = {"A": Compound("h", (chain, Var("V"))),
              "U": Compound("f", (Var("W"), Var("V"))),
              "W": Compound("g", (Var("U"),)),
              "V": Compound("k", (Var("A"), Var("Z")))}
    return [(BindingEnv(b), tuple(b)) for b in (over_list, tail, twined)]


# Where a search stops once it has answers, or on the step cap rather than
# the substitution cap: (name, program, goal, [(engine, budget), ...]).
_EXITS = [
    ("steps-after-answer", "nat(z). nat(s(X)) :- nat(X).", "nat(X)",
     [(e, Budget(max_steps=6, max_depth=100)) for e in ("sld", "colp")]),
    ("depth-after-answer", "nat(z). nat(s(X)) :- nat(X).", "nat(X)",
     [(e, Budget(max_depth=3)) for e in ("sld", "colp")]),
    ("sres-steps", _LEN, "len([a, a, a, a, a, a, a, a, a, a, a, a], N)",
     [("sres", Budget(max_steps=15))]),
    ("sres-cap-after-answer", "p(a). p(f(X)) :- p(X).", "p(Y)",
     [("sres", Budget(max_subst_steps=5)), ("sres", Budget(max_steps=9))]),
    ("diverged-after-answer", "p(a). p(f(X)) :- r(X). r(X) :- r(X).", "p(Y)",
     [("sres", Budget(max_rewrite_steps=20))]),
]


def observe_cases() -> dict:
    cases = {}
    samples = [("zeros", "zeros.lp", "zeros(X)"), ("from", "from.lp",
               "from(0, X)"), ("ex3-q", "ex3.lp", "q(X)"),
               ("ex3-p", "ex3.lp", "p(X)")]
    reports = [(name, parse_program((SAMPLES / f).read_text()),
                parse_goal(goal)) for name, f, goal in samples]
    reports.append(("len", parse_program(_LEN), _len_goal(40)))
    for name, p, goal in reports:
        report = productivity_report(goal, p, _OBSERVE_BUDGET)
        lines = [f"productivity {report.observable} {report.liveness} "
                 f"{sorted(report.produced.items())}"]
        lines += [f"  witness {line}" for line in report.witness or ()]
        cases[f"observe/productivity/{name}"] = "\n".join(lines)
    first = Budget(max_answers=1)
    p, goal = parse_program(_LEN), _len_goal(200)
    for name, verdict in (
            ("sld", sld_solve(goal, p, first, trace=True)),
            ("colp", colp_solve(goal, p, first, trace=True)),
            ("sres", sres_solve(goal, p, first, lazy_k=None, trace=True))):
        cases[f"observe/trace/{name}/len"] = "\n".join(
            _verdict_text(name, verdict))
    verdict = sres_solve(parse_goal("from(0, X)"),
                         parse_program((SAMPLES / "from.lp").read_text()),
                         first, lazy_k=40, trace=True)
    cases["observe/trace/sres/from"] = "\n".join(
        _verdict_text("sres", verdict))
    for i, (env, names) in enumerate(_hanging_cycles()):
        lines = []
        for depth in range(4):
            for cut in (None, 12):
                lines += [f"resolve {depth} {cut} {n} "
                          f"{term_text(resolve(env, Var(n), depth, cut))}"
                          for n in names]
        cases[f"observe/resolve/{i}"] = "\n".join(lines)
    for name, text, goal, runs in _EXITS:
        lines = []
        for engine, budget in runs:
            p, g = parse_program(text), parse_goal(goal)
            if engine == "sres":
                lines += _verdict_text(engine, sres_solve(g, p, budget,
                                                          lazy_k=None,
                                                          trace=True))
                report = productivity_report(g, p, budget)
                lines.append(f"productivity {report.observable} "
                             f"{report.liveness} "
                             f"{sorted(report.produced.items())}")
            else:
                solve = sld_solve if engine == "sld" else colp_solve
                lines += _verdict_text(engine, solve(g, p, budget, trace=True,
                                                     certificate=True))
        cases[f"observe/exit/{name}"] = "\n".join(lines)
    return cases


# ---------------------------------------------------------------------------
# Ancestor closure on long colp branches

_CHAIN_ITEMS = ["x", "1", "false", "y"] * 3
_ZEROS_GOALS = ["zeros(X)", "zeros(cons(0, X))", "zeros(X), zeros(Y)",
                "zeros(cons(0, cons(0, X))), zeros(X)"]


def colp_cases() -> dict:
    cases = {}
    program = parse_program((SAMPLES / "from.lp").read_text())
    for d in (60, 120):
        verdict = colp_solve(parse_goal("from(0, X)"), program,
                             Budget(max_depth=d), trace=True, certificate=True)
        cases[f"colp/from/{d}"] = "\n".join(_verdict_text("colp", verdict))
    expr = "new EList()" + "".join(f".addLast({i})" for i in _CHAIN_ITEMS)
    cases["colp/chain/cli"] = _cli_text(
        ["infer", str(SAMPLES / "lists.moo"), expr, "--engine", "colp"])
    lists = SAMPLES / "lists.moo"
    unit = compile_class_table(parse_classes(lists.read_text(), lists.name))
    goal, _ = compile_expr(parse_expr(expr), {})
    verdict = colp_solve(goal, unit.program, Budget(max_answers=2),
                         trace=True, certificate=True)
    cases["colp/chain/solve"] = "\n".join(_verdict_text("colp", verdict))
    program = parse_program((SAMPLES / "zeros.lp").read_text())
    for i, text in enumerate(_ZEROS_GOALS):
        verdict = colp_solve(parse_goal(text), program, Budget(max_answers=4),
                             trace=True, certificate=True)
        cases[f"colp/zeros/{i}"] = "\n".join(
            [f"goal {text}", *_verdict_text("colp", verdict)])
    return cases


# ---------------------------------------------------------------------------
# Canonical keys of long, shared and hanging terms


def _chained_list(items, tail, prefix: str) -> tuple:
    """A list of ``items`` built one cell per binding, ``<prefix>0`` first,
    ending in ``tail``."""
    names = [f"{prefix}{i}" for i in range(len(items))]
    bindings = {n: Compound(".", (x, Var(m))) for n, x, m in
                zip(names, items, names[1:] + [None])}
    if names:
        bindings[names[-1]] = Compound(".", (items[-1], tail))
    return bindings, (Var(names[0]) if names else tail)


def _tree(depth: int):
    return const("a") if depth == 0 else Compound(
        "f", (_tree(depth - 1), _tree(depth - 1)))


def _key_inputs() -> list:
    a, b = const("a"), const("b")
    digits = [const(str(i % 4)) for i in range(50)]
    dag, odd_dag = a, b  # odd_dag: dag with its rightmost leaf b
    for _ in range(12):
        dag, odd_dag = Compound("f", (dag, dag)), Compound("f", (dag, odd_dag))
    chained, head = _chained_list([a] * 300, NIL, "L")
    alt_chained, alt_head = _chained_list([a, b] * 150, NIL, "M")
    stream = {"S": Compound(".", (a, Var("S")))}
    stream2 = {"S2": Compound(".", (a, Compound(".", (a, Var("S2")))))}
    prefix, phead = _chained_list([a] * 50, Var("S"), "P")
    bprefix, bhead = _chained_list([b] + [a] * 49, Var("S"), "Q")
    dprefix, dhead = _chained_list(digits, Var("C"), "D")
    cyc = {"C": Compound("cons", (b, Var("C")))}
    over = mklist([a] * 40)
    g1 = {"G": Compound("g", (over, Var("G")))}
    g2 = {"H": Compound("g", (mklist([a] * 40),
                              Compound("g", (over, Var("H")))))}
    g3 = {"K": Compound("g", (mklist([a] * 39), Var("K")))}
    inputs = [
        (EMPTY_ENV, mklist([a] * 300)),
        (BindingEnv(chained), head),
        (EMPTY_ENV, mklist([a] * 299)),
        (EMPTY_ENV, mklist([a, b] * 150)),
        (BindingEnv(alt_chained), alt_head),
        (EMPTY_ENV, mklist([a] * 300, Var("T"))),
        (EMPTY_ENV, mklist([a] * 300, Var("U"))),
        (EMPTY_ENV, dag),
        (BindingEnv(_dag_bindings(12)), Var("Y0")),
        (EMPTY_ENV, _tree(8)),
        (BindingEnv(_dag_bindings(8)), Var("Y0")),
        (EMPTY_ENV, odd_dag),
        (BindingEnv(stream), Var("S")),
        (BindingEnv(stream2), Var("S2")),
        (BindingEnv({**stream, **prefix}), phead),
        (BindingEnv({**stream, **bprefix}), bhead),
        (BindingEnv({**cyc, **dprefix}), dhead),
        (BindingEnv(cyc), mklist(digits, Var("C"))),
        (BindingEnv(cyc), mklist(digits[1:], Var("C"))),
        (BindingEnv(g1), Var("G")),
        (BindingEnv(g2), Var("H")),
        (BindingEnv(g3), Var("K")),
        (BindingEnv({**g1, **g2}), Compound("p", (Var("G"), Var("H")))),
    ]
    for env, names in _hanging_cycles():
        inputs += [(env, Var(n)) for n in names]
    return inputs


def key_cases() -> dict:
    first_with_key: dict = {}
    return {f"key/{i}": f"canon_key class "
            f"{first_with_key.setdefault(canon_key(t, env), i)}"
            for i, (env, t) in enumerate(_key_inputs())}


# ---------------------------------------------------------------------------
# Clause heads: repeated variables, compounds against goal variables

_HEAD_PROGRAM = """
    eq(X, X).
    p(X, X).
    p(f(Y), Y).
    p(g(X, Y), X) :- p(Y, X).
    subclass(X, X).
    subclass(a, b).
    subclass(X, Z) :- subclass(X, Y), subclass(Y, Z).
    two([], []).
    two([A|B], [C|D]) :- two(B, D).
    pair([X], [Y]).
    pair([X|Y], [X|Y]) :- two(Y, Y).
"""

_HEAD_GOALS = [
    "p(X, X)", "p(X, Y)", "p(f(a), f(a))", "eq(Y, f(a)), p(Y, Y)",
    "eq(X, f(X)), eq(Y, f(Y)), p(X, Y)", "eq(X, f(X)), p(X, f(X))",
    "eq(X, f(X)), p(X, X)", "p(f(X), X)", "p(g(a, X), Y)",
    "subclass(a, a)", "subclass(X, X)", "subclass(a, X)", "subclass(X, b)",
    "eq(X, Y), subclass(X, Y)", "two(X, Y)", "two([], [])",
    "two([a, b], X)", "pair(X, Y)", "pair([a], [a])", "pair(X, X)",
]

# Environments of the goal atom: identical targets, equal but distinct
# ones, cyclic ones and a variable loop.
_HEAD_ENVS = [
    {},
    {"Y": "f(a)"},
    {"X": "f(a)", "Y": "f(a)"},
    {"X": "f(X)", "Y": "f(Y)"},
    {"X": "f(X)", "Y": "f(f(Y))"},
    {"X": "Y", "Y": "X"},
    {"X": "Y", "Y": "X", "Z": "f(Z)"},
    {"X": "Z", "Y": "Z", "Z": "[a]"},
]

_HEAD_ATOMS = [
    "p(X, X)", "p(X, Y)", "p(Y, Y)", "p(f(a), f(a))", "p(X, f(X))",
    "p(f(X), X)", "p(Z, X)", "p(g(X, Y), Y)", "subclass(X, Y)",
    "subclass(X, X)", "subclass(a, X)", "two(X, Y)", "two([], Y)",
    "two(X, [])", "pair(X, X)", "pair(Z, X)",
]

_SUBST_GOALS = [
    "p(a, a), p(X, Y)", "p(X, Y), p(a, a)", "subclass(a, a), two(X, Y)",
    "two([], []), pair(X, Y)", "p(X, X), subclass(X, Y)",
    "pair([a], [a]), p(f(X), X)",
]


def _body_text(atoms) -> str:
    """The atoms, then each variable's span at its first occurrence."""
    lines = ["  body " + ", ".join(atom_text(a) for a in atoms)]
    seen = set()
    for a in atoms:
        for arg in a.args:
            for v in term_vars(arg):
                if v.name not in seen:
                    seen.add(v.name)
                    span = v.span and (v.span.line, v.span.column,
                                       v.span.length)
                    lines.append(f"    {v.name} {span}")
    return "\n".join(lines)


def _head_step_text(program, atoms, env) -> str:
    lines = [f"goal {', '.join(atom_text(a) for a in atoms)} under "
             f"{{{_result_text(env)}}}"]
    for occurs_check in (True, False):
        for body, env2, kind, ref in sld_step(atoms, env, program,
                                              occurs_check):
            lines += [f"sld {occurs_check} {kind} {ref} counter "
                      f"{env2.counter} {{{_result_text(env2)}}}",
                      _body_text(body)]
    g = Goal(atoms)
    for goal, env2, ref, ai in subst_step(g, program, env):
        lines.append(f"su {ref} {ai} {goal is g} counter "
                     f"{env2.counter} {{{_result_text(env2)}}}")
    rw = rewrite_normalize(Goal(atoms), program, env, BUDGET,
                           collect_trace=True)
    lines += [f"rw {rw.status} {rw.steps} counter {rw.env.counter} "
              f"{{{_result_text(rw.env)}}}", _body_text(rw.goal.atoms)]
    lines += [f"  {line}" for line in rw.trace]
    lines += [f"  witness {line}" for line in rw.witness or ()]
    return "\n".join(lines)


def head_cases() -> dict:
    program = parse_program(_HEAD_PROGRAM, "heads.lp")
    cases = {f"head/program/{i}": _program_text(program, parse_goal(text))
             for i, text in enumerate(_HEAD_GOALS)}
    i = 0
    for bindings in _HEAD_ENVS:
        env = BindingEnv({n: parse_term(t) for n, t in bindings.items()})
        for text in _HEAD_ATOMS:
            cases[f"head/step/{i}"] = _head_step_text(
                program, parse_goal(text).atoms, env)
            i += 1
    for j, text in enumerate(_SUBST_GOALS):
        goal = parse_goal(text)
        for k, bindings in enumerate(_HEAD_ENVS):
            env = BindingEnv({n: parse_term(t) for n, t in bindings.items()})
            lines = [f"goal {text} under {{{_result_text(env)}}}"]
            for goal2, env2, ref, ai in subst_step(goal, program, env):
                lines.append(f"su {ref} {ai} {goal2 is goal} counter "
                             f"{env2.counter} {{{_result_text(env2)}}}")
            cases[f"head/subst/{j}/{k}"] = "\n".join(lines)
    return cases


# ---------------------------------------------------------------------------


def all_cases() -> dict:
    return {**term_cases(), **program_cases(), **oracle_cases(),
            **pair_cases(), **rename_cases(), **parse_cases(), **cli_cases(),
            **moo_cases(), **referee_cases(), **proof_cases(),
            **print_cases(), **index_cases(), **stage_cases(),
            **observe_cases(), **colp_cases(), **key_cases(),
            **head_cases()}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_behaviour_digest():
    golden = json.loads(GOLDEN.read_text())
    cases = all_cases()
    assert list(cases) == list(golden), "the set of cases changed"
    for name, text in cases.items():
        if _digest(text) != golden[name]:
            raise AssertionError(
                f"first differing case: {name}\n-- now --\n{text}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    GOLDEN.parent.mkdir(exist_ok=True)
    digests = {name: _digest(text) for name, text in all_cases().items()}
    GOLDEN.write_text(json.dumps(digests, indent=0) + "\n")
    print(f"wrote {len(digests)} cases to {GOLDEN}")

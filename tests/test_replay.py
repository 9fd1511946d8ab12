"""Every answer's derivation replayed from its trace (``tests/replay.py``):
on the engine differential tests' random programs, on the golden ``solve
--trace`` cases, and on ``len`` at 2,000 cells under each engine."""

import random

import pytest

from genprog import random_atom, random_program
from replay import replay
from test_cli import GOLDEN

from hornlog import cli
from hornlog.cli import main
from hornlog.engine import Budget, colp_solve, sld_solve, sres_solve
from hornlog.syntax import parse_goal, parse_program
from hornlog.terms import Goal

ENGINES = {"sld": sld_solve, "colp": colp_solve, "sres": sres_solve}


def _cases():
    """The random programs and goals of ``test_trace_changes_nothing_but_
    the_trace`` and of ``test_colp_skips_only_ancestors_that_cannot_unify``,
    each with its budget, after four whose answers need no occurs check."""
    trace_budget = Budget(max_steps=300, max_depth=40, max_rewrite_steps=60,
                          max_subst_steps=60, max_answers=5)
    for program, goal in [("eq(X, X).", "eq(Y, f(Y))"),
                          ("p(X, f(X)). p(a, b).", "p(Y, Y)"),
                          ("q(X, g(X, Y), Y).", "q(A, A, B), q(B, C, C)"),
                          ("zeros(cons(0, X)) :- zeros(X).", "zeros(X)")]:
        yield parse_program(program), parse_goal(goal), trace_budget
    for seed in range(300):
        rng = random.Random(seed)
        yield random_program(rng), Goal((random_atom(rng),)), trace_budget
    rng = random.Random(2006)
    for _ in range(400):
        yield (random_program(rng), Goal((random_atom(rng),)),
               Budget(max_steps=300, max_depth=40, max_answers=20))


@pytest.mark.parametrize("engine, most", [
    ("sld", 150), ("colp", 0), ("sres", 60),
])
def test_every_answer_of_the_random_programs_replays(engine, most):
    answers = 0
    kinds = set()
    for p, g, budget in _cases():
        options = [{"occurs_check": True}, {"occurs_check": False}] \
            if engine == "sld" else [{}]
        for extra in options:
            verdict = ENGINES[engine](g, p, budget, trace=True, **extra)
            for answer in verdict.answers:
                replay(g, p, engine, answer, lazy_k=3, **extra)
                answers += 1
                kinds.add(answer.kind)
    assert answers >= most, answers
    assert len(kinds) >= 2, kinds


def _recording(monkeypatch):
    """Swap the solvers the CLI calls for ones that record each call."""
    calls = []
    for engine, solve in ENGINES.items():
        def recording(goal, program, budget, _engine=engine, _solve=solve,
                      **kwargs):
            verdict = _solve(goal, program, budget, **kwargs)
            calls.append((_engine, goal, program, kwargs, verdict))
            return verdict
        monkeypatch.setattr(cli, f"{engine}_solve", recording)
    return calls


def test_every_answer_of_the_golden_traces_replays(monkeypatch, capsys):
    calls = _recording(monkeypatch)
    traced = [argv for argv, *_ in GOLDEN
              if argv[0] == "solve" and "--trace" in argv]
    assert len(traced) >= 30
    for argv in traced:
        main(list(argv))
    capsys.readouterr()
    assert len(calls) == len(traced)
    answers = 0
    for engine, goal, program, kwargs, verdict in calls:
        for answer in verdict.answers:
            replay(goal, program, engine, answer,
                   kwargs.get("occurs_check", True), kwargs.get("lazy_k"))
            answers += 1
    assert answers >= 20


@pytest.mark.parametrize("engine, options", [
    ("sld", {}), ("colp", {}), ("sres", {"lazy_k": None}),
])
def test_len_of_2000_cells_replays(engine, options):
    n = 2000
    p = parse_program("len([], z). len([_|T], s(N)) :- len(T, N).")
    g = parse_goal("len([" + ", ".join(["a"] * n) + "], N)")
    verdict = ENGINES[engine](g, p, Budget(max_steps=10 * n, max_depth=10 * n,
                                           max_subst_steps=10 * n,
                                           max_answers=1),
                              trace=True, **options)
    assert verdict.kind == "answers"
    (answer,) = verdict.answers
    assert len(answer.trace) == (2 * n + 2 if engine == "sres" else n + 1)
    replay(g, p, engine, answer, lazy_k=options.get("lazy_k"))

import random

import pytest

from genprog import random_program, random_proof_goal
from hornlog.engine import (
    Budget,
    colp_solve,
    rewrite_normalize,
    sld_solve,
    sres_solve,
)
from hornlog.syntax import parse_goal, parse_program, parse_term, print_answer
from hornlog.terms import EMPTY_ENV, Goal, Var, rational_equal, resolve
from hornlog.transform import (
    TransformError,
    proof_measure,
    proof_vars,
    render_proof,
    strip_answer,
    transform_goal,
    transform_program,
)

SUBCLASS_AB = parse_program("""
subclass(X, X) :- class(X).
subclass(X, object) :- class(X).
subclass(X, Z) :- extends(X, Y), subclass(Y, Z).
class(object).
class(a).
extends(a, object).
""")
ZEROS = parse_program("zeros(cons(0, X)) :- zeros(X).")
EX3 = parse_program("p(f(X)) :- p(X). q(X) :- q(X).")


def test_transform_subclass_clause_shapes():
    tp = transform_program(SUBCLASS_AB)
    expected = parse_program("""
    subclass(X, X, k$1(X$1)) :- class(X, X$1).
    subclass(X, object, k$2(X$1)) :- class(X, X$1).
    subclass(X, Z, k$3(X$1, X$2)) :- extends(X, Y, X$1), subclass(Y, Z, X$2).
    class(object, k$4).
    class(a, k$5).
    extends(a, object, k$6).
    """)
    assert tp.program.clauses == expected.clauses


def test_transform_ex3_clause_shapes():
    tp = transform_program(EX3)
    expected = parse_program("""
    p(f(X), k$1(X$1)) :- p(X, X$1).
    q(X, k$2(X$1)) :- q(X, X$1).
    """)
    assert tp.program.clauses == expected.clauses


def test_transform_empty_program():
    tp = transform_program(parse_program(""))
    assert tp.program.clauses == ()
    assert tp.back_map == {}


def test_back_map_points_at_source_clauses():
    tp = transform_program(ZEROS)
    src = tp.back_map["k$1"]
    assert src.head.pred == "zeros"
    assert len(src.head.args) == 1  # untransformed head


@pytest.mark.parametrize("bad", [
    "p(k$1(X)).",
    "p(X) :- q(k$9).",
    "k$p(a).",
    "p(X$1).",
])
def test_transform_rejects_reserved_names(bad):
    with pytest.raises(TransformError):
        transform_program(parse_program(bad))


@pytest.mark.parametrize("ok", [
    "p(bank$1).",
    "p(MAX$1) :- q(MAX$1).",
    "r(ok$2).",
])
def test_transform_accepts_a_reserved_prefix_inside_a_name(ok):
    # Only names starting with ``k$``, ``K$`` or ``X$`` are reserved.
    tp = transform_program(parse_program(ok))
    assert [c.head.pred for c in tp.program.clauses] == [ok[0]]


def test_transform_goal_accepts_a_reserved_prefix_inside_a_name():
    g = transform_goal(parse_goal("q(MAX$1)"))
    assert g.atoms[0].args == (Var("MAX$1"), Var("K$1"))


def test_transform_goal_appends_distinct_proof_vars():
    g = transform_goal(parse_goal("extends(A, B), subclass(B, C)"))
    assert g.atoms[0].args[-1] == Var("K$1")
    assert g.atoms[1].args[-1] == Var("K$2")
    assert proof_vars(g) == ("K$1", "K$2")
    assert transform_goal(Goal(())) == Goal(())


def test_transform_goal_rejects_reserved_names():
    with pytest.raises(TransformError):
        transform_goal(parse_goal("p(K$1)"))


def test_transformed_goal_is_rewriting_normal_form():
    tp = transform_program(SUBCLASS_AB)
    goal = transform_goal(parse_goal("subclass(A, B)"))
    res = rewrite_normalize(goal, tp.program)
    assert res.status == "normal_form"
    assert res.steps == 0
    assert res.goal.atoms == goal.atoms


def test_sres_on_transformed_subclass_total_answer_with_proof():
    tp = transform_program(SUBCLASS_AB)
    goal = transform_goal(parse_goal("subclass(a, object)"))
    verdict = sres_solve(goal, tp.program, lazy_k=6)
    assert verdict.kind == "answers"
    first = verdict.answers[0]
    assert first.kind == "total"
    assert resolve(first.bindings, Var("K$1")) == parse_term("k$2(k$5)")


def test_strip_answer_drops_proof_bindings():
    tp = transform_program(SUBCLASS_AB)
    goal = transform_goal(parse_goal("subclass(a, T)"))
    verdict = sres_solve(goal, tp.program, lazy_k=6)
    first = verdict.answers[0]
    stripped = strip_answer(first)
    assert stripped.goal_vars == ("T",)
    assert "K$1" not in stripped.bindings
    assert resolve(stripped.bindings, Var("T")) == parse_term("a")


def test_strip_transformed_zeros_equals_plain_coinductive_answer():
    tp = transform_program(ZEROS)
    goal = transform_goal(parse_goal("zeros(X)"))
    verdict = colp_solve(goal, tp.program, Budget(max_answers=1))
    stripped = strip_answer(verdict.answers[0])
    assert stripped.kind == "rational"
    plain = colp_solve(parse_goal("zeros(X)"), ZEROS,
                       Budget(max_answers=1)).answers[0]
    assert rational_equal(Var("X"), Var("X"), stripped.bindings, plain.bindings)
    assert print_answer(stripped, style="mu") == "X = cons(0, X)"


def test_render_proof_two_node_tree():
    tp = transform_program(SUBCLASS_AB)
    text = render_proof(parse_term("k$2(k$5)"), tp)
    assert text.splitlines() == [
        "clause 2: subclass(X, object)",
        "  clause 5: class(a)",
    ]


def test_render_proof_leaf_and_unfinished():
    tp = transform_program(SUBCLASS_AB)
    assert render_proof(parse_term("k$5"), tp) == "clause 5: class(a)"
    assert render_proof(Var("K$1"), tp) == "⟨unfinished⟩"
    partial = render_proof(parse_term("k$2(X)"), tp)
    assert partial.splitlines()[1].strip() == "⟨unfinished⟩"


def test_render_proof_rational_back_reference():
    tp = transform_program(ZEROS)
    env = EMPTY_ENV.bind("P", parse_term("k$1(P)"))
    text = render_proof(Var("P"), tp, env)
    lines = text.splitlines()
    assert lines[0].startswith("clause 1: zeros")
    assert lines[1].strip() == "↻ k$1"


def test_proof_measure_counts_proof_positions_only():
    tp = transform_program(SUBCLASS_AB)
    g = parse_goal("subclass(a, object, k$2(k$5))")
    assert proof_measure(g.atoms) == 2
    assert proof_measure(parse_goal("subclass(a, object, P)").atoms) == 0


def test_proof_measure_rejects_rational_proofs():
    env = EMPTY_ENV.bind("P", parse_term("k$1(P)"))
    with pytest.raises(ValueError):
        proof_measure(parse_goal("zeros(X, P)").atoms, env)


def test_rewriting_ground_proof_decreases_measure_to_empty():
    tp = transform_program(SUBCLASS_AB)
    g = parse_goal("subclass(a, object, k$2(k$5))")
    measures = [proof_measure(g.atoms)]
    res = rewrite_normalize(
        g, tp.program,
        observer=lambda atoms, env: measures.append(proof_measure(atoms, env)))
    assert res.status == "normal_form"
    assert res.goal.atoms == ()
    assert measures == [2, 1, 0]


def test_rewriting_always_terminates_on_random_transformed_programs():
    rng = random.Random(20240817)
    for _ in range(25):
        tp = transform_program(random_program(rng))
        goal = random_proof_goal(rng, tp)
        measures = [proof_measure(goal.atoms)]
        res = rewrite_normalize(
            goal, tp.program, b=Budget(max_rewrite_steps=3000),
            observer=lambda atoms, env: measures.append(
                proof_measure(atoms, env)))
        assert res.status == "normal_form"
        assert all(a > b for a, b in zip(measures, measures[1:]))
        assert res.steps <= measures[0]


def test_render_proof_of_a_deep_proof():
    n = 1200
    tp = transform_program(parse_program(
        "len([], z).\nlen([_|T], s(N)) :- len(T, N).\n"))
    goal = transform_goal(parse_goal(f"len([{', '.join('a' * n)}], N)"))
    verdict = sld_solve(goal, tp.program, Budget(max_depth=2 * n),
                        occurs_check=True)
    text = render_proof(Var("K$1"), tp, verdict.answers[0].bindings)
    lines = text.splitlines()
    assert lines[:2] == ["clause 2: len([_A0|T], s(N))",
                         "  clause 2: len([_A0|T], s(N))"]
    assert lines[n] == "  " * n + "clause 1: len([], z)"
    assert len(lines) == n + 1

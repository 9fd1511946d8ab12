"""Engine tests.

``ref_solve`` below is an independent SLD interpreter built on eager,
dictionary-based substitutions (no binding environments, no sharing).  It
only handles finite derivation trees, which is exactly what we want: the
engine's answers on inductive programs must agree with it.
"""

import random
import re
import sys
import tracemalloc
from pathlib import Path

import pytest

from genprog import random_atom, random_program, random_term

from hornlog.compiler import compile_class_table, compile_expr
from hornlog.engine import (
    Answer,
    Budget,
    Step,
    colp_solve,
    colp_step,
    productivity_report,
    rewrite_normalize,
    sld_solve,
    sld_step,
    sres_solve,
    subst_step,
)
from hornlog.minioo import parse_classes, parse_expr
from hornlog.syntax import (
    parse_goal,
    parse_program,
    parse_term,
    parse_trace_line,
    print_answer,
    term_text,
)
from hornlog import engine, terms
from hornlog.terms import (
    BindingEnv,
    Compound,
    EMPTY_ENV,
    Goal,
    Store,
    Var,
    canon_key,
    has_cycle,
    head_matches,
    rational_equal,
    rename_apart,
    resolve,
    unify_atoms,
    unify_head,
)

ZEROS = parse_program("zeros(cons(0, X)) :- zeros(X).")
EX3 = parse_program("p(f(X)) :- p(X). q(X) :- q(X).")
FROM = parse_program("from(X, [X|Y]) :- from(s(X), Y).")
ADD = parse_program("add(0, Y, Y). add(s(X), Y, s(Z)) :- add(X, Y, Z).")
SUBCLASS_RULES = """
subclass(X, X) :- class(X).
subclass(X, object) :- class(X).
subclass(X, Z) :- extends(X, Y), subclass(Y, Z).
"""
SUBCLASS = parse_program(SUBCLASS_RULES)
SUBCLASS_AB = parse_program(SUBCLASS_RULES + """
class(object).
class(a).
extends(a, object).
""")


# ---------------------------------------------------------------------------
# Reference SLD interpreter (oracle)


def ref_apply(t, s):
    if isinstance(t, Var):
        u = s.get(t.name)
        return t if u is None else ref_apply(u, s)
    return Compound(t.functor, tuple(ref_apply(a, s) for a in t.args))


def ref_unify(t1, t2, s):
    t1, t2 = ref_apply(t1, s), ref_apply(t2, s)
    if isinstance(t1, Var) and isinstance(t2, Var) and t1.name == t2.name:
        return s
    if isinstance(t1, Var):
        return dict(s, **{t1.name: t2})
    if isinstance(t2, Var):
        return dict(s, **{t2.name: t1})
    if t1.functor != t2.functor or len(t1.args) != len(t2.args):
        return None
    for a, b in zip(t1.args, t2.args):
        s = ref_unify(a, b, s)
        if s is None:
            return None
    return s


def ref_rename(term, tag):
    if isinstance(term, Var):
        return Var(term.name + tag)
    return Compound(term.functor, tuple(ref_rename(a, tag) for a in term.args))


def ref_solve(goal_text, program):
    goal = parse_goal(goal_text)
    frontier = [(list(goal.atoms), {})]
    answers = []
    tick = 0
    while frontier:
        atoms, s = frontier.pop()
        if not atoms:
            answers.append(s)
            continue
        head, *rest = atoms
        for clause in program.clauses:
            tick += 1
            tag = f"_r{tick}"
            h = ref_rename(Compound(clause.head.pred, clause.head.args), tag)
            g = Compound(head.pred, head.args)
            if h.functor != g.functor or len(h.args) != len(g.args):
                continue
            s2 = ref_unify(h, g, s)
            if s2 is None:
                continue
            body = [ref_rename(Compound(b.pred, b.args), tag) for b in clause.body]
            frontier.append(([_as_atom(b) for b in body] + rest, s2))
        assert tick < 100000, "oracle runaway"
    return answers


def _as_atom(t):
    from hornlog.terms import Atom
    return Atom(t.functor, t.args)


def ref_answer_keys(goal_text, program):
    goal = parse_goal(goal_text)
    tmpl = Compound("$ans", tuple(Compound(a.pred, a.args) for a in goal.atoms))
    return sorted(canon_key(ref_apply(tmpl, s))
                  for s in ref_solve(goal_text, program))


def engine_answer_keys(verdict, goal_text):
    goal = parse_goal(goal_text)
    tmpl = Compound("$ans", tuple(Compound(a.pred, a.args) for a in goal.atoms))
    return sorted(canon_key(tmpl, a.bindings) for a in verdict.answers)


# ---------------------------------------------------------------------------
# Single steps


def test_sld_step_zeros_single_child():
    children = sld_step(parse_goal("zeros(X)").atoms, EMPTY_ENV, ZEROS)
    assert len(children) == 1
    atoms, env, kind, ref = children[0]
    assert [a.pred for a in atoms] == ["zeros"]
    assert (kind, ref) == ("sld", 1)
    bound = resolve(env, Var("X"), 1)
    assert bound.functor == "cons"
    assert bound.args[0] == Compound("0")
    assert isinstance(env.walk(bound.args[1]), Var)


def test_sld_step_subclass_two_children():
    children = sld_step(parse_goal("subclass(a, object)").atoms, EMPTY_ENV,
                        SUBCLASS)
    assert len(children) == 2
    first, second = children
    assert first[2:] == ("sld", 2)
    assert [a.pred for a in first[0]] == ["class"]
    assert resolve(first[1], first[0][0].args[0]) == Compound("a")
    assert second[2:] == ("sld", 3)
    assert [a.pred for a in second[0]] == ["extends", "subclass"]


def test_sld_step_fact_removes_atom():
    p = parse_program("r(a).")
    children = sld_step(parse_goal("r(a)").atoms, EMPTY_ENV, p)
    assert len(children) == 1
    assert children[0][0] == ()


def test_sld_step_dead_end_is_empty_list():
    assert sld_step(parse_goal("nothing(a)").atoms, EMPTY_ENV, ZEROS) == []


def _colp_children(atoms, env, path, p) -> list:
    """``colp_step``'s children on a store made from ``env``, each as
    ``(atoms, env2, kind, ref)`` with an environment of its own."""
    store = Store(env)
    return engine._frozen(env, store, colp_step(atoms, store, path, p)[0])


def test_colp_step_prefers_most_recent_ancestor():
    p = parse_program("g(s(X)) :- g(X).")
    atoms, env, path = parse_goal("g(A)").atoms, EMPTY_ENV, []
    for occurs_check in (True, False):
        atoms2, env, kind, ref = sld_step(atoms, env, p, occurs_check)[0]
        path.append(Step(kind, ref, 0, atoms[0], None))
        atoms = atoms2
    children = _colp_children(atoms, env, path, p)
    assert [c[2:] for c in children[:2]] == [("hyp", 1), ("hyp", 2)]
    assert children[-1][2:] == ("sld", 1)


def test_colp_step_closes_on_ancestors_of_its_own_predicate_and_arity():
    # A hand-built branch interleaving p/1, p/2 and q/1, root first, with no
    # fingerprints: each selected atom closes only on the ancestors of its
    # own predicate and arity that unify, most recent first, ``ref`` steps
    # back.  The children are those the key-comparing step gave.
    p = parse_program("p(a). p(X, Y) :- q(X). q(b).")
    path = [Step("sld", 1, 0, a, None)
            for a in parse_goal("p(A), q(A), p(A, B), p(f(C)), q(b), p(B, B), "
                                "p(g(D)), q(E)").atoms]
    env = BindingEnv({"E": parse_term("h(B)")}, counter=5)
    want = {
        "p(f(Y))": [("hyp", 5, "(f(Y))"), ("hyp", 8, "(f(Y))")],
        "p(Y, c)": [("hyp", 3, "(c, c)"), ("hyp", 6, "(Y, c)"),
                    ("sld", 2, "(Y, c)")],
        "q(c)": [("hyp", 7, "(c)")],
        "q(h(c))": [("hyp", 1, "(h(c))"), ("hyp", 7, "(h(c))")],
    }
    for text, children in want.items():
        atoms = parse_goal(text).atoms
        assert [(kind, ref,
                 term_text(resolve(env2, Compound("", atoms[0].args))))
                for _, env2, kind, ref in _colp_children(atoms, env, path, p)] \
            == children


def _loop_children(children) -> list:
    return [(ref, env2.counter,
             [(name, term_text(t)) for name, t in env2.bindings.items()])
            for ref, env2 in children]


def test_siblings_start_from_the_variable_loop_their_parent_had():
    # X -> Y -> X is a loop, collapsed to X, so X counts as unbound: each
    # head of p overwrites X in its own child, and the next child starts
    # from the loop again, X first, as the parent holds it.
    p = parse_program("p(a). p(f(Z)). p(b).")
    env = BindingEnv({"X": Var("Y"), "Y": Var("X")})
    want = [(ref, counter, [("X", text), ("Y", "X")])
            for ref, counter, text in [(1, 0, "a"), (2, 1, "f(V0)"),
                                       (3, 0, "b")]]
    g = parse_goal("p(X)")
    assert _loop_children((ref, env2) for _, env2, _, ref
                          in sld_step(g.atoms, env, p)) == want
    assert _loop_children((ref, env2) for _, env2, ref, _
                          in subst_step(g, p, env)) == want
    assert list(env.bindings.items()) == [("X", Var("Y")), ("Y", Var("X"))]


def test_colp_hyp_siblings_that_bind_nothing_share_one_answer():
    # q(V2) closes on both q ancestors binding nothing, and so does q(V3)
    # on all three: those answers share the previous answer's bindings and
    # kind, which tells the CLI it has printed them already.
    p = parse_program("p(f(X)) :- p(X), q(X). q(Y) :- q(Y).")
    verdict = colp_solve(parse_goal("p(X)"), p,
                         Budget(max_steps=40, max_answers=6), trace=True)
    answers = verdict.answers
    assert [(a.kind, a.steps_used, print_answer(a, "mu"))
            for a in answers] == [("rational", 4, "X = f(X)"),
                                  ("rational", 5, "X = f(X)"),
                                  ("rational", 5, "X = f(X)"),
                                  ("rational", 6, "X = f(X)"),
                                  ("rational", 6, "X = f(X)"),
                                  ("rational", 6, "X = f(X)")]
    assert [a.trace[-1] for a in answers] == [
        f"#{n} hyp clause {ref} atom 0 σ={{}}"
        for n, ref in [(4, 1), (5, 1), (5, 2), (6, 1), (6, 2), (6, 3)]]
    assert [a.bindings is b.bindings for a, b in zip(answers, answers[1:])] \
        == [False, True, False, True, True]


# ---------------------------------------------------------------------------
# SLD / Co-LP search


def test_sld_solve_add_agrees_with_reference():
    text = "add(X, Y, s(s(0)))"
    verdict = sld_solve(parse_goal(text), ADD)
    assert verdict.kind == "answers"
    assert len(verdict.answers) == 3
    assert all(a.kind == "total" for a in verdict.answers)
    assert engine_answer_keys(verdict, text) == ref_answer_keys(text, ADD)


def test_sld_solve_first_answer_order():
    verdict = sld_solve(parse_goal("add(X, Y, s(s(0)))"), ADD)
    first = verdict.answers[0]
    assert resolve(first.bindings, Var("X")) == parse_term("0")
    assert resolve(first.bindings, Var("Y")) == parse_term("s(s(0))")


def test_sld_solve_ground_failure_is_failed():
    verdict = sld_solve(parse_goal("add(0, 0, s(0))"), ADD)
    assert verdict.kind == "failed"
    assert verdict.answers == []


def test_sld_solve_zeros_exhausts_budget():
    verdict = sld_solve(parse_goal("zeros(X)"), ZEROS, Budget(max_steps=50))
    assert verdict.kind == "exhausted"
    assert verdict.steps_used == 50


def test_sld_occurs_check_rejects_circular_solution():
    p = parse_program("eq(X, X).")
    verdict = sld_solve(parse_goal("eq(Y, f(Y))"), p)
    assert verdict.kind == "failed"


def test_colp_admits_circular_solution_as_rational():
    p = parse_program("eq(X, X).")
    verdict = colp_solve(parse_goal("eq(Y, f(Y))"), p)
    assert verdict.kind == "answers"
    ans = verdict.answers[0]
    assert ans.kind == "rational"
    assert has_cycle(ans.bindings, Var("Y"))


def test_colp_zeros_rational_answer():
    verdict = colp_solve(parse_goal("zeros(X)"), ZEROS, Budget(max_answers=1))
    assert verdict.kind == "answers"
    ans = verdict.answers[0]
    assert ans.kind == "rational"
    expected = EMPTY_ENV.bind("X", parse_term("cons(0, X)"))
    assert rational_equal(Var("X"), Var("X"), ans.bindings, expected)
    assert print_answer(ans, style="mu") == "X = cons(0, X)"


def test_colp_trace_hypothesis_after_one_expansion():
    verdict = colp_solve(parse_goal("zeros(X)"), ZEROS, Budget(max_answers=1),
                         trace=True)
    trace = verdict.answers[0].trace
    assert trace[0].startswith("#1 sld clause 1")
    assert trace[1].startswith("#2 hyp")
    assert [parse_trace_line(t)["n"] for t in trace] == [1, 2]


def test_colp_inductive_answers_match_sld():
    text = "add(X, Y, s(s(0)))"
    verdict = colp_solve(parse_goal(text), ADD)
    assert engine_answer_keys(verdict, text)[:3] == ref_answer_keys(text, ADD)


# ---------------------------------------------------------------------------
# Rewriting and substitution reductions


def test_rewrite_normalize_q_diverges():
    res = rewrite_normalize(parse_goal("q(X)"), EX3, b=Budget(max_rewrite_steps=40))
    assert res.status == "diverged"
    assert res.steps == 40
    assert res.witness and "q(" in res.witness[-1]


def test_rewrite_normalize_p_is_normal_form():
    res = rewrite_normalize(parse_goal("p(X)"), EX3)
    assert res.status == "normal_form"
    assert res.steps == 0
    assert [a.pred for a in res.goal.atoms] == ["p"]


def test_rewrite_normalize_solves_ground_goal():
    res = rewrite_normalize(parse_goal("subclass(a, object)"), SUBCLASS_AB)
    assert res.status == "normal_form"
    assert res.goal.atoms == ()
    assert res.steps == 2


def test_rewrite_normalize_names_the_clause_past_the_goal():
    # The clause's fresh names start past the goal's literal V0, so the
    # match binds the clause's variables and leaves the goal's V0 unbound.
    res = rewrite_normalize(parse_goal("p(a, V0)"),
                            parse_program("p(X, Y) :- q(X, Y)."))
    assert res.status == "normal_form" and res.steps == 1
    assert "V0" not in res.env
    (q,) = res.goal.atoms
    assert [res.env.walk(t) for t in q.args] == [Compound("a"), Var("V0")]


def test_rewrite_normalize_trace_lines():
    res = rewrite_normalize(parse_goal("subclass(a, object)"), SUBCLASS_AB,
                            collect_trace=True)
    assert len(res.trace) == 2
    assert parse_trace_line(res.trace[0])["kind"] == "rw"
    assert parse_trace_line(res.trace[0])["clause"] == 2


def test_subst_step_excludes_matching_clauses():
    p = parse_program("p(f(X)) :- p(X). p(X) :- r(X).")
    options = subst_step(parse_goal("p(Y)"), p)
    assert len(options) == 1
    goal, env, clause_idx, atom_index = options[0]
    assert clause_idx == 1 and atom_index == 0
    assert [a.pred for a in goal.atoms] == ["p"]  # goal shape untouched
    assert resolve(env, Var("Y"), 1).functor == "f"


def test_subst_step_selects_leftmost_eligible_atom():
    p = parse_program("p(f(X)) :- p(X). q(g(X)) :- q(X).")
    # p(f(Y)) only matches (no unify-without-match), so the eligible atom
    # is q(Z) at index 1.
    options = subst_step(parse_goal("p(f(Y)), q(Z)"), p)
    assert options and options[0][3] == 1


def test_subst_step_fails_goal_containing_dead_atom():
    # dead(Z) unifies with no clause head, and no instantiation of Z can
    # change that, so the whole goal is unsatisfiable: no options at all.
    p = parse_program("p(f(X)) :- p(X).")
    assert subst_step(parse_goal("dead(Z), p(Y)"), p) == []
    assert subst_step(parse_goal("p(Y), dead(Z)"), p) == []


def test_subst_step_past_the_chosen_atom_asks_only_liveness(monkeypatch):
    # Once p(Y) has given the options, each later atom is unified with its
    # selected heads only until one unifies: once for q(Z) and r(b, W),
    # whose first head unifies, twice for s(g(c)), whose first does not.
    p = parse_program("p(f(X)) :- p(X). q(X) :- q(X). q(b). "
                      "s(g(b)). s(X). s(g(X)). r(X, Y). r(b, c).")
    g = parse_goal("p(Y), q(Z), s(g(c)), r(b, W)")
    calls = []
    real = engine.unify_head

    def counting(clause, atom, env, *args):
        calls.append(atom)
        return real(clause, atom, env, *args)

    monkeypatch.setattr(engine, "unify_head", counting)
    options = subst_step(g, p)
    assert [o[2:] for o in options] == [(1, 0)]
    assert [sum(a is b for b in calls) for a in g.atoms[1:]] == [1, 2, 1]


def test_subst_step_asks_later_atoms_under_the_goals_own_bindings():
    # Both heads of p give p(Y) an option, binding Y to a and to b; q(Y) is
    # alive under the goal's own bindings, where q(a) unifies, whichever
    # option was bound last.
    p = parse_program("p(a). p(b). q(a).")
    g = parse_goal("p(Y), q(Y)")
    assert [o[2:] for o in subst_step(g, p)] == [(1, 0), (2, 0)]
    verdict = sres_solve(g, p)
    assert [term_text(a.binding("Y")) for a in verdict.answers] == ["a"]


def _reference_subst_step(g, p, env) -> list:
    """``subst_step`` on immutable environments, as it was before the
    store: a unifier that bound or overwrote only the head's fresh names
    gives an option only where the head does not match."""
    best = []
    for ai, atom in enumerate(g.atoms):
        options, alive = [], False
        for clause in p.select(atom, env):
            resolved = unify_head(clause, atom, env)
            if resolved is None:
                continue
            alive = True
            if best:
                break
            ren, u = resolved
            bound = {name for name, t in u.bindings.items()
                     if env.bindings.get(name) is not t}
            if (bound - {v.name for v in ren.values()}
                    or not head_matches(clause.head, atom, env)):
                options.append((g, u, clause.idx, ai))
        if not alive:
            return []
        if options and not best:
            best = options
    return best


def test_subst_step_agrees_with_the_immutable_reference():
    # Random programs, goals of one to three atoms, and environments with
    # cycles and variable loops: the same options, each with the same
    # bindings in the same order and the same counter.
    rng = random.Random(32)
    options = multi = 0
    for seed in range(2000):
        p = random_program(rng, max_clauses=8)
        bindings = {n: random_term(rng) for n in ("X", "Y", "Z")
                    if rng.random() < 0.4}
        if seed % 4 == 0:  # a variable loop X -> Y -> X
            bindings.update(X=Var("Y"), Y=Var("X"))
        env = BindingEnv(bindings, counter=seed % 3)
        g = Goal(tuple(random_atom(rng) for _ in range(1 + seed % 3)))
        got, want = (
            [(ref, ai, list(e.bindings.items()), e.counter)
             for _, e, ref, ai in step(g, p, env)]
            for step in (subst_step, _reference_subst_step))
        assert got == want, (seed, g, env)
        options += len(got)
        multi += len(got) > 1 and len(g.atoms) > 1
    assert options >= 250 and multi >= 30


def test_subst_step_no_options_on_rigid_goal():
    assert subst_step(parse_goal("p(f(Y))"), EX3) == []  # f(Y) only matches


# ---------------------------------------------------------------------------
# Structural resolution


def test_sres_ground_subclass_total_answer():
    verdict = sres_solve(parse_goal("subclass(a, object)"), SUBCLASS_AB)
    assert verdict.kind == "answers"
    assert verdict.answers[0].kind == "total"
    assert print_answer(verdict.answers[0], style="flat") == "true"


def test_sres_empty_goal_beats_lazy_cut():
    verdict = sres_solve(parse_goal("subclass(a, object)"), SUBCLASS_AB, lazy_k=0)
    assert verdict.answers[0].kind == "total"


def test_sres_from_partial_answer_three_layers():
    verdict = sres_solve(parse_goal("from(0, X)"), FROM, lazy_k=3)
    assert verdict.kind == "answers"
    ans = verdict.answers[0]
    assert ans.kind == "partial"
    shown = print_answer(ans, style="lazy")
    assert re.fullmatch(r"X = \[0\|\[s\(0\)\|\[s\(s\(0\)\)\|V\d+\?\]\]\]", shown)


def test_sres_subclass_not_universally_observable():
    verdict = sres_solve(parse_goal("subclass(A, B)"), SUBCLASS_AB,
                         Budget(max_rewrite_steps=60))
    assert verdict.kind == "not_universally_observable"
    assert verdict.witness
    assert "extends(" in verdict.witness[-1]  # ever-growing extends chain


def test_sres_inductive_answers_match_sld():
    text = "add(X, Y, s(s(0)))"
    verdict = sres_solve(parse_goal(text), ADD, lazy_k=10)
    total = [a for a in verdict.answers if a.kind == "total"]
    assert len(total) == 3
    keys = sorted(canon_key(Compound(
        "$ans", tuple(Compound(x.pred, x.args)
                      for x in parse_goal(text).atoms)), a.bindings) for a in total)
    assert keys == ref_answer_keys(text, ADD)


def test_sres_trace_interleaves_su_and_rw():
    verdict = sres_solve(parse_goal("from(0, X)"), FROM, lazy_k=2, trace=True)
    kinds = [parse_trace_line(t)["kind"] for t in verdict.answers[0].trace]
    assert kinds == ["su", "rw", "su", "rw"]
    numbers = [parse_trace_line(t)["n"] for t in verdict.answers[0].trace]
    assert numbers == [1, 2, 3, 4]


# ---------------------------------------------------------------------------
# Productivity evidence


def test_productivity_p_observable_and_productive():
    report = productivity_report(parse_goal("p(X)"), EX3,
                                 Budget(max_steps=100, max_subst_steps=20))
    assert report.observable
    assert report.liveness >= 3
    assert report.produced.get("f", 0) >= report.liveness - 1


def test_productivity_q_not_observable():
    report = productivity_report(parse_goal("q(X)"), EX3,
                                 Budget(max_rewrite_steps=50))
    assert not report.observable
    assert report.witness


def test_productivity_terminating_goal_not_live():
    report = productivity_report(parse_goal("subclass(a, object)"), SUBCLASS_AB)
    assert report.observable
    assert report.liveness == 0
    assert report.produced == {}


def test_productivity_counts_only_what_the_options_given_introduce():
    # p(V) has an option, binding V to f(b), but r(c) unifies with no head,
    # so the step gives none: nothing is introduced, though rewriting
    # t(f(a)) consumed an f.
    p = parse_program("t(f(X)) :- p(Y), r(c). p(f(b)). r(b).")
    report = productivity_report(parse_goal("t(f(a))"), p)
    assert (report.observable, report.liveness, report.produced) == \
        (True, 0, {})


def _report_walks(monkeypatch, n):
    walks = []
    real = terms._walk
    monkeypatch.setattr(terms, "_walk",
                        lambda b, t: walks.append(t) or real(b, t))
    p = parse_program("len([], z). len([_|T], s(N)) :- len(T, N).")
    g = parse_goal("len([" + ", ".join(["a"] * n) + "], N)")
    report = productivity_report(g, p)
    monkeypatch.setattr(terms, "_walk", real)
    assert report.observable and report.liveness == n + 1
    return len(walks)


def test_productivity_report_of_len_walks_no_goal_per_branch(monkeypatch):
    # Which names a substitution step bound, and whether they belong to the
    # goal, is read off the step's environment and the fresh-name counter.
    # Walking the whole goal at every branch grew the walks from 28,220 to
    # 101,420 when n doubled from 150.
    ratio = _report_walks(monkeypatch, 300) / _report_walks(monkeypatch, 150)
    assert ratio < 2.5


# ---------------------------------------------------------------------------
# Tracing is observation only


def _answer_keys(verdict):
    return [(a.kind, a.steps_used,
             canon_key(Compound("$ans", tuple(Var(n) for n in a.goal_vars)),
                       a.bindings))
            for a in verdict.answers]


@pytest.mark.parametrize("solve", [sld_solve, colp_solve, sres_solve],
                         ids=["sld", "colp", "sres"])
def test_trace_changes_nothing_but_the_trace(solve):
    budget = Budget(max_steps=300, max_depth=40, max_rewrite_steps=60,
                    max_subst_steps=60, max_answers=5)
    extra = {} if solve is sres_solve else {"certificate": True}
    with_answers = 0
    for seed in range(300):
        rng = random.Random(seed)
        p = random_program(rng)
        g = Goal((random_atom(rng),))
        plain = solve(g, p, budget)
        traced = solve(g, p, budget, trace=True, **extra)
        assert (traced.kind, traced.steps_used, traced.witness) == \
            (plain.kind, plain.steps_used, plain.witness)
        assert _answer_keys(traced) == _answer_keys(plain)
        for answer in traced.answers:
            numbers = [parse_trace_line(t)["n"] for t in answer.trace]
            assert numbers == list(range(1, len(answer.trace) + 1))
            if extra:
                assert len(answer.selected) == len(answer.trace)
        with_answers += bool(plain.answers)
    assert with_answers >= 20


@pytest.mark.parametrize("solve, n, options, limit_mb", [
    (sld_solve, 300, {}, 1.5),
    (colp_solve, 150, {}, 0.6),
    (sres_solve, 300, {"lazy_k": None, "trace": True}, 6.0),
], ids=["sld", "colp", "sres-traced"])
def test_steps_hold_no_environments(solve, n, options, limit_mb):
    # A Step keeps its atom and, when traced, what its line prints.  Steps
    # that held the environments around them peaked at about 4.2, 1.1 and
    # 16 MB on these runs (Python 3.11).
    p = parse_program("len([], z). len([_|T], s(N)) :- len(T, N).")
    g = parse_goal("len([" + ", ".join(["a"] * n) + "], N)")
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        verdict = solve(g, p, Budget(max_answers=1), **options)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert verdict.kind == "answers"
    assert peak < limit_mb * 1e6


def test_a_step_is_built_only_when_something_reads_it(monkeypatch):
    # Observability costs nothing when off: without a trace or a
    # certificate, only colp, which reads its ancestors off the branch,
    # builds steps.
    n = 50
    p = parse_program("len([], z). len([_|T], s(N)) :- len(T, N).")
    g = parse_goal("len([" + ", ".join(["a"] * n) + "], N)")
    built = 0

    def counting(*args, **kwargs):
        nonlocal built
        built += 1
        return Step(*args, **kwargs)

    monkeypatch.setattr(engine, "Step", counting)

    def steps(solve, **options):
        nonlocal built
        built = 0
        verdict = solve(g, p, Budget(max_answers=1), **options)
        assert verdict.kind == "answers"
        return built

    assert steps(sld_solve) == 0
    assert steps(sres_solve, lazy_k=None) == 0
    assert steps(colp_solve) >= n + 1
    assert steps(sld_solve, certificate=True) >= n + 1


# ---------------------------------------------------------------------------
# Unification on generated programs, and the cost of colp's ancestor checks


def test_successful_unify_gives_rational_equal_sides():
    successes = 0
    for seed in range(300):
        rng = random.Random(seed)
        p = random_program(rng)
        goal = random_atom(rng)
        env = EMPTY_ENV
        # unify each renamed head and body atom with the goal in one growing
        # environment, so later calls meet cyclic and ground bindings
        for clause in p.clauses:
            rc, env = rename_apart(clause, env)
            for atom in (rc.head,) + rc.body:
                u = unify_atoms(atom, goal, env)
                if u is None:
                    continue
                successes += 1
                assert rational_equal(Compound(atom.pred, atom.args),
                                      Compound(goal.pred, goal.args), u, u)
                env = u
    assert successes >= 100


def _colp_len_walks(monkeypatch, n):
    calls = 0
    real = terms._walk

    def counting(bindings, t):
        nonlocal calls
        calls += 1
        return real(bindings, t)

    monkeypatch.setattr(terms, "_walk", counting)
    p = parse_program("len([], z). len([_|T], s(N)) :- len(T, N).")
    g = parse_goal("len([" + ", ".join(["a"] * n) + "], N)")
    verdict = colp_solve(g, p, Budget(max_steps=10 * n, max_depth=10 * n,
                                      max_answers=1))
    assert verdict.kind == "answers"
    monkeypatch.setattr(terms, "_walk", real)
    return calls


def test_colp_len_ancestor_checks_are_not_cubic(monkeypatch):
    # Each failing hypothesis attempt must cost O(1), not a walk of the
    # shared list suffix: doubling n then at most quadruples the walks
    # (cubic growth would multiply them by 8).
    ratio = _colp_len_walks(monkeypatch, 200) / _colp_len_walks(monkeypatch, 100)
    assert ratio < 5


# ---------------------------------------------------------------------------
# Clause selection by the first argument


def test_clause_selection_drops_only_clauses_that_cannot_unify():
    dropped = 0
    for seed in range(400):
        rng = random.Random(seed)
        p = random_program(rng, max_clauses=8)
        bindings = {n: random_term(rng) for n in ("X", "Y", "Z")
                    if rng.random() < 0.6}
        if seed % 4 == 0:  # a variable loop X -> Y -> X
            bindings.update(X=Var("Y"), Y=Var("X"))
        env = BindingEnv(bindings)
        for _ in range(4):
            atom = random_atom(rng)
            candidates = p.clauses_for(atom.key)
            kept = p.select(atom, env)
            assert list(kept) == [c for c in candidates
                                  if any(c is k for k in kept)]
            for c in candidates:
                if any(c is k for k in kept):
                    continue
                dropped += 1
                rc, env2 = rename_apart(c, env)
                for oc in (False, True):
                    assert unify_atoms(rc.head, atom, env2, oc) is None
    assert dropped > 300


@pytest.mark.parametrize("solve, options, most", [
    (sld_solve, {}, lambda n: n + 1),
    (colp_solve, {}, lambda n: n + 1),
    (sres_solve, {"lazy_k": None}, lambda n: 2 * n + 2),
], ids=["sld", "colp", "sres"])
def test_len_renames_no_clause_its_first_argument_rules_out(
        monkeypatch, solve, options, most):
    # One body copy per cell: sld and colp copy it as they resolve, sres in
    # the rewrite after each substitution step, which copies no body.  The
    # bounds are those the whole-clause renames met; renaming every clause
    # of the predicate took 2n + 2 and 6n + 5.
    n = 200
    calls = 0
    real = engine.rename_body

    def counting(clause, ren):
        nonlocal calls
        calls += 1
        return real(clause, ren)

    monkeypatch.setattr(engine, "rename_body", counting)
    p = parse_program("len([], z). len([_|T], s(N)) :- len(T, N).")
    g = parse_goal("len([" + ", ".join(["a"] * n) + "], N)")
    verdict = solve(g, p, Budget(max_answers=1), **options)
    assert verdict.kind == "answers"
    assert 0 < calls <= most(n)


def test_sres_len_walks_at_most_two_heads_per_cell_to_match(monkeypatch):
    # Per cell, the rewrite after the substitution step walks the head that
    # matches and then the head that does not; the substitution step's
    # unifier tells the head apart from one that matches.  Asking
    # head_matches in the substitution step as well took 3 walks per cell.
    n = 200
    calls = 0
    names = ("match_head", "head_matches")
    reals = {name: getattr(engine, name) for name in names}

    def counting(real):
        def count(*args):
            nonlocal calls
            calls += 1
            return real(*args)
        return count

    for name, real in reals.items():
        monkeypatch.setattr(engine, name, counting(real))
    p = parse_program("len([], z). len([_|T], s(N)) :- len(T, N).")
    g = parse_goal("len([" + ", ".join(["a"] * n) + "], N)")
    verdict = sres_solve(g, p, Budget(max_answers=1), lazy_k=None)
    assert verdict.kind == "answers"
    assert 0 < calls <= 2 * n + 2


def _entries_copied_per_step(monkeypatch, solve, n, options) -> float:
    """Binding entries that ``terms`` copies per step of ``solve`` on
    ``len`` with ``n`` cells, counted by a ``dict`` in ``terms``' namespace
    that adds up what each one is built from."""
    copied = 0

    class Counting(dict):
        def __init__(self, *args, **kwargs):
            nonlocal copied
            super().__init__(*args, **kwargs)
            copied += len(self)

    monkeypatch.setattr(terms, "dict", Counting, raising=False)
    p = parse_program("len([], z). len([_|T], s(N)) :- len(T, N).")
    g = parse_goal("len([" + ", ".join(["a"] * n) + "], N)")
    verdict = solve(g, p, Budget(max_steps=10 * n, max_depth=10 * n,
                                 max_subst_steps=10 * n, max_answers=1),
                    **options)
    monkeypatch.delattr(terms, "dict")
    assert verdict.kind == "answers"
    return copied / verdict.steps_used


@pytest.mark.parametrize("solve, options", [
    (sld_solve, {}), (sres_solve, {"lazy_k": None}),
], ids=["sld", "sres"])
def test_binding_entries_copied_per_step_stay_flat(monkeypatch, solve,
                                                   options):
    # A step binds into the search's one store: it copies no binding dict,
    # so its cost does not grow with its branch.  Copying a step's dict on
    # its first binding cost about n / 2 entries per step.
    small, large = (_entries_copied_per_step(monkeypatch, solve, n, options)
                    for n in (250, 2000))
    assert large <= 1.25 * small


# ---------------------------------------------------------------------------
# colp: ancestors rejected by their ground fingerprints


def _failed_ancestor_unifications(monkeypatch, solve) -> int:
    """Failed ``unify_atoms`` calls in ``engine``: the ancestor checks of
    ``colp``, since clause heads are resolved by ``unify_head`` and no
    longer reach ``unify_atoms``."""
    failed = 0
    real_unify = engine.unify_atoms

    def unifying(a1, a2, env, occurs_check=False):
        nonlocal failed
        u = real_unify(a1, a2, env, occurs_check)
        if u is None:
            failed += 1
        return u

    monkeypatch.setattr(engine, "unify_atoms", unifying)
    solve()
    monkeypatch.setattr(engine, "unify_atoms", real_unify)
    return failed


def test_colp_from_unifies_no_ancestor_that_cannot_close_it(monkeypatch):
    # Every ancestor's stream starts at another s^k(0): 19,900 failed
    # unifications at depth 200 when each was walked.
    def solve():
        verdict = colp_solve(parse_goal("from(0, X)"), FROM,
                             Budget(max_depth=200))
        assert (verdict.kind, verdict.steps_used) == ("exhausted", 200)

    assert _failed_ancestor_unifications(monkeypatch, solve) == 0


def test_colp_call_chain_unifies_no_ancestor_that_cannot_close_it(
        monkeypatch):
    # The 30-call addLast chain: 9,897 of 10,391 ancestor unifications
    # failed when each was walked.
    source = (Path(__file__).resolve().parent.parent / "samples"
              / "lists.moo").read_text()
    unit = compile_class_table(parse_classes(source))
    goal, _ = compile_expr(parse_expr("new EList()" + ".addLast(1)" * 30), {})

    def solve():
        verdict = colp_solve(goal, unit.program, Budget(max_answers=10))
        assert verdict.kind == "answers"

    assert _failed_ancestor_unifications(monkeypatch, solve) == 0


def _unfiltered_colp_step(atoms, store, path, p):
    """``colp_step`` as it was before fingerprints: it unifies against
    every same-predicate ancestor, binding each child into the store in
    turn as ``colp_step`` does."""
    selected = atoms[0]
    rest = atoms[1:]
    mark = len(store.trail)
    children = []
    for back, anc in enumerate(reversed(path), 1):
        if anc.atom.key == selected.key:
            engine._park(store, children, mark)
            u = engine.unify_atoms(anc.atom, selected, store,
                                   occurs_check=False)
            if u is not None:
                children.append((rest, None, store.counter, "hyp", back))
    engine._park(store, children, mark)
    return engine._resolve(atoms, store, p, False, children)


def _colp_text(verdict) -> list:
    lines = [f"{verdict.kind} {verdict.steps_used}"]
    for a in verdict.answers:
        lines += [a.kind, str(a.steps_used), repr(a.bindings), *a.trace,
                  repr(a.full_env), repr(a.selected)]
    return lines


def test_colp_skips_only_ancestors_that_cannot_unify(monkeypatch):
    # colp against a colp that unifies every ancestor, on random programs
    # and the cyclic samples: the same search, answer for answer, with
    # fewer unifications.
    budget = Budget(max_steps=300, max_depth=40, max_answers=20)
    cases = [(ZEROS, parse_goal("zeros(X)")), (EX3, parse_goal("p(X)")),
             (FROM, parse_goal("from(0, X)")),
             (ADD, parse_goal("add(X, Y, s(s(s(0))))")),
             (SUBCLASS_AB, parse_goal("subclass(X, Y)"))]
    rng = random.Random(2006)
    cases += [(random_program(rng), Goal((random_atom(rng),)))
              for _ in range(400)]
    calls = 0
    real = engine.unify_atoms

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "unify_atoms", counting)
    texts = []
    for p, g in cases:
        texts.append(_colp_text(colp_solve(g, p, budget, trace=True,
                                           certificate=True)))
    skipping, calls = calls, 0
    swapped = 0

    def unfiltered(atoms, env, path, p, table):
        nonlocal swapped
        swapped += 1
        return _unfiltered_colp_step(atoms, env, path, p), None

    monkeypatch.setattr(engine, "colp_step", unfiltered)
    for (p, g), text in zip(cases, texts):
        assert _colp_text(colp_solve(g, p, budget, trace=True,
                                     certificate=True)) == text
    assert swapped > 0, ("colp_solve no longer calls engine.colp_step, so "
                         "this test compares the filtered step with itself")
    assert sum(any(" hyp " in line for line in t) for t in texts) >= 15
    assert skipping < calls - 1000


# ---------------------------------------------------------------------------
# colp: the branch's fingerprint table


def _build_list(max_steps: int):
    """colp on the paper's irrational type, ``buildList`` on lists.moo,
    which no hypothesis closes: the run ends at ``max_steps``."""
    source = (Path(__file__).resolve().parent.parent / "samples"
              / "lists.moo").read_text()
    unit = compile_class_table(parse_classes(source))
    goal, _ = compile_expr(parse_expr("new ListFact().buildList(n, "
                                      "new EList())"),
                           {"n": parse_term("int")})
    return colp_solve(goal, unit.program, Budget(max_steps=max_steps))


def _fp_walk_per_step(monkeypatch, solve) -> float:
    """Nodes ``_fp_under`` walks (pops off its stack) per step of the
    ``colp`` run ``solve`` gives, counted by profiling each call."""
    real = engine._fp_under
    pops = 0

    def profiler(frame, event, arg):
        nonlocal pops
        if (event == "c_call" and frame.f_code is real.__code__
                and arg.__name__ == "pop"):
            pops += 1

    def counting(*args):
        outer = sys.getprofile()
        sys.setprofile(profiler)
        try:
            return real(*args)
        finally:
            sys.setprofile(outer)

    monkeypatch.setattr(engine, "_fp_under", counting)
    verdict = solve()
    monkeypatch.setattr(engine, "_fp_under", real)
    assert verdict.kind == "exhausted"
    return pops / verdict.steps_used


def test_fp_under_walks_per_colp_step_stay_flat(monkeypatch):
    # A step walks what its ancestors had not found ground: on from(0, X),
    # 401 and 1,601 nodes a step at depth 400 and 1,600 without the table;
    # on buildList, 721 and 864 at 2,500 and 10,000 steps.
    small, large = (_fp_walk_per_step(monkeypatch, lambda: colp_solve(
        parse_goal("from(0, X)"), FROM, Budget(max_depth=depth)))
        for depth in (400, 1600))
    assert large <= 1.25 * small
    small, large = (_fp_walk_per_step(monkeypatch, lambda: _build_list(cap))
                    for cap in (2500, 10000))
    assert large <= 1.25 * small
    assert large <= 16


def test_tabled_fingerprints_equal_fresh_ones(monkeypatch):
    # Every fingerprint colp_step reads off the branch's table equals a
    # fresh walk under the step's env, and so does every entry the table
    # holds when the step is taken: on the swap test's programs (cyclic
    # answers among them), on buildList, and on a program whose sibling
    # branches ground one term of their common ancestor differently.
    real = engine._fp_under
    reads = checked = 0
    entries = True  # check every live entry too

    def checking(env, t, table):
        nonlocal reads, checked
        reads += bool(table)
        if entries:
            for node, fp in table.values():
                assert real(env, node) == fp
            checked += len(table)
        fp = real(env, t, table)
        assert fp == real(env, t)
        return fp

    monkeypatch.setattr(engine, "_fp_under", checking)
    budget = Budget(max_steps=300, max_depth=40, max_answers=20)
    cases = [(ZEROS, parse_goal("zeros(X)")), (EX3, parse_goal("p(X)")),
             (FROM, parse_goal("from(0, X)")),
             (ADD, parse_goal("add(X, Y, s(s(s(0))))")),
             (SUBCLASS_AB, parse_goal("subclass(X, Y)")),
             (parse_program("pick(a). pick(b). q(X) :- pick(X), s(f(X)). "
                            "s(f(a)). s(f(b))."), parse_goal("q(X)"))]
    rng = random.Random(2006)
    cases += [(random_program(rng), Goal((random_atom(rng),)))
              for _ in range(400)]
    kinds = [a.kind for p, g in cases
             for a in colp_solve(g, p, budget).answers]
    assert kinds.count("rational") >= 20 and reads > 500 and checked > 2000
    # buildList's table grows with its accumulator: check what is read
    entries, reads = False, 0
    assert _build_list(1000).kind == "exhausted"
    assert reads > 900


def test_every_answer_reads_its_own_branch():
    # The swap test's programs, traced with certificates: an answer's trace
    # and selected atoms come from one branch, and a hyp line closes on an
    # earlier step of that branch with the same predicate and arity.
    budget = Budget(max_steps=300, max_depth=40, max_answers=20)
    rng = random.Random(2006)
    cases = [(random_program(rng), Goal((random_atom(rng),)))
             for _ in range(400)]
    answers = hyps = 0
    for solve in (colp_solve, sld_solve):
        for p, g in cases:
            verdict = solve(g, p, budget, trace=True, certificate=True)
            for answer in verdict.answers:
                answers += 1
                selected = answer.selected
                assert len(answer.trace) == len(selected)
                for i, line in enumerate(answer.trace, 1):
                    _, kind, _, k = line.split(" ", 4)[:4]  # #i hyp clause k
                    if kind != "hyp":
                        continue
                    hyps += 1
                    k = int(k)
                    assert 1 <= k < i
                    anc, atom = selected[i - 1 - k], selected[i - 1]
                    assert (anc.pred, len(anc.args)) == \
                        (atom.pred, len(atom.args))
    assert answers >= 450 and hyps >= 750


def test_no_environment_is_mutated_after_it_leaves_a_search(monkeypatch):
    # A search binds into one store; what it hands out is a copy that the
    # rest of the search leaves alone: each answer's bindings and
    # certificate environment as the answer was made, and each
    # environment rewrite_normalize's observer is given, as it was given.
    made = []

    def recording(bindings, goal_vars, kind, *rest):
        answer = Answer(bindings, goal_vars, kind, *rest)
        made.append((answer, [(e, list(e.bindings.items())) for e in
                              (answer.bindings, answer.full_env) if e]))
        return answer

    monkeypatch.setattr(engine, "Answer", recording)
    budget = Budget(max_steps=300, max_depth=40, max_answers=20)
    rng = random.Random(2006)
    for _ in range(150):
        p, g = random_program(rng), Goal((random_atom(rng),))
        colp_solve(g, p, budget, certificate=True)
        sld_solve(g, p, budget, certificate=True)
        sres_solve(g, p, budget)
    seen = []
    rewrite_normalize(parse_goal("q(X)"), EX3, b=Budget(
        max_rewrite_steps=30), observer=lambda atoms, env: seen.append(
            (env, list(env.bindings.items()))))
    assert len(made) >= 150 and len(seen) == 30
    for env, items in [pair for _, pairs in made for pair in pairs] + seen:
        assert list(env.bindings.items()) == items

"""Term core: unification, matching, cyclic environments, mu-terms.

The reference unifier below is deliberately naive (eager substitution
composition over finite trees, occurs check always on) so it can serve as an
independent oracle for the production unifier on acyclic inputs.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hornlog.terms as term_module
from genprog import random_atom, random_program, random_term

from hornlog.terms import (
    EMPTY_ENV,
    Atom,
    BindingEnv,
    Clause,
    Compound,
    MuTerm,
    SourceSpan,
    Store,
    UnificationError,
    Var,
    bump_counter_past,
    canon_key,
    const,
    from_mu,
    has_cycle,
    head_matches,
    match,
    match_atoms,
    match_head,
    mklist,
    rational_equal,
    rename_apart,
    rename_body,
    resolve,
    subterms,
    term_vars,
    to_mu,
    unify,
    unify_atoms,
    unify_head,
)
from hornlog.engine import Budget, sres_solve
from hornlog.syntax import (
    atom_text,
    parse_goal,
    parse_program,
    program_text,
    term_text,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


# ---------------------------------------------------------------------------
# Reference implementation (oracle)


def ref_apply(s, t):
    if isinstance(t, Var):
        return s.get(t.name, t)
    return Compound(t.functor, tuple(ref_apply(s, a) for a in t.args))


def ref_occurs(name, t):
    if isinstance(t, Var):
        return t.name == name
    return any(ref_occurs(name, a) for a in t.args)


def ref_unify(t1, t2, s=None):
    """Textbook unification with occurs check, eager substitutions."""
    s = dict(s or {})
    t1, t2 = ref_apply(s, t1), ref_apply(s, t2)
    if isinstance(t1, Var) and isinstance(t2, Var) and t1.name == t2.name:
        return s
    if isinstance(t1, Var):
        if ref_occurs(t1.name, t2):
            return None
        out = {k: ref_apply({t1.name: t2}, v) for k, v in s.items()}
        out[t1.name] = t2
        return out
    if isinstance(t2, Var):
        return ref_unify(t2, t1, s)
    if t1.functor != t2.functor or len(t1.args) != len(t2.args):
        return None
    for a, b in zip(t1.args, t2.args):
        s = ref_unify(a, b, s)
        if s is None:
            return None
    return s


# Random finite terms over a tiny signature.
terms = st.recursive(
    st.sampled_from([const("a"), const("b"), Var("X"), Var("Y"), Var("Z")]),
    lambda sub: st.builds(lambda x: Compound("f", (x,)), sub)
    | st.builds(lambda x, y: Compound("g", (x, y)), sub, sub),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(terms, terms)
def test_unify_agrees_with_reference_on_finite_terms(t1, t2):
    expected = ref_unify(t1, t2)
    env = unify(t1, t2, occurs_check=True)
    if expected is None:
        assert env is None
    else:
        assert env is not None
        # both sides must resolve to the same finite tree
        assert resolve(env, t1, 50) == resolve(env, t2, 50)
        assert resolve(env, t1, 50) == ref_apply(expected, t1)


@settings(max_examples=200, deadline=None)
@given(terms, terms)
def test_occurs_check_on_never_creates_cycles(t1, t2):
    env = unify(t1, t2, occurs_check=True)
    if env is not None:
        for name in env.bindings:
            assert not has_cycle(env, Var(name))


def test_unify_without_occurs_check_builds_rational_binding():
    # zeros(X) against zeros(cons(0, X)) binds X to the infinite stream
    t1 = Compound("zeros", (Var("X"),))
    t2 = Compound("zeros", (Compound("cons", (const("0"), Var("X"))),))
    env = unify(t1, t2)
    assert env is not None
    assert has_cycle(env, Var("X"))
    assert resolve(env, Var("X"), 2) == Compound(
        "cons", (const("0"), Compound("cons", (const("0"), Var("X")))))


def test_unify_with_occurs_check_rejects_cycle():
    assert unify(Var("X"), Compound("f", (Var("X"),)), occurs_check=True) is None
    assert unify(Var("X"), Compound("f", (Var("X"),))) is not None


def test_unify_cyclic_against_own_unfolding():
    # X = f(X) unifies with f(f(X)) without diverging
    env = unify(Var("X"), Compound("f", (Var("X"),)))
    unfolded = Compound("f", (Compound("f", (Var("X"),)),))
    env2 = unify(Var("X"), unfolded, env)
    assert env2 is not None


def test_unify_distinct_rational_shapes_fail():
    # X = f(a, X) vs X = f(b, X) must clash on the first argument
    e1 = unify(Var("X"), Compound("f", (const("a"), Var("X"))))
    t2 = Compound("f", (const("b"), Var("X")))
    assert unify(Var("X"), t2, e1) is None


def test_unify_is_deterministic():
    t1 = Compound("g", (Var("X"), Compound("f", (Var("Y"),))))
    t2 = Compound("g", (const("a"), Compound("f", (Var("X"),))))
    e1 = unify(t1, t2)
    e2 = unify(t1, t2)
    assert e1.bindings == e2.bindings


# ---------------------------------------------------------------------------
# Ground fingerprints and shared binding dicts

ground_terms = st.recursive(
    st.sampled_from([const("a"), const("b")]),
    lambda sub: st.builds(lambda x: Compound("f", (x,)), sub)
    | st.builds(lambda x, y: Compound("g", (x, y)), sub, sub),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(terms)
def test_fp_is_none_exactly_when_a_variable_occurs(t):
    for x in subterms((t,), EMPTY_ENV):
        if isinstance(x, Compound):
            assert (x.fp is None) == any(True for _ in term_vars(x))


@settings(max_examples=300, deadline=None)
@given(ground_terms)
def test_separately_built_ground_terms_share_fp_and_unify(t):
    copy = ref_apply({}, t)
    assert copy is not t
    assert copy.fp == t.fp is not None
    env = BindingEnv({"Z": const("a")})
    assert unify(t, copy, env) is env  # nothing to bind: env itself
    assert unify(t, copy, env, occurs_check=True) is env
    assert match(t, copy, env) is env


def test_long_ground_lists_fail_and_pass_occurs_check_at_once(monkeypatch):
    a = const("a")
    short, long_ = mklist([a] * 300), mklist([a] * 301)
    assert short.fp != long_.fp
    walks = []
    real = term_module._walk
    monkeypatch.setattr(term_module, "_walk",
                        lambda b, t: walks.append(t) or real(b, t))
    assert unify(short, long_) is None
    assert match(short, long_) is None
    assert len(walks) == 4  # the two roots, once per call
    walks.clear()
    env = unify(Var("X"), long_, occurs_check=True)
    assert env.bindings.get("X") is long_
    assert len(walks) == 3  # both sides, then the occurs check stops at once
    # equal fingerprints are walked: the same list built twice unifies
    assert unify(short, mklist([a] * 300)) is EMPTY_ENV


@settings(max_examples=300, deadline=None)
@given(terms, terms, terms)
def test_unify_and_match_never_change_the_input_env(t1, t2, t3):
    # env shares its dict with whatever unify wrapped; later calls that
    # succeed or fail must leave it exactly as it was
    env = unify(Var("Y"), t3) or EMPTY_ENV
    before = dict(env.bindings)
    pat = ref_apply({"X": Var("PX"), "Z": Var("PZ")}, t1)
    for occurs_check in (False, True):
        unify(t1, t2, env, occurs_check)
    match(pat, t2, env)
    rename_apart(Clause(Atom("p", (t1,)), (Atom("q", (t2,)),)), env)
    env.fresh(2)
    env.with_counter(env.counter + 5)
    assert env.bindings == before
    assert all(env.bindings[k] is v for k, v in before.items())


def test_a_store_trails_exactly_what_each_step_bound():
    # What a step bound is read off its store's trail past the step's mark:
    # each name it bound, and each member of a collapsed variable loop
    # X4 -> X5 -> X4 it overwrote, with the old value.  The store's
    # bindings end as the immutable call's, in the same order; undo gives
    # back the parent, and redo of what was taken back the result again.
    # A failed call leaves the store as it was.
    rng = random.Random(16)
    derived = overwritten = failed = 0
    for i in range(1500):
        env, t = _shared_env(rng)
        if i % 3 == 0:
            env = BindingEnv({**env.bindings, "X4": Var("X5"),
                              "X5": Var("X4")})
        other = _shared_env(rng)[1]
        target = Atom("p", (other, Var(rng.choice(_SHARE_VARS))))
        clause = Clause(Atom("p", (t, Var("X4"))))
        renamed, env2 = rename_apart(clause, env)
        steps = [(env, lambda e, oc=oc: unify(t, other, e, oc))
                 for oc in (False, True)]
        steps += [(env, lambda e: unify(Var("X4"), other, e)),
                  (env2, lambda e: match(renamed.head.args[0], other, e)),
                  (env2, lambda e: unify_atoms(renamed.head, target, e)),
                  (env, lambda e: unify_head(clause, target, e)),
                  (env, lambda e: match_head(clause, target, e))]
        for parent, step in steps:
            before = list(parent.bindings.items())
            want = step(parent)
            store = Store(parent)
            got = step(store)
            if want is None:
                failed += 1
                assert got is None and store.trail == []
                assert list(store.bindings.items()) == before
                continue
            derived += 1
            counter = parent.counter
            if isinstance(want, tuple):  # the renaming, then the env
                assert got[0] == want[0]
                counter += len(got[0])
                want, got = want[1], got[1]
            # a store's counter is left for its search to advance
            assert got is store and store.counter == parent.counter
            assert want.counter == counter
            assert list(store.bindings.items()) == \
                list(want.bindings.items())
            assert {name for name, _ in store.trail} == {
                k for k, v in want.bindings.items()
                if parent.bindings.get(k) is not v}
            overwritten += any(old is not None for _, old in store.trail)
            bound = store.bound(0)
            store.undo(0)
            assert store.trail == []
            assert list(store.bindings.items()) == before
            assert all(store.bindings[k] is v for k, v in before)
            store.redo(bound)
            assert list(store.bindings.items()) == \
                list(want.bindings.items())
    assert derived > 2500 and overwritten > 800 and failed > 5000


def test_bind_refuses_a_bound_name_and_leaves_the_env_as_it_was():
    env = EMPTY_ENV.bind("X", const("a"))
    with pytest.raises(UnificationError, match="variable X is already bound"):
        env.bind("X", const("b"))
    assert dict(env.bindings) == {"X": const("a")}
    assert dict(env.bind("Y", Var("X")).bindings) == {"X": const("a"),
                                                      "Y": Var("X")}
    assert "Y" not in env and len(EMPTY_ENV) == 0


# ---------------------------------------------------------------------------
# Matching


def test_match_binds_only_pattern_variables():
    pat = Compound("from", (Var("X"), Compound("scons", (Var("X"), Var("Y")))))
    tgt = Compound("from", (const("0"), Compound("scons", (const("0"), Var("T")))))
    env = match(pat, tgt)
    assert env is not None
    assert env.walk(Var("X")) == const("0")
    assert env.walk(Var("Y")) == Var("T")
    assert "T" not in env  # target variable untouched


def test_match_fails_where_target_variable_would_need_binding():
    pat = Compound("p", (Compound("f", (Var("X"),)),))
    tgt = Compound("p", (Var("T"),))
    assert match(pat, tgt) is None  # unifiable, but not a match


def test_match_repeated_pattern_variable_consistency():
    pat = Compound("g", (Var("X"), Var("X")))
    assert match(pat, Compound("g", (const("a"), const("a")))) is not None
    assert match(pat, Compound("g", (const("a"), const("b")))) is None
    # repeated var against two distinct target variables must also fail
    assert match(pat, Compound("g", (Var("U"), Var("W")))) is None
    assert match(pat, Compound("g", (Var("U"), Var("U")))) is not None


def test_match_against_cyclic_target_terminates():
    env = unify(Var("X"), Compound("cons", (const("0"), Var("X"))))
    pat = Compound("cons", (Var("H"), Var("T")))
    out = match(pat, Var("X"), env)
    assert out is not None
    assert out.walk(Var("H")) == const("0")
    # T is bound to the cycle itself
    assert has_cycle(out, Var("T"))


@settings(max_examples=200, deadline=None)
@given(terms, terms)
def test_match_implies_unify(t1, t2):
    # a successful match is a fortiori a successful unification
    pat = ref_apply({"X": Var("PX"), "Y": Var("PY"), "Z": Var("PZ")}, t1)
    env = match(pat, t2)
    if env is not None:
        assert unify(pat, t2) is not None
        assert resolve(env, pat, 50) == resolve(env, t2, 50)


# ---------------------------------------------------------------------------
# resolve / has_cycle


def test_resolve_examples():
    env = BindingEnv({"X": Compound("cons", (const("0"), Var("X")))})
    assert resolve(env, Var("X"), 2) == Compound(
        "cons", (const("0"), Compound("cons", (const("0"), Var("X")))))
    assert resolve(env, Var("X"), 0) == Var("X")

    env2 = BindingEnv({"X": Compound("f", (Var("Y"),)), "Y": const("a")})
    assert resolve(env2, Var("X"), 9) == Compound("f", (const("a"),))
    assert resolve(EMPTY_ENV, Compound("f", (const("a"),)), 9) == Compound(
        "f", (const("a"),))


def test_resolve_sibling_branches_get_full_budget():
    env = BindingEnv({"X": Compound("c", (Var("X"),))})
    t = Compound("pair", (Var("X"), Var("X")))
    out = resolve(env, t, 1)
    assert out == Compound("pair", (Compound("c", (Var("X"),)),
                                    Compound("c", (Var("X"),))))


def test_degenerate_variable_cycle_collapses():
    env = BindingEnv({"X": Var("Y"), "Y": Var("X")})
    assert env.walk(Var("X")) == Var("X")
    assert env.walk(Var("Y")) == Var("X")
    assert not has_cycle(env, Var("X"))
    assert resolve(env, Var("Y"), 3) == Var("X")


def test_has_cycle():
    env = BindingEnv({"X": Compound("f", (Var("X"),)), "Y": const("a")})
    assert has_cycle(env, Var("X"))
    assert not has_cycle(env, Var("Y"))
    assert has_cycle(env, Compound("g", (Var("X"),)))


def test_resolve_depth_zero_cuts_every_node_on_a_cycle():
    # Both nodes lie on the cycle, but a walk from the root re-enters only
    # U's: cutting cycle entries alone would give pair(U, g(U)).
    env = BindingEnv({"U": Compound("f", (Var("W"),)),
                      "W": Compound("g", (Var("U"),))})
    t = Compound("pair", (Var("U"), Var("W")))
    assert resolve(env, t, 0) == t


def test_resolve_depth_zero_finds_the_cycles_in_one_pass(monkeypatch):
    # The sres prefix of from(0, X) at lazy-k 1000 is an acyclic graph of
    # about 2k compounds, each reached through a variable.  Depth 0 asks of
    # each whether it lies on a cycle; one pass over the graph answers all
    # of them, where a walk from each node took about 2.5 million steps.
    k = 1000
    program = parse_program((SAMPLES / "from.lp").read_text())
    [answer] = sres_solve(parse_goal("from(0, X)"), program,
                          Budget(max_answers=1), lazy_k=k).answers
    walks = []
    real = term_module._walk
    monkeypatch.setattr(term_module, "_walk",
                        lambda b, t: walks.append(t) or real(b, t))
    t = resolve(answer.bindings, Var("X"), 0)
    assert len(walks) <= 10 * k
    monkeypatch.undo()
    assert t == resolve(answer.bindings, Var("X"), 1)


def test_resolve_past_depth_zero_runs_no_cycle_pass(monkeypatch):
    # Past depth 0, resolve cuts a node only while it is open on the path,
    # which puts it on a cycle, so a trace line's display of X = f(Y, X)
    # need not walk the whole list Y to learn that.
    env = BindingEnv({"X": Compound("f", (Var("Y"), Var("X"))),
                      "Y": mklist([const("a")] * 2000)})
    passes = []
    real = term_module._on_cycles
    monkeypatch.setattr(term_module, "_on_cycles",
                        lambda e, t: passes.append(t) or real(e, t))
    for depth, cut in ((1, None), (2, 12), (3, None)):
        resolve(env, Var("X"), depth, cut)
    assert passes == []
    assert resolve(env, Var("X"), 0) == Var("X")
    assert len(passes) == 1


def ref_has_cycle(env, t, path=()):
    """Does some branch of ``t`` under ``env`` meet a node twice?"""
    t = env.walk(t)
    if isinstance(t, Var):
        return False
    if any(t is p for p in path):
        return True
    return any(ref_has_cycle(env, a, path + (t,)) for a in t.args)


def test_has_cycle_on_deep_terms_does_not_recurse():
    n = 10 ** 4
    assert not has_cycle(EMPTY_ENV, mklist([const("a")] * n))
    ring = BindingEnv({f"X{i}": Compound("f", (Var(f"X{(i + 1) % n}"),))
                       for i in range(n)})
    assert has_cycle(ring, Var("X0"))


def _count_walks(monkeypatch):
    """The list that grows by one entry per ``terms._walk`` call."""
    walks = []
    real = term_module._walk
    monkeypatch.setattr(term_module, "_walk",
                        lambda b, t: walks.append(t) or real(b, t))
    return walks


def test_has_cycle_returns_at_the_first_back_edge(monkeypatch):
    # X's first argument closes the cycle: the long list after it is never
    # walked
    n = 10 ** 4
    env = BindingEnv({"X": Compound("f", (Var("X"),
                                          mklist([const("a")] * n)))})
    walks = _count_walks(monkeypatch)
    assert has_cycle(env, Var("X"))
    assert len(walks) <= 3


def test_to_mu_walks_each_term_it_pushes_once(monkeypatch):
    # one walk finds the cycles and copies: at most one _walk per term
    # pushed
    n = 1000
    walks = _count_walks(monkeypatch)
    m = to_mu(EMPTY_ENV, mklist([const("a")] * n))
    assert len(walks) <= 2 * n + 1  # n cells, n elements and []
    assert not m.equations and m.root == mklist([const("a")] * n)
    ring = BindingEnv({f"X{i}": Compound("f", (Var(f"X{(i + 1) % n}"),))
                       for i in range(n)})
    walks.clear()
    m = to_mu(ring, Var("X0"))
    assert len(walks) <= n + 1  # X0 to X999, then X0 again
    assert m.root == Var("X0") and list(m.equations) == ["X0"]


def ref_capped(t, depth):
    """Copy of a resolved ``t`` with every compound ``depth`` levels down
    replaced by ``_``: the cut as displays made it after a full resolve."""
    if isinstance(t, Var):
        return t
    if depth == 0:
        return Var("_")
    return Compound(t.functor, tuple(ref_capped(a, depth - 1) for a in t.args))


def _blur(t, env):
    """``t`` with every variable bound in ``env`` renamed to one placeholder:
    those are the cycle cut points, whose names the cut may change."""
    if isinstance(t, Var):
        return Var("?") if t.name in env.bindings else t
    return Compound(t.functor, tuple(_blur(a, env) for a in t.args))


_CUT_VARS = [f"X{i}" for i in range(6)]


def _cut_term(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.7:
            return Var(rng.choice(_CUT_VARS))
        return const(rng.choice(["a", "b"]))
    name, arity = rng.choice([("f", 1), ("g", 2), ("h", 1)])
    return Compound(name, tuple(_cut_term(rng, depth - 1)
                                for _ in range(arity)))


def test_resolve_with_cut_is_capped_resolve_up_to_cycle_names():
    rng = random.Random(11)
    renamed = 0
    for _ in range(1200):
        # Many aliases, so that several variables reach one cyclic node.
        bindings = {}
        for name in _CUT_VARS:
            r = rng.random()
            if r < 0.4:
                bindings[name] = _cut_term(rng, 3)
            elif r < 0.8:
                bindings[name] = Var(rng.choice(_CUT_VARS))
        env = BindingEnv(bindings)
        t = _cut_term(rng, 4)
        for depth in (0, 1, 2):
            full = resolve(env, t, depth)
            for cut in (1, 2, 3, 12):
                got = resolve(env, t, depth, cut=cut)
                want = ref_capped(full, cut)
                assert _blur(got, env) == _blur(want, env), (env.bindings, t)
                renamed += got != want
    assert renamed > 0


def test_resolve_with_cut_names_a_cycle_from_the_printed_part():
    # Y reaches X's cycle first, but only below the cut, so the cut point
    # that prints is named X; resolving in full and then cutting names it Y.
    env = BindingEnv({"X": Compound("f", (Var("X"),)), "Y": Var("X")})
    h3 = Compound("h", (Compound("h", (Compound("h", (Var("Y"),)),)),))
    t = Compound("pair", (h3, Var("X")))
    elided = Compound("h", (Compound("h", (Var("_"),)),))
    f2 = Compound("f", (Compound("f", (Var("X"),)),))
    assert resolve(env, t, 2, cut=3) == Compound("pair", (elided, f2))
    assert ref_capped(resolve(env, t, 2), 3) == Compound(
        "pair", (elided, Compound("f", (Compound("f", (Var("Y"),)),))))


def _unshared_resolve(env, t, depth, cut=None):
    """``resolve`` as it was before it shared subterms: every node is copied
    again wherever it is reached, so the result is a tree."""
    counts, varname, cyc_cache = {}, {}, {}
    level = 0

    def cyclic(node):
        hit = cyc_cache.get(id(node))
        if hit is None:
            hit = cyc_cache[id(node)] = any(
                x is node for x in subterms(node.args, env))
        return hit

    out, stack = [], [t]
    while stack:
        x = stack.pop()
        if x.__class__ is tuple:
            level -= 1
            node, nid = x
            k = len(out) - len(node.args)
            out[k:] = [Compound(node.functor, tuple(out[k:]), node.span)]
            if nid is not None:
                counts[nid] -= 1
            continue
        if isinstance(x, Compound):
            w, nid = x, None
        else:
            w = env.walk(x)
            if isinstance(w, Var):
                out.append(w)
                continue
            nid = id(w)
            varname.setdefault(nid, x.name)
            if counts.get(nid, 0) >= depth and cyclic(w):
                out.append(Var(varname[nid]))
                continue
        if level == cut:
            out.append(Var("_"))
            continue
        level += 1
        if nid is not None:
            counts[nid] = counts.get(nid, 0) + 1
        stack.append((w, nid))
        stack.extend(reversed(w.args))
    return out[0]


_SHARE_VARS = [f"X{i}" for i in range(6)]


def _shared_env(rng):
    """Three variables bound to compounds, the rest aliases or free, so that
    cycles close through several names and one node is reached from many
    places; a compound may also be reused as a literal argument."""
    made = []

    def term(depth):
        r = rng.random()
        if made and r < 0.15:
            return rng.choice(made)
        if depth == 0 or r < 0.4:
            if rng.random() < 0.7:
                return Var(rng.choice(_SHARE_VARS))
            return const(rng.choice("ab"))
        name, arity = rng.choice([("f", 1), ("g", 2), (".", 2)])
        t = Compound(name, tuple(term(depth - 1) for _ in range(arity)))
        if depth == 1:
            made.append(t)
        return t

    bindings = {n: term(2) for n in rng.sample(_SHARE_VARS, 3)}
    for n in _SHARE_VARS:
        if n not in bindings and rng.random() < 0.6:
            bindings[n] = Var(rng.choice(_SHARE_VARS))
    return BindingEnv(bindings), term(3)


def _compounds(t):
    return sum(isinstance(x, Compound) for x in subterms((t,), EMPTY_ENV))


def _unfolded_compounds(t):
    """Compounds in the unfolding of the finite term ``t``, counted on its
    graph, so a shared node counts once for each path to it."""
    size, stack = {}, [t]
    while stack:
        x = stack.pop()
        if x.__class__ is tuple:
            size[id(x[0])] = 1 + sum(size.get(id(a), 0) for a in x[0].args)
        elif isinstance(x, Compound) and id(x) not in size:
            size[id(x)] = 0
            stack.append((x,))
            stack.extend(x.args)
    return size.get(id(t), 0)


def test_resolve_agrees_with_the_unshared_copy():
    rng = random.Random(13)
    shared = 0
    for _ in range(500):
        env, t = _shared_env(rng)
        for depth in (0, 1, 2, 3):
            for cut in (None, 1, 3, 12):
                got = resolve(env, t, depth, cut)
                want = _unshared_resolve(env, t, depth, cut)
                assert got == want, (env, t, depth, cut)
                for nested in (False, True):
                    assert (term_text(got, nested_lists=nested)
                            == term_text(want, nested_lists=nested))
                shared += _compounds(got) < _unfolded_compounds(got)
    assert shared > 0


def test_resolve_shares_no_node_on_a_cycle():
    # Y's node lies on the cycle through X.  Under A it is reached twice:
    # inside X's walk, where X is open, and directly, where it is not.
    env = BindingEnv({"X": Compound("f", (Var("Y"),)),
                      "Y": Compound("g", (Var("X"),)),
                      "A": Compound("h", (Var("Y"), Var("X")))})
    got = resolve(env, Var("A"), 1)
    assert term_text(got) == "h(g(f(Y)), f(g(X)))"
    assert got == _unshared_resolve(env, Var("A"), 1)


def _doubling_dag(depth):
    """``Y0 = f(Y1, Y1)``, ..., ``Y<depth> = a``: depth + 1 nodes whose
    unfolding has 2^(depth + 1) - 1."""
    bindings = {f"Y{i}": Compound("f", (Var(f"Y{i + 1}"),) * 2)
                for i in range(depth)}
    bindings[f"Y{depth}"] = const("a")
    return BindingEnv(bindings)


def _build_cap(monkeypatch, cap):
    """Fail as soon as more than ``cap`` compounds are built."""
    built = []
    original = Compound.__init__

    def counting(self, *args):
        built.append(None)
        assert len(built) <= cap, f"more than {cap} compounds built"
        original(self, *args)

    monkeypatch.setattr(Compound, "__init__", counting)


def test_resolve_and_to_mu_of_a_doubling_dag_cost_its_graph(monkeypatch):
    env = _doubling_dag(20)
    _build_cap(monkeypatch, 200)
    for unfold in (1, 3):
        got = resolve(env, Var("Y0"), unfold)
        assert _compounds(got) == 21
        assert _unfolded_compounds(got) == 2 ** 21 - 1
    m = to_mu(env, Var("Y0"))
    assert not m.equations and _compounds(m.root) == 21
    # over a cycle: the stream's equation shares the DAG's copy
    cyc = BindingEnv({**env.bindings,
                      "X": Compound("cons", (Var("Y0"), Var("X")))})
    m = to_mu(cyc, Var("X"))
    assert m.root == Var("X") and _compounds(m.equations["X"]) == 22


def _unfolding_restrict(env, names):
    """``restrict``'s bindings as a walk of the unfolding finds them: each
    variable is expanded once, every occurrence of a compound again."""
    keep, seen, work = {}, set(), [Var(n) for n in names]
    while work:
        t = work.pop()
        if isinstance(t, Compound):
            work.extend(t.args)
        elif t.name not in seen:
            seen.add(t.name)
            if t.name in env.bindings:
                keep[t.name] = env.bindings[t.name]
                work.append(keep[t.name])
    return keep


def test_restrict_expands_a_shared_compound_once():
    # X -> t, where t is 20 levels of f(t, t): the unfolding has 2^20 - 1
    # compounds, the graph 20 (a read of ``args`` is an expansion)
    reads = []

    class Counted(Compound):
        __slots__ = ()

        @property
        def args(self):
            reads.append(None)
            assert len(reads) <= 100, "a shared compound expanded again"
            return Compound.args.__get__(self)

    t = const("a")
    for _ in range(20):
        t = Counted("f", (t, t))
    env = BindingEnv({"X": t, "Y": const("b")})
    kept = env.restrict(["X"])
    assert len(reads) == 20
    assert dict(kept.bindings) == {"X": t} and kept.bindings["X"] is t


def test_restrict_keeps_what_the_unfolding_keeps_in_its_order():
    # R is reached again through V before its argument W is walked; a walk
    # that skipped it there would keep U before W
    r = Compound("g", (Var("W"), Var("Y")))
    env = BindingEnv({"X": r, "Y": Compound("k", (Var("U"), Var("V"))),
                      "V": r, "W": const("a"), "U": const("b")})
    assert list(env.restrict(["X"]).bindings) == ["X", "Y", "V", "W", "U"]
    rng = random.Random(30)
    for _ in range(1500):
        env, t = _shared_env(rng)
        env = BindingEnv({**env.bindings, "T": t})
        names = rng.sample([*_SHARE_VARS, "T"], rng.randint(1, 4))
        kept = env.restrict(names).bindings
        want = _unfolding_restrict(env, names)
        assert list(kept.items()) == list(want.items())
        assert all(kept[n] is want[n] for n in kept)


# ---------------------------------------------------------------------------
# MuTerm round trips


def test_to_mu_zeros():
    env = BindingEnv({"X": Compound("cons", (const("0"), Var("X")))})
    m = to_mu(env, Var("X"))
    assert m.root == Var("X")
    assert m.equations == {"X": Compound("cons", (const("0"), Var("X")))}


def test_to_mu_inlines_acyclic_bindings():
    env = BindingEnv({"X": Compound("f", (Var("Y"),)), "Y": const("a")})
    m = to_mu(env, Var("X"))
    assert m.equations == {}
    assert m.root == Compound("f", (const("a"),))


def test_to_mu_mutual_cycle_is_minimal():
    env = BindingEnv({
        "X": Compound("f", (Var("Y"),)),
        "Y": Compound("g", (Var("X"),)),
    })
    m = to_mu(env, Var("X"))
    # one equation per distinct cycle entry reached from the root
    assert m.root == Var("X")
    assert set(m.equations) == {"X"} or set(m.equations) == {"X", "Y"}
    t, env2 = from_mu(m, EMPTY_ENV)
    assert rational_equal(t, Var("X"), env2, env)


def test_to_mu_names_a_cycle_entered_through_no_variable():
    # N is entered as a literal term and closed through its own argument,
    # so no variable names its entry: it is called Mu<n>, counted in order.
    n = Compound("f", (Var("Y"),))
    m = Compound("h", (Var("Z"),))
    env = BindingEnv({"Y": Compound("g", (n,)), "Z": Compound("k", (m,))})
    mu = to_mu(env, n)
    assert mu.root == Var("Mu0")
    assert mu.equations == {
        "Mu0": Compound("f", (Compound("g", (Var("Mu0"),)),))}
    mu = to_mu(env, Compound("p", (n, m)))
    assert mu.root == Compound("p", (Var("Mu0"), Var("Mu1")))
    assert list(mu.equations.items()) == [
        ("Mu0", Compound("f", (Compound("g", (Var("Mu0"),)),))),
        ("Mu1", Compound("h", (Compound("k", (Var("Mu1"),)),)))]
    # entered through Y, the same cycle takes Y's name
    mu = to_mu(env, Var("Y"))
    assert mu.root == Var("Y")
    assert mu.equations == {
        "Y": Compound("g", (Compound("f", (Var("Y"),)),))}


def test_mu_requires_contractive_equations():
    with pytest.raises(UnificationError):
        MuTerm(Var("X"), {"X": Var("Y")})


def test_from_mu_to_mu_round_trip():
    m = MuTerm(Var("S"), {"S": Compound("cons", (const("1"), Var("S")))})
    t, env = from_mu(m, EMPTY_ENV)
    again = to_mu(env, t)
    assert rational_equal(m, again)


# ---------------------------------------------------------------------------
# rational_equal / canon_key


def test_rational_equal_unfolding_invariance():
    m1 = MuTerm(Var("X"), {"X": Compound("cons", (const("0"), Var("X")))})
    # same stream described by a two-step loop
    m2 = MuTerm(Var("Y"), {"Y": Compound(
        "cons", (const("0"), Compound("cons", (const("0"), Var("Y")))))})
    assert rational_equal(m1, m2)
    assert canon_key(m1) == canon_key(m2)
    m3 = MuTerm(Var("X"), {"X": Compound("cons", (const("1"), Var("X")))})
    assert not rational_equal(m1, m3)
    assert canon_key(m1) != canon_key(m3)


def test_rational_equal_finite_vs_infinite():
    m1 = MuTerm(Compound("cons", (const("0"), const("[]"))))
    m2 = MuTerm(Var("X"), {"X": Compound("cons", (const("0"), Var("X")))})
    assert not rational_equal(m1, m2)


def test_rational_equal_compares_free_variables_by_name():
    t1 = Compound("f", (Var("A"), Var("A"), Var("B")))
    t2 = Compound("f", (Var("U"), Var("U"), Var("W")))
    assert not rational_equal(t1, t2)  # a renaming is not equal


mu_rhs = st.recursive(
    st.sampled_from([const("a"), const("b"), Var("L")]),
    lambda sub: st.builds(lambda x: Compound("f", (x,)), sub)
    | st.builds(lambda x, y: Compound("g", (x, y)), sub, sub),
    max_leaves=5,
)


@settings(max_examples=150, deadline=None)
@given(mu_rhs.filter(lambda t: isinstance(t, Compound)))
def test_canon_key_matches_bisimulation(rhs):
    m = MuTerm(Var("L"), {"L": rhs})
    # the one-step unfolding of a mu-term is bisimilar to it
    env = m.as_env()
    unfolded = resolve(env, Var("L"), 1)
    t2, env2 = from_mu(m, EMPTY_ENV)
    assert rational_equal(Var("L"), t2, env, env2)
    assert canon_key(Var("L"), env) == canon_key(t2, env2)
    if has_cycle(env, Var("L")):
        assert rational_equal(Var("L"), unfolded, env, env)


# Rational terms: random bindings of X, Y and Z, or a one-equation mu-term.
rational_terms = st.one_of(
    st.tuples(st.dictionaries(st.sampled_from(["X", "Y", "Z"]), terms), terms),
    mu_rhs.map(lambda rhs: ({"L": rhs}, Var("L"))))


@settings(max_examples=300, deadline=None)
@given(rational_terms)
def test_has_cycle_agrees_with_to_mu_and_reference(bt):
    bindings, t = bt
    env = BindingEnv(bindings)
    assert has_cycle(env, t) == bool(to_mu(env, t).equations)
    assert has_cycle(env, t) == ref_has_cycle(env, t)


@settings(max_examples=300, deadline=None)
@given(rational_terms, rational_terms)
def test_canon_key_equates_exactly_the_bisimilar_terms(bt1, bt2):
    pairs = []
    for bindings, t in (bt1, bt2):
        env = BindingEnv(bindings)
        pairs += [(t, env), from_mu(to_mu(env, t), EMPTY_ENV)]
    for t1, e1 in pairs:
        for t2, e2 in pairs:
            assert ((canon_key(t1, e1) == canon_key(t2, e2))
                    == rational_equal(t1, t2, e1, e2))


def test_canon_key_on_deep_terms_does_not_recurse():
    n = 10 ** 4
    distinct = mklist([const(f"c{i}") for i in range(n)])
    ring = BindingEnv({f"X{i}": Compound("n", (const(f"c{i}"),
                                               Var(f"X{(i + 1) % n}")))
                       for i in range(n)})
    # Every node is its own class: n cells and n constants, plus "[]".
    for t, env, classes in ((distinct, EMPTY_ENV, 2 * n + 1),
                            (Var("X0"), ring, 2 * n)):
        key = canon_key(t, env)
        hash(key)
        assert len(key) == 1 + classes


def test_canon_key_lists_a_shared_dag_once():
    # D_i = f(D_{i+1}, D_{i+1}): 19 distinct nodes, 2^18 leaves unfolded.
    dag = const("a")
    for _ in range(18):
        dag = Compound("f", (dag, dag))
    assert len(repr(canon_key(dag))) < 10_000


def test_canon_key_of_a_long_ground_list_is_not_quadratic():
    # Refining the whole graph took one round per cell: 1.3-2.7 s at
    # 1,600 cells.  Each finite node is now keyed once, when finished.
    n = 10 ** 4
    t = mklist([const("a")] * n)
    start = time.perf_counter()
    key = canon_key(t)
    assert time.perf_counter() - start < 1.0
    # every cell is its own class (its own length), then "a" and "[]"
    assert len(key) == 1 + n + 2


def _whole_graph_canon_key(t, env=None):
    """``canon_key`` as it was before finite nodes were interned: every
    node starts in one class and the whole graph is refined."""
    t, env = term_module._as_pair(t, env)
    root = term_module._walk(env._b, t)
    if isinstance(root, Var):
        return ("v", root.name)
    nodes = [n for n in subterms((root,), env) if isinstance(n, Compound)]
    index = {id(n): i for i, n in enumerate(nodes)}
    shapes = []
    for n in nodes:
        shape = [n.functor]
        for a in n.args:
            a = term_module._walk(env._b, a)
            shape.append(("v", a.name) if isinstance(a, Var) else index[id(a)])
        shapes.append(shape)
    cls, count = [0] * len(shapes), 1
    while count < len(shapes):
        remap: dict = {}
        new = [remap.setdefault(tuple(cls[r] if r.__class__ is int else r
                                      for r in shape), len(remap))
               for shape in shapes]
        cls = new
        if len(remap) == count:
            break
        count = len(remap)
    pos, firsts, stack = {}, [], [0]
    while stack:
        i = stack.pop()
        if i.__class__ is int and cls[i] not in pos:
            pos[cls[i]] = len(firsts)
            firsts.append(i)
            stack.extend(reversed(shapes[i]))
    return ("f", *(tuple(("c", pos[cls[r]]) if r.__class__ is int else r
                         for r in shapes[i]) for i in firsts))


def _seeded_rational(rng: random.Random):
    """Bindings of X0-X5, each to a term, a variable or nothing, over
    constants, lists and f/g/h, so that cycles, shared nodes and finite
    prefixes above cycles all occur."""
    names = [f"X{i}" for i in range(6)]

    def term(depth):
        if depth == 0 or rng.random() < 0.25:
            return (Var(rng.choice(names)) if rng.random() < 0.5
                    else const(rng.choice("ab")))
        name, arity = rng.choice([("f", 1), ("g", 2), (".", 2), ("h", 3)])
        return Compound(name, tuple(term(depth - 1) for _ in range(arity)))

    bindings = {}
    for name in names:
        r = rng.random()
        if r < 0.6:
            bindings[name] = term(rng.randint(1, 5))
        elif r < 0.7:
            bindings[name] = Var(rng.choice(names))
    return BindingEnv(bindings), term(4)


def test_canon_key_keys_as_the_whole_graph_refinement_did():
    rng = random.Random(1987)
    cases = [_seeded_rational(rng) for _ in range(3000)]
    stream = {"S": Compound(".", (const("a"), Var("S")))}
    for n in (1, 2, 30):
        cases += [(BindingEnv(stream), mklist([const("a")] * n, Var("S"))),
                  (BindingEnv(stream), mklist([const("b")] * n, Var("S"))),
                  (EMPTY_ENV, mklist([const("a")] * n, Var("T")))]
    for env, t in cases:
        assert canon_key(t, env) == _whole_graph_canon_key(t, env)


def _spine(t):
    """The functors down the last argument of ``t``, without recursion."""
    out = []
    while isinstance(t, Compound):
        out.append(t.functor)
        t = t.args[-1] if t.args else None
    return out, t


def test_builders_and_printer_on_deep_terms_do_not_recurse():
    n = 10 ** 4
    deep = const("0")
    for _ in range(n):
        deep = Compound("s", (deep,))
    assert _spine(resolve(EMPTY_ENV, deep, 1))[0] == ["s"] * n + ["0"]
    m = to_mu(EMPTY_ENV, deep)
    assert not m.equations and _spine(m.root)[0] == ["s"] * n + ["0"]
    assert term_text(deep) == "s(" * n + "0" + ")" * n

    # A cycle through n nodes: X0 = s(X1), ..., X<n-1> = s(X0).
    ring = BindingEnv({f"X{i}": Compound("s", (Var(f"X{(i + 1) % n}"),))
                       for i in range(n)})
    spine, cut = _spine(resolve(ring, Var("X0"), 1))
    assert spine == ["s"] * n and cut == Var("X0")
    m = to_mu(ring, Var("X0"))
    assert m.root == Var("X0") and list(m.equations) == ["X0"]
    assert _spine(m.equations["X0"]) == (["s"] * n, Var("X0"))
    text = term_text(m.equations["X0"])
    assert text == "s(" * n + "X0" + ")" * n
    lazy = resolve(ring, mklist([const("a")] * n, Var("X0")), 1)
    assert term_text(lazy, nested_lists=True, marked={"X0"}).endswith(
        "X0?" + ")" * n + "]" * n)


# ---------------------------------------------------------------------------
# rename_apart


def test_rename_apart_spec_example():
    c = Clause(Atom("p", (Var("X"),)), (Atom("q", (Var("X"),)),), idx=1)
    env = EMPTY_ENV.with_counter(7)
    rc, env2 = rename_apart(c, env)
    assert rc.head == Atom("p", (Var("V7"),))
    assert rc.body == (Atom("q", (Var("V7"),)),)
    assert env2.counter == 8


def test_rename_apart_twice_is_disjoint():
    c = Clause(Atom("p", (Var("X"), Var("Y"))), (), idx=1)
    r1, env = rename_apart(c, EMPTY_ENV)
    r2, env = rename_apart(c, env)
    v1 = {v.name for a in (r1.head,) for t in a.args for v in [t]}
    v2 = {v.name for a in (r2.head,) for t in a.args for v in [t]}
    assert not (v1 & v2)


def test_bump_counter_past_literal_names():
    g = Compound("p", (Var("V3"), Var("V11")))
    env = bump_counter_past(EMPTY_ENV, Atom("p", g.args))
    assert env.counter == 12
    (v,), env = env.fresh()
    assert v == Var("V12")


def test_unify_atoms_arity_mismatch():
    assert unify_atoms(Atom("p", (const("a"),)), Atom("p", ())) is None
    assert unify_atoms(Atom("p", ()), Atom("q", ())) is None


def _atom_pairs(count):
    """Seeded atom pairs; the first atom is renamed apart from the second,
    so it can serve as a matching pattern."""
    for seed in range(count):
        rng = random.Random(seed)
        a1, a2 = random_atom(rng), random_atom(rng)
        renamed, env = rename_apart(Clause(a1), EMPTY_ENV.with_counter(50))
        yield renamed.head, a2, env


def _wrapped(a):
    return Compound(a.pred, a.args)


def test_atom_unify_and_match_build_no_compound(monkeypatch):
    pairs = list(_atom_pairs(50))
    built = []
    original = Compound.__init__

    def counting(self, *args):
        original(self, *args)
        built.append(self.functor)

    monkeypatch.setattr(Compound, "__init__", counting)
    for a1, a2, env in pairs:
        unify_atoms(a1, a2, env)
        unify_atoms(a1, a2, env, occurs_check=True)
        match_atoms(a1, a2, env)
    assert built == []


def test_atom_unify_and_match_agree_with_wrapped_atoms():
    successes = 0
    for a1, a2, env in _atom_pairs(400):
        pairs = [(unify_atoms(a1, a2, env, oc),
                  unify(_wrapped(a1), _wrapped(a2), env, oc))
                 for oc in (False, True)]
        pairs.append((match_atoms(a1, a2, env),
                      match(_wrapped(a1), _wrapped(a2), env)))
        for got, want in pairs:
            assert (got is None) == (want is None)
            if got is not None:
                successes += 1
                assert list(got.bindings.items()) == \
                    list(want.bindings.items())
    assert successes > 100


def test_mklist():
    t = mklist([const("a"), const("b")], Var("T"))
    assert t == Compound(".", (const("a"), Compound(".", (const("b"), Var("T")))))


# ---------------------------------------------------------------------------
# Matching is unification restricted to the pattern's variables


def _binds_only(out, env, names) -> bool:
    """Did ``out`` extend ``env`` with bindings of ``names`` alone?"""
    old = env.bindings
    return (all(out.bindings.get(k) is v for k, v in old.items())
            and all(k in old or k in names for k in out.bindings))


def _same_bindings(a, b) -> bool:
    return list(a.bindings.items()) == list(b.bindings.items())


@settings(max_examples=300, deadline=None)
@given(terms, terms, st.dictionaries(st.sampled_from(["X", "Y", "Z"]), terms))
def test_match_is_unify_binding_only_pattern_variables(t1, t2, bindings):
    pat = ref_apply({"X": Var("PX"), "Y": Var("PY"), "Z": Var("PZ")}, t1)
    env = BindingEnv(bindings)
    matched = match(pat, t2, env)
    unified = unify(pat, t2, env)
    names = {v.name for v in term_vars(pat)}
    assert (matched is not None) == (
        unified is not None and _binds_only(unified, env, names))
    if matched is not None:
        assert _same_bindings(matched, unified)


def test_match_atoms_is_unify_atoms_binding_only_pattern_variables():
    successes = 0
    for a1, a2, env in _atom_pairs(400):
        matched = match_atoms(a1, a2, env)
        unified = unify_atoms(a1, a2, env)
        names = {v.name for a in a1.args for v in term_vars(a)}
        assert (matched is not None) == (
            unified is not None and _binds_only(unified, env, names))
        if matched is not None:
            successes += 1
            assert _same_bindings(matched, unified)
    assert successes > 20


# ---------------------------------------------------------------------------
# Matching a clause's own head, unrenamed

# Head variables; the first two are also variable names of the targets.
_HEAD_VARS = ["X0", "X1", "A", "B"]


def _head_term(rng, t, depth, named):
    """A head argument for the finite target term ``t``: mostly ``t``'s
    shape with some subterms replaced by head variables.  ``named`` maps
    each replaced subterm to its variable, which is mostly reused when the
    same subterm is replaced again, so that variables repeat."""
    if depth == 0 or rng.random() < 0.3:
        if t in named and rng.random() < 0.7:
            return Var(named[t])
        return Var(named.setdefault(t, rng.choice(_HEAD_VARS)))
    if isinstance(t, Var) or rng.random() < 0.05:
        return rng.choice([const("a"), Compound("f", (Var("A"),)),
                           Compound(".", (Var("X0"), Var("B")))])
    return Compound(t.functor, tuple(_head_term(rng, a, depth - 1, named)
                                     for a in t.args))


def test_head_matches_agrees_with_match_atoms_of_the_renamed_head():
    rng = random.Random(14)
    seen = {True: 0, False: 0}
    repeated_cyclic = 0
    for i in range(2000):
        env, t = _shared_env(rng)
        if i % 3 == 0:  # a variable loop X4 -> X5 -> X4
            env = BindingEnv({**env.bindings, "X4": Var("X5"),
                              "X5": Var("X4")})
        target = Atom("p", (t, Var(rng.choice(_SHARE_VARS))))
        named: dict = {}
        head = Atom("p", tuple(_head_term(rng, resolve(env, a, 1, cut=4), 3,
                                          named) for a in target.args))
        renamed, env2 = rename_apart(Clause(head), env)
        want = match_atoms(renamed.head, target, env2) is not None
        assert head_matches(head, target, env) == want, (head, target, env)
        seen[want] += 1
        names = [v.name for a in head.args for v in term_vars(a)]
        repeated_cyclic += (want and len(set(names)) < len(names)
                            and has_cycle(env, Compound("", target.args)))
    assert min(seen.values()) > 300
    assert repeated_cyclic > 20


def _nodes(t) -> list:
    """Every node of the finite term ``t`` in preorder, with its span."""
    out, stack = [], [t]
    while stack:
        x = stack.pop()
        if isinstance(x, Var):
            out.append((x.name, x.span))
        else:
            out.append((x.functor, len(x.args), x.span))
            stack.extend(reversed(x.args))
    return out


def _resolvent(env, body):
    """The bindings in order, the counter and the body atoms, every node
    with its span; None for a failure."""
    if env is None:
        return None
    return ([(name, _nodes(t)) for name, t in env.bindings.items()],
            env.counter,
            [(a.pred, a.span, [_nodes(x) for x in a.args]) for a in body])


def _in_place(resolved, c):
    return None if resolved is None else _resolvent(
        resolved[1], rename_body(c, resolved[0]))


def test_head_resolution_gives_what_renaming_the_whole_clause_gave():
    # unify_head and match_head against rename_apart then unify_atoms or
    # match_atoms of the renamed head, on genprog clauses and atoms printed
    # and parsed back so that every node has a span, under environments with
    # cycles and variable loops whose names the clauses share.
    rng = random.Random(18)
    triples = 0
    outcomes = dict.fromkeys(["unify", "occurs", "match", "cycle", "loop"],
                             0)
    for seed in range(600):
        p = parse_program(program_text(random_program(rng, max_clauses=8)))
        bindings = {n: random_term(rng) for n in ("X", "Y", "Z")
                    if rng.random() < 0.6}
        if seed % 4 == 0:  # a variable loop X -> Y -> X
            bindings.update(X=Var("Y"), Y=Var("X"))
        env = BindingEnv(bindings, counter=seed % 5)
        cyclic = has_cycle(env, Compound("", (Var("X"), Var("Y"), Var("Z"))))
        # a goal variable repeated against every head, which the occurs
        # check fails on heads such as r(f(X), X)
        atoms = [Atom("r", (Var("X"), Var("X")))]
        atoms += [random_atom(rng) for _ in range(4)]
        for atom in parse_goal(", ".join(map(atom_text, atoms))).atoms:
            for c in p.clauses_for(atom.key):
                triples += 1
                rc, env2 = rename_apart(c, env)
                results = []
                for oc in (False, True):
                    want = _resolvent(unify_atoms(rc.head, atom, env2, oc),
                                      rc.body)
                    assert _in_place(unify_head(c, atom, env, oc), c) == want
                    results.append(want is not None)
                want = _resolvent(match_atoms(rc.head, atom, env2), rc.body)
                assert _in_place(match_head(c, atom, env), c) == want
                outcomes["unify"] += results[0]
                outcomes["occurs"] += results[0] and not results[1]
                outcomes["match"] += want is not None
                outcomes["cycle"] += results[0] and cyclic
                outcomes["loop"] += results[0] and seed % 4 == 0
    assert triples >= 2000
    assert min(outcomes.values()) >= 30, (triples, outcomes)


def _replace_vars(t, draw):
    """``t`` with each leaf, variable or constant, replaced by its own
    ``draw()``."""
    if isinstance(t, Var) or not t.args:
        return draw()
    return Compound(t.functor, tuple(_replace_vars(a, draw) for a in t.args))


def _linear(head) -> bool:
    names = [v.name for a in head.args for v in term_vars(a)]
    return len(names) == len(set(names))


def test_unify_head_skips_the_occurs_check_only_where_it_cannot_fire():
    # unify_head with the occurs check on skips it for a linear head, where
    # no variable occurs twice.  Against unify_atoms of the renamed head
    # with the check, on random heads and on goals that repeat variables,
    # under environments that may be cyclic: the same failures, and the
    # goal's variables bound to the same rational trees.
    rng = random.Random(1994)
    outcomes = dict.fromkeys(["linear", "nonlinear", "unify", "rejected"], 0)
    for seed in range(1500):
        head = random_atom(rng, 3)
        if seed % 2:  # every leaf a variable of two names: most repeat one
            head = Atom("r", tuple(
                _replace_vars(random_term(rng, 2),
                              lambda: Var(rng.choice("XY")))
                for _ in range(2)))
        c = Clause(head, (random_atom(rng),), idx=1)
        outcomes["linear" if _linear(c.head) else "nonlinear"] += 1
        env = BindingEnv({n: random_term(rng) for n in ("X", "Y", "Z")
                          if rng.random() < 0.3}, counter=seed % 4)
        for k in range(4):
            # half of the goals are the head with each leaf replaced on
            # its own, so a repeated variable may meet both X and f(X)
            atom = Atom(c.head.pred, tuple(
                random_term(rng, 3) if k % 2 else
                _replace_vars(a, lambda: random_term(rng, 1))
                for a in c.head.args))
            rc, env2 = rename_apart(c, env)
            want = unify_atoms(rc.head, atom, env2, True)
            got = unify_head(c, atom, env, True)
            assert (got is None) == (want is None), (c, atom, env)
            if want is None:
                if unify_atoms(rc.head, atom, env2) is not None:
                    outcomes["rejected"] += 1
                    assert not _linear(c.head), (c, atom, env)
                continue
            outcomes["unify"] += 1
            for v in {v.name for a in atom.args for v in term_vars(a)}:
                assert rational_equal(Var(v), Var(v), got[1], want)
    assert min(outcomes.values()) >= 50, outcomes


def test_head_matches_checks_the_predicate_and_arity():
    a = Atom("p", (Var("X"),))
    assert head_matches(a, a, EMPTY_ENV)
    assert not head_matches(a, Atom("q", (Var("X"),)), EMPTY_ENV)
    assert not head_matches(a, Atom("p", (Var("X"), Var("Y"))), EMPTY_ENV)


# ---------------------------------------------------------------------------
# Copies, equality and hashing at any depth


def _s_chain(n, leaf):
    t = leaf
    for _ in range(n):
        t = Compound("s", (t,))
    return t


def test_rename_apart_and_from_mu_on_deep_terms_do_not_recurse():
    n = 10 ** 4
    c = Clause(Atom("p", (_s_chain(n, Var("X")), Var("Y"))),
               (Atom("q", (Var("Y"), _s_chain(n, const("0")))),))
    rc, env = rename_apart(c, EMPTY_ENV.with_counter(3))
    assert env.counter == 5
    assert rational_equal(rc.head.args[0], _s_chain(n, Var("V3")))
    assert rc.head.args[1] == rc.body[0].args[0] == Var("V4")
    assert rational_equal(rc.body[0].args[1], c.body[0].args[1])

    ring = BindingEnv({f"X{i}": Compound("s", (Var(f"X{(i + 1) % n}"),))
                       for i in range(n)})
    t, env2 = from_mu(to_mu(ring, Var("X0")), EMPTY_ENV)
    assert rational_equal(t, Var("X0"), env2, ring)


def test_rename_apart_numbers_by_first_occurrence_with_its_span():
    c = parse_program("p(X, f(Y, X)) :- q(Z, Y), r(X).").clauses[0]
    rc, env = rename_apart(c, EMPTY_ENV.with_counter(5))
    assert term_text(Compound("c", rc.head.args + rc.body[0].args
                              + rc.body[1].args)) == \
        "c(V5, f(V6, V5), V7, V6, V5)"
    assert env.counter == 8
    x, (y, x2) = rc.head.args[0], rc.head.args[1].args
    z = rc.body[0].args[0]
    assert [(v.span.line, v.span.column) for v in (x, x2, y, z)] == \
        [(1, 3), (1, 3), (1, 8), (1, 20)]
    # compounds keep their spans, and none is shared with the input
    assert rc.head.args[1].span == c.head.args[1].span
    assert rc.head.args[1] is not c.head.args[1]


def test_rename_apart_copies_shared_ground_subterms():
    a = const("a")
    c = Clause(Atom("p", (a, Compound("f", (a, a)))))
    rc, _ = rename_apart(c, EMPTY_ENV)
    copies = [rc.head.args[0], *rc.head.args[1].args]
    assert all(x == a and x is not a for x in copies)
    assert len({id(x) for x in copies}) == 3


def test_from_mu_copies_each_node_of_a_shared_dag_once():
    # X = cons(D, X) over a 16-level doubling DAG D: copied occurrence by
    # occurrence, from_mu built 2^17 nodes and took 0.36 s.
    d = const("a")
    for _ in range(16):
        d = Compound("f", (d, d))
    m = to_mu(BindingEnv({"X": Compound("cons", (d, Var("X")))}), Var("X"))
    start = time.perf_counter()
    t, env = from_mu(m, EMPTY_ENV)
    assert time.perf_counter() - start < 0.05
    assert len(list(subterms((t,), env))) == 18  # cons, 16 f and a
    # the same term as the copy of every occurrence
    (name, rhs), = m.equations.items()
    root, rhs = term_module._rename([m.root, rhs], {name: Var("V0")})
    assert rational_equal(t, root, env, BindingEnv({"V0": rhs}))


def test_eq_and_hash_on_deep_terms_do_not_recurse():
    n = 20_000
    cells = [const(f"c{i % 7}") for i in range(n)]
    for tail in (const("[]"), Var("T")):
        a, b = mklist(cells, tail), mklist(list(cells), tail)
        assert a is not b and a == b and hash(a) == hash(b)
        other = mklist(cells[:-1] + [const("z")], tail)
        assert a != other
    assert mklist(cells) != mklist(cells, Var("T"))


def test_eq_ignores_spans_and_compares_variable_names():
    span = SourceSpan("f", 1, 1, 1)
    assert Compound("f", (Var("X", span),), span) == Compound("f", (Var("X"),))
    assert Compound("f", (Var("X"),)) != Compound("f", (Var("Y"),))
    assert Compound("f", (Var("X"),)) != Compound("f", (const("X"),))
    assert Compound("f") != Var("f") and Var("f") != Compound("f")
    assert len({Compound("g", (Var("X"), const("a"))),
                Compound("g", (Var("X"), const("a")))}) == 1

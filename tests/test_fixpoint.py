import importlib
import itertools
import random
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

from genprog import (
    random_atom,
    random_lemma_program,
    random_program,
    random_terminating_program,
    random_terminating_query,
)
from hornlog import fixpoint
from hornlog.cli import main
from hornlog.engine import Budget, colp_solve, sld_solve, sres_solve
from hornlog.fixpoint import (
    FragmentError,
    GroundFragment,
    build_fragment,
    certificate_fragment,
    check_transform_lemmas,
    down_member_with_proof,
    tp_down,
    tp_step,
    tp_up,
    up_member,
)
from hornlog.syntax import atom_text, parse_goal, parse_program, parse_term
from hornlog.terms import (
    Atom,
    BindingEnv,
    Clause,
    Compound,
    EMPTY_ENV,
    Goal,
    Program,
    Var,
    canon_key,
    rename_apart,
    term_vars,
    unify_atoms,
)
from hornlog.transform import transform_program

ROOT = Path(__file__).resolve().parent.parent
FROM = parse_program((ROOT / "samples" / "from.lp").read_text())
SUBCLASS = ROOT / "samples" / "subclass.lp"
ZEROS = parse_program("zeros(cons(0, X)) :- zeros(X).")
ADD_TEXT = "add(0, Y, Y). add(s(X), Y, s(Z)) :- add(X, Y, Z)."
ADD = parse_program(ADD_TEXT)
AB = parse_program("b. a :- b.")
SUBCLASS_AB = parse_program("""
subclass(X, X) :- class(X).
subclass(X, object) :- class(X).
subclass(X, Z) :- extends(X, Y), subclass(Y, Z).
class(object).
class(a).
extends(a, object).
""")

ZEROS_RATIONAL_ENV = EMPTY_ENV.bind("X", parse_term("cons(0, X)"))
ZEROS_RATIONAL_ATOM = Atom("zeros", (Var("X"),))


def _count_calls(monkeypatch, owner, name):
    """Wrap ``owner.<name>``; returns the list of the arguments of each
    call the wrapper sees."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


# ---------------------------------------------------------------------------
# Fragments


def test_fragment_single_fact_program():
    frag = build_fragment(parse_program("a."), 2, 0)
    assert set(frag.atoms) == {("a", 0)}
    # no constants in the program: one gets injected for the term universe
    assert len(frag.universe) == 1


def test_fragment_depth_zero_constants_only():
    frag = build_fragment(parse_program("p(a). p(f(a))."), 0, 0)
    assert any(t == Compound("a") for t in frag.universe.values())
    assert all(not t.args for t in frag.universe.values())
    assert frag.atom_key(Atom("p", (Compound("a"),)), EMPTY_ENV) in frag.atoms
    assert frag.atom_key(parse_goal("p(f(a))").atoms[0],
                         EMPTY_ENV) not in frag.atoms


def test_fragment_zeros_includes_rational_atom():
    frag = build_fragment(ZEROS, 3, 1)
    assert frag.atom_key(ZEROS_RATIONAL_ATOM, ZEROS_RATIONAL_ENV) in frag.atoms
    assert frag.atom_key(parse_goal("zeros(cons(0, cons(0, 0)))").atoms[0],
                         EMPTY_ENV) in frag.atoms


def test_fragment_cap_enforced(monkeypatch):
    monkeypatch.setattr(fixpoint, "CAP", 10)
    with pytest.raises(FragmentError):
        build_fragment(ADD, 3, 0)


@pytest.mark.parametrize("text, d, cap, message", [
    # 3 terms at depth 1 already
    ("p(s(0)).", 2, 2, "fragment cap 2 exceeded"),
    # 2 terms, so 8 atoms of add/3
    (ADD_TEXT, 1, 4, "atom product for add/3 exceeds cap 4"),
    # 2 terms, and products of 4, 2 and 4 atoms
    (SUBCLASS.read_text(), 0, 5, "fragment cap 5 exceeded"),
], ids=["terms", "product", "atoms"])
def test_each_fragment_cap_is_enforced(capsys, monkeypatch, tmp_path, text,
                                       d, cap, message):
    # The universe, one predicate's product and the atom set each stop at
    # the cap, and the oracle exits 2 on what it raises.
    monkeypatch.setattr(fixpoint, "CAP", cap)
    with pytest.raises(FragmentError, match=f"^{message}$"):
        build_fragment(parse_program(text), d, 0)
    path = tmp_path / "p.lp"
    path.write_text(text)
    assert main(["oracle", str(path), "down", "-d", str(d), "-c", "0"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_fragment_seeding_brings_subterms():
    env = EMPTY_ENV.bind("T", parse_term("g(h(a), T)"))
    seed = Atom("p", (Var("T"),))
    frag = build_fragment(parse_program("p(a)."), 0, 0,
                          seed_atoms=[(seed, env)], atom_products=False)
    assert set(frag.atoms) == {frag.atom_key(seed, env)}
    assert canon_key(Var("T"), env) in frag.universe
    assert canon_key(parse_term("h(a)"), EMPTY_ENV) in frag.universe


def _assert_keys_hold_in_the_arena(frag):
    for key, a in frag.atoms.items():
        assert frag.atom_key(a, frag.env) == key
    for key, t in frag.universe.items():
        assert canon_key(t, frag.env) == key


def test_certificate_fragment_keeps_seed_variables_free():
    # The answer's Z is cons(V0, self) with V0 free; the arena's own fresh
    # names start past it, so V0 stays free there and every key holds.
    p = parse_program("p(cons(X, Y)) :- p(Y).")
    goal = parse_goal("p(Z)")
    ans = colp_solve(goal, p, Budget(max_answers=1),
                     certificate=True).answers[0]
    frag = certificate_fragment(p, ans)
    _assert_keys_hold_in_the_arena(frag)
    assert frag.atom_key(goal.atoms[0], ans.full_env) in frag.atoms
    assert "V0" not in frag.env


def test_fragment_keys_hold_in_the_arena():
    rng = random.Random(0xA4E)
    for _ in range(30):
        p = random_lemma_program(rng)
        _assert_keys_hold_in_the_arena(build_fragment(p, 1, 1))
    for p, goal in ((ZEROS, "zeros(X)"), (ADD, "add(X, Y, s(s(0)))")):
        for ans in colp_solve(parse_goal(goal), p, Budget(max_answers=3),
                              certificate=True).answers:
            _assert_keys_hold_in_the_arena(certificate_fragment(p, ans))


def test_atom_product_keys_no_term_again(monkeypatch):
    # Each universe term is keyed once, when it is added; the atoms of the
    # product take their keys from the universe.  The universe is built
    # cold, so both counts are of a real build.
    fixpoint._universe.cache_clear()
    keyed = _count_calls(monkeypatch, fixpoint, "canon_key")
    added = _count_calls(monkeypatch, GroundFragment, "add_term")
    frag = build_fragment(FROM, 2, 1)
    assert len(frag.atoms) == 18769
    assert len(keyed) == len(added) > 0


def _universe_by_brute_force(consts, constructors, d, c):
    """The universe keys in ``build_fragment``'s order, keying every
    candidate: finite terms by layers over every combination of older
    terms; every system of up to c equations, each new one kept under
    names of its own in one environment; then one constructor layer over
    them with at least one rational argument."""
    keys = {}  # key -> term, in the order first found
    finite = [Compound(n) for n in consts]
    for t in finite:
        keys.setdefault(canon_key(t), t)
    for _ in range(d):
        for name, arity in constructors:
            for combo in itertools.product(finite, repeat=arity):
                t = Compound(name, combo)
                keys.setdefault(canon_key(t), t)
        finite = list(keys.values())
    bindings, rational = {}, []
    for m in range(1, c + 1):
        names = [f"R${i}" for i in range(1, m + 1)]
        leaves = [Compound(n) for n in consts] + [Var(n) for n in names]
        bodies = [Compound(name, combo) for name, arity in constructors
                  for combo in itertools.product(leaves, repeat=arity)]
        for j, system in enumerate(itertools.product(bodies, repeat=m)):
            key = canon_key(Var("R$1"), BindingEnv(dict(zip(names, system))))
            if key in keys:
                continue
            own = {n: Var(f"S{m}.{j}.{n}") for n in names}
            for n, b in zip(names, system):
                bindings[own[n].name] = Compound(b.functor, tuple(
                    own[x.name] if isinstance(x, Var) else x for x in b.args))
            keys[key] = own["R$1"]
            rational.append(own["R$1"])
    env = BindingEnv(bindings)
    rational_ids = {id(t) for t in rational}
    base = list(keys.values())
    for name, arity in constructors:
        for combo in itertools.product(base, repeat=arity):
            if any(id(t) in rational_ids for t in combo):
                t = Compound(name, combo)
                keys.setdefault(canon_key(t, env), t)
    return list(keys)


def test_fragment_skips_only_systems_it_has_keyed_before():
    # build_fragment skips a system with an equation R$1 does not reach and
    # takes finite ground terms as they are; keying every system and term
    # finds the same universe in the same order.
    for text, consts, constructors, d, c in (
            ("p(cons(a, s(X))) :- p(X).", ["a"], [("cons", 2), ("s", 1)],
             1, 2),
            ("p(f(X)) :- p(g(X)).", ["c$0"], [("f", 1), ("g", 1)], 2, 3)):
        frag = build_fragment(parse_program(text), d, c)
        assert list(frag.universe) == _universe_by_brute_force(
            consts, constructors, d, c)
        _assert_keys_hold_in_the_arena(frag)


def test_atom_key_is_the_key_of_each_argument(monkeypatch):
    # Every atom that the oracle-lemmas pool of seed 1 keys, in its lemma
    # checks and its tp_up/tp_down ops, gets one canon_key per argument.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    mods = types.SimpleNamespace(fixpoint=fixpoint, syntax=sys.modules[
        "hornlog.syntax"], terms=sys.modules["hornlog.terms"])
    keyed = 0
    atom_key = GroundFragment.atom_key

    def checking(self, a, env=None):
        nonlocal keyed
        key = atom_key(self, a, env)
        e = env if env is not None else self.env
        assert key == (a.pred, len(a.args)) + tuple(
            canon_key(t, e) for t in a.args)
        keyed += 1
        return key

    monkeypatch.setattr(GroundFragment, "atom_key", checking)
    for op in workloads.oracle_lemmas(mods, 1, ROOT).ops:
        assert op.run().ok, op.spec
    assert keyed > 1000


def _lemma_report(p, n, d, c):
    report = check_transform_lemmas(p, n=n, d=d, c=c)
    return report.stages, report.fragment_atoms, report.counterexamples


def test_a_warm_universe_builds_the_cold_fragment():
    # A seedless universe is built once per signature and shared; a
    # fragment built on a shared universe must equal one built cold, key
    # for key and in order, and so must every lemma check run on it.
    rng = random.Random(0x5EED)
    cases = [(p, n, d, c) for p in (random_lemma_program(rng)
                                    for _ in range(25))
             for n, d, c in ((4, 3, 2), (3, 1, 1), (4, 2, 0))]
    cases += [(parse_program(path.read_text()), 3, d, c)
              for path in sorted((ROOT / "samples").glob("*.lp"))
              for d, c in ((0, 0), (1, 1), (2, 1))]
    cold = []
    for p, n, d, c in cases:
        fixpoint._universe.cache_clear()
        frag = build_fragment(p, d, c)
        fixpoint._universe.cache_clear()
        cold.append((list(frag.universe), list(frag.atoms),
                     _lemma_report(p, n, d, c)))
    fixpoint._universe.cache_clear()
    for _ in range(2):
        for (p, n, d, c), (universe, atoms, report) in zip(cases, cold):
            frag = build_fragment(p, d, c)
            where = [str(clause) for clause in p.clauses]
            assert list(frag.universe) == universe, where
            assert list(frag.atoms) == atoms, where
            _assert_keys_hold_in_the_arena(frag)
            assert _lemma_report(p, n, d, c) == report
    assert fixpoint._universe.cache_info().hits >= 3 * len(cases)


def test_a_shared_universe_stays_as_it_was_built():
    # A seeded fragment of the same signature builds a universe of its
    # own, and a stray add_term on a shared fragment raises instead of
    # growing what later fragments read.
    p = parse_program("p(cons(X, Y)) :- p(Y).")
    shared = build_fragment(p, 0, 0)
    universe, arena = list(shared.universe), shared.env
    goal = parse_goal("p(Z)")
    ans = colp_solve(goal, p, Budget(max_answers=1),
                     certificate=True).answers[0]
    frag = certificate_fragment(p, ans)
    _assert_keys_hold_in_the_arena(frag)
    assert frag.atom_key(goal.atoms[0], ans.full_env) in frag.atoms
    assert "V0" not in frag.env
    assert frag.universe is not shared.universe
    with pytest.raises(TypeError):
        shared.add_term(parse_term("cons(a, a)"), EMPTY_ENV)
    again = build_fragment(p, 0, 0)
    assert again.universe is shared.universe
    assert (list(again.universe), again.env) == (universe, arena)
    _assert_keys_hold_in_the_arena(again)


def test_a_second_lemma_check_of_a_signature_adds_no_term(monkeypatch):
    # Two programs over the same constants and constructors share one
    # universe: the second check enumerates nothing.
    fixpoint._universe.cache_clear()
    added = _count_calls(monkeypatch, GroundFragment, "add_term")
    first = check_transform_lemmas(ZEROS, n=3, d=2, c=1)
    assert first.holds and len(added) > 0
    added.clear()
    other = parse_program("ones(cons(0, cons(0, X))) :- ones(X).\n"
                          "ones(cons(0, 0)).")
    second = check_transform_lemmas(other, n=3, d=2, c=1)
    assert second.holds and second.fragment_atoms == first.fragment_atoms
    assert len(added) == 0


def test_open_heads_scan_only_matching_first_arguments(monkeypatch):
    # On the oracle-lemmas pool of seed 1, _tp_stage unified 10,066 open
    # heads with fragment atoms, 3,213 of which failed on a first-argument
    # clash; first-argument buckets leave none of those.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    mods = types.SimpleNamespace(fixpoint=fixpoint, syntax=sys.modules[
        "hornlog.syntax"], terms=sys.modules["hornlog.terms"])
    calls = 0
    real = fixpoint.unify_atoms

    def counting(a1, a2, env, occurs_check=False):
        nonlocal calls
        if sys._getframe(1).f_code is fixpoint._tp_stage.__code__:
            calls += 1
        return real(a1, a2, env, occurs_check)

    monkeypatch.setattr(fixpoint, "unify_atoms", counting)
    for op in workloads.oracle_lemmas(mods, 1, ROOT).ops:
        assert op.run().ok, op.spec
    assert 0 < calls <= 6853


def test_a_lemma_check_buckets_its_fragment_once(monkeypatch):
    # p's head is left open after the join, so tp_up of p and of its
    # transform and tp_down each scan the fragment's q atoms by first
    # argument; the fragment's one index serves all three chains.
    frags = []
    real_build = fixpoint.build_fragment

    def build(*args, **kwargs):
        frags.append(real_build(*args, **kwargs))
        return frags[-1]

    indexed = []
    real_index = fixpoint.first_index

    def index(pairs, env):
        pairs = list(pairs)
        indexed.append([item for _, item in pairs])
        return real_index(pairs, env)

    monkeypatch.setattr(fixpoint, "build_fragment", build)
    monkeypatch.setattr(fixpoint, "first_index", index)
    p = parse_program("p(f(X)) :- q(Y). q(a).")
    report = check_transform_lemmas(p, n=3, d=1, c=0)
    assert report.holds and len(frags) == 1
    members = list(frags[0].atoms.items())
    assert sum(items == members for items in indexed) == 1


# ---------------------------------------------------------------------------
# One step


def test_tp_step_trivial_chain():
    frag = build_fragment(AB, 1, 0)
    s1 = tp_step(AB, {}, frag)
    assert {a.pred for a in s1.values()} == {"b"}
    s2 = tp_step(AB, s1, frag)
    assert {a.pred for a in s2.values()} == {"a", "b"}


def test_tp_step_zeros_empty_stays_empty():
    frag = build_fragment(ZEROS, 2, 1)
    assert tp_step(ZEROS, {}, frag) == {}


def test_tp_step_zeros_rational_singleton_is_fixed_point():
    frag = build_fragment(ZEROS, 2, 1)
    key = frag.atom_key(ZEROS_RATIONAL_ATOM, ZEROS_RATIONAL_ENV)
    s = {key: frag.atoms[key]}
    out = tp_step(ZEROS, s, frag)
    assert set(out) == {key}


# ---------------------------------------------------------------------------
# Iteration


def test_tp_up_zeros_all_empty():
    frag = build_fragment(ZEROS, 2, 1)
    trace = tp_up(ZEROS, 5, frag)
    assert all(s == {} for s in trace.sets)
    assert trace.fixed_point


def test_tp_up_single_fact_example():
    frag = build_fragment(parse_program("a."), 1, 0)
    trace = tp_up(parse_program("a."), 2, frag)
    assert [set(s) for s in trace.sets] == [set(), {("a", 0)}, {("a", 0)}]
    assert trace.fixed_point


def test_tp_up_increasing_and_down_decreasing():
    frag = build_fragment(ADD, 2, 0)
    up = tp_up(ADD, 4, frag)
    for a, b in zip(up.sets, up.sets[1:]):
        assert set(a) <= set(b)
    down = tp_down(ADD, 4, frag)
    assert set(down.sets[0]) == set(frag.atoms)
    for a, b in zip(down.sets, down.sets[1:]):
        assert set(b) <= set(a)


def test_tp_down_zeros_stabilizes_at_rational_singleton():
    frag = build_fragment(ZEROS, 3, 1)
    trace = tp_down(ZEROS, 6, frag)
    assert trace.fixed_point
    expected = frag.atom_key(ZEROS_RATIONAL_ATOM, ZEROS_RATIONAL_ENV)
    assert set(trace.final()) == {expected}


def test_tp_step_monotone_on_random_inputs():
    rng = random.Random(7)
    for _ in range(20):
        clauses = []
        for i in range(1, rng.randint(2, 4) + 1):
            head = Atom(rng.choice("pq"),
                        (Compound("f", (Var("X"),)) if rng.random() < 0.5
                         else Var("X"),))
            body = tuple(Atom(rng.choice("pq"), (Var("X"),))
                         for _ in range(rng.randint(0, 2)))
            clauses.append(Clause(head, body, idx=i))
        p = Program(tuple(clauses))
        frag = build_fragment(p, 2, 0)
        atoms = list(frag.atoms.items())
        rng.shuffle(atoms)
        cut = rng.randrange(len(atoms) + 1)
        s1 = dict(atoms[:cut])
        s2 = dict(atoms)
        out1 = tp_step(p, s1, frag)
        out2 = tp_step(p, s2, frag)
        assert set(out1) <= set(out2)


def _step_by_product(p, s, frag):
    """The fragment keys of T_P(s), by grounding every clause over the term
    universe with a plain product: a ground head counts when it is a
    fragment atom and every ground body atom is in ``s``."""
    out = set()
    for clause in p.clauses:
        rc, env0 = rename_apart(clause, frag.env)
        names = sorted({v.name for atom in (rc.head,) + rc.body
                        for t in atom.args for v in term_vars(t)})
        for combo in itertools.product(frag.universe.values(),
                                       repeat=len(names)):
            env = env0
            for name, t in zip(names, combo):
                env = env.bind(name, t)
            head = frag.atom_key(rc.head, env)
            if head in frag.atoms and all(frag.atom_key(b, env) in s
                                          for b in rc.body):
                out.add(head)
    return out


def test_tp_step_matches_grounding_by_product():
    # The proof-carrying step joins the same way, so it keeps exactly the
    # members of ``s`` that the product derives.
    rng = random.Random(0x7E57)
    stages = 0
    for _ in range(40):
        p = random_lemma_program(rng)
        p_trans = transform_program(p).program
        frag = build_fragment(p, 1, 1)
        for trace in (tp_up(p, 4, frag), tp_down(p, 4, frag)):
            for s in trace.sets:
                by_product = _step_by_product(p, s, frag)
                assert set(tp_step(p, s, frag)) == by_product
                assert set(fixpoint._proof_stage(
                    fixpoint._proof_heads(p_trans, frag), frag, s, s)) \
                    == set(s) & by_product
                stages += 1
    assert stages == 400


def test_proof_chains_leave_the_arena_fixed(monkeypatch):
    # The upward proof side stores proof arguments resolved, rebasing
    # nothing; the downward one renames each clause once per step.
    p = transform_program(SUBCLASS_AB).program
    frag = build_fragment(SUBCLASS_AB, 1, 1)
    arena = frag.env
    rebased = _count_calls(monkeypatch, fixpoint, "from_mu")
    renamed = _count_calls(monkeypatch, fixpoint, "rename_apart")
    up = tp_up(p, 4, frag, ignore_last=True)
    assert up.final() and frag.env is arena and not rebased
    # the chain renames each clause once, not once per stage
    assert [len(s) for s in up.sets] == [0, 3, 6, 6, 6]
    assert len(renamed) == len(p.clauses)
    renamed.clear()
    fixpoint._proof_stage(fixpoint._proof_heads(p, frag), frag, frag.atoms,
                          frag.atoms)
    assert 0 < len(renamed) <= len(p.clauses)
    renamed.clear()
    down = fixpoint._proof_chain(fixpoint._proof_heads(p, frag), 4, frag)
    assert [len(s) for s in down.sets] == [10, 7, 6, 6, 6]
    assert len(renamed) == len(p.clauses)


# ---------------------------------------------------------------------------
# Joins by need


def _all_branching_joins(body, one, by_pred, env):
    """``_joins`` before join plans: every atom joins every member."""
    stack = [(0, env)]
    while stack:
        i, env = stack.pop()
        if i == len(body):
            yield env
            continue
        for member in by_pred.get(body[i].key, ()):
            u = unify_atoms(body[i], member, env, occurs_check=False)
            if u is not None:
                stack.append((i + 1, u))


def _chains(p, frag, n, proof_down):
    """Every stage of ``tp_up``, ``tp_down``, the proof-carrying ``tp_up``
    and the proof-carrying downward chain, which ``proof_down(p_trans)``
    builds: its keys in order, each with its representative's text."""
    p_trans = transform_program(p).program
    traces = (tp_up(p, n, frag), tp_down(p, n, frag),
              tp_up(p_trans, n, frag, ignore_last=True),
              proof_down(p_trans))
    return [[(key, atom_text(a)) for key, a in stage.items()]
            for trace in traces for stage in trace.sets]


def _certificate_fragments():
    for text, goal in (("zeros(cons(0, X)) :- zeros(X).", "zeros(X)"),
                       ("add(0, Y, Y). add(s(X), Y, s(Z)) :- add(X, Y, Z).",
                        "add(X, Y, s(s(0)))"),
                       ("p(cons(X, Y)) :- p(Y).", "p(Z)"),
                       ("p(cons(X, Y)) :- p(Y), q(X, W). q(A, B).", "p(Z)")):
        p = parse_program(text)
        for ans in colp_solve(parse_goal(goal), p, Budget(max_answers=3),
                              certificate=True).answers:
            yield p, certificate_fragment(p, ans)


def test_joins_by_need_keep_every_stage_of_the_full_join(monkeypatch):
    # The reference joins every member and walks for groundness, as a
    # fragment with free variables does; the plan must leave each stage's
    # keys, their order and their representatives as they were.
    rng = random.Random(0x10E7)
    cases = []
    for _ in range(300):
        p = random_lemma_program(rng)
        cases += [(p, build_fragment(p, d, c), n)
                  for n, d, c in ((4, 3, 2), (3, 1, 1), (4, 2, 0))]
    cases += [(p, frag, 3) for p, frag in _certificate_fragments()]
    assert sum(frag._free for _, frag, _ in cases) >= 2
    # The chain keeps what each head gave each atom from stage to stage;
    # the reference steps every stage afresh.
    for p, frag, n in cases:
        got = _chains(p, frag, n, lambda pt: fixpoint._proof_chain(
            fixpoint._proof_heads(pt, frag), n, frag))
        free = replace(frag, _free=True)
        with monkeypatch.context() as m:
            m.setattr(fixpoint, "_joins", _all_branching_joins)
            want = _chains(p, free, n, lambda pt: fixpoint._iterate(
                dict(free.atoms), n, lambda s: fixpoint._proof_stage(
                    fixpoint._proof_heads(pt, free), free, s, s)))
        assert got == want, [str(c) for c in p.clauses]


def test_first_argument_buckets_keep_every_stage(monkeypatch):
    # An open head scans only the atoms whose first argument can match its
    # own, and the proof chain tries only the heads whose first argument
    # can match its atom's; a free first argument can match any.  Every
    # stage keeps the keys, order and representatives of a scan of all.
    rng = random.Random(0xB0C)
    cases = [(p, build_fragment(p, d, c), n)
             for p in (random_lemma_program(rng) for _ in range(30))
             for n, d, c in ((4, 3, 2), (3, 1, 1))]
    cases += [(p, frag, 3) for p, frag in _certificate_fragments()]
    p = parse_program("p(f(X)) :- q(Y). q(a). q(f(a)). r(g(X)) :- p(X).")
    seeds = [(Atom("p", (Var("W"),)), EMPTY_ENV),
             (Atom("r", (Var("U"),)), EMPTY_ENV)]
    cases.append((p, build_fragment(p, 1, 0, seed_atoms=seeds), 3))

    def unbucketed(index, atom, env):
        return index.get(atom.key, ((),))[0]

    for p, frag, n in cases:
        got = _chains(p, frag, n, lambda pt: fixpoint._proof_chain(
            fixpoint._proof_heads(pt, frag), n, frag))
        with monkeypatch.context() as m:
            m.setattr(fixpoint, "first_pick", unbucketed)
            want = _chains(p, frag, n, lambda pt: fixpoint._proof_chain(
                fixpoint._proof_heads(pt, frag), n, frag))
        assert got == want, [str(c) for c in p.clauses]


def test_every_stage_holds_only_fragment_atoms():
    # A consequence is keyed by the fragment atom it instantiates, so no
    # stage outgrows the fragment, and the fragment's own cap (checked as
    # atoms enter it) bounds every stage as well.
    rng = random.Random(0x10E7)
    cases = []
    for _ in range(40):
        p = random_lemma_program(rng)
        cases += [(p, build_fragment(p, d, c), n)
                  for n, d, c in ((4, 3, 2), (3, 1, 1), (4, 2, 0))]
    cases += [(p, frag, 3) for p, frag in _certificate_fragments()]
    seen = 0
    for p, frag, n in cases:
        for trace in (tp_up(p, n, frag), tp_down(p, n, frag),
                      tp_up(transform_program(p).program, n, frag,
                            ignore_last=True)):
            for stage in trace.sets:
                assert stage.keys() <= frag.atoms.keys(), \
                    [str(c) for c in p.clauses]
                seen += len(stage)
    assert seen > 1000


def test_down_member_with_proof_of_a_non_ground_atom_joins_its_body():
    # Z is free, so the head leaves q(X) open: q(X) joins the stage, as in
    # a fragment with free variables, instead of being looked up by key.
    p = parse_program("p(X) :- q(X). q(a).")
    frag = build_fragment(p, 1, 0)
    a = Atom("p", (Var("Z"),))
    assert down_member_with_proof(transform_program(p).program, a, 2, frag)


def test_tp_down_joins_each_existential_atom_once(monkeypatch):
    # Neither p(X) nor p(Y) binds a variable that the head or a later atom
    # reads, so each joins one member; the full join tried all 21,567 pairs
    # and head candidates of this program at (n, d, c) = (4, 3, 2).
    p = parse_program("r(g(g(Z))) :- p(X), p(Y).\np(g(f(Z))).\n"
                      "r(g(g(a))) :- r(a), q(a).")
    frag = build_fragment(p, 3, 2)
    unified = _count_calls(monkeypatch, fixpoint, "unify_atoms")
    trace = tp_down(p, 4, frag)
    assert [len(s) for s in trace.sets] == [81, 12, 12, 12, 12]
    assert len(unified) <= 500


# ---------------------------------------------------------------------------
# Goal-directed membership


def test_up_member_stage_bounds():
    zero = parse_goal("add(0, 0, 0)").atoms[0]
    one = parse_goal("add(s(0), 0, s(0))").atoms[0]
    assert not up_member(ADD, zero, 0)
    assert up_member(ADD, zero, 1)
    assert not up_member(ADD, one, 1)
    assert up_member(ADD, one, 2)


def test_up_member_agrees_with_materialized_chain():
    frag = build_fragment(ADD, 2, 0)
    trace = tp_up(ADD, 4, frag)
    for k in range(5):
        for key, atom in frag.atoms.items():
            assert up_member(ADD, atom, k, frag.env) == (key in trace.sets[k])


def test_up_member_on_a_long_body_does_not_recurse():
    # The search keeps its conjuncts on a stack: 2,000 of them in one body
    # cost no Python frames.
    p = parse_program("p :- " + ", ".join(["q"] * 2000) + ". q.")
    assert up_member(p, Atom("p", ()), 2)
    assert not up_member(p, Atom("p", ()), 1)


def test_sld_answers_inside_up_limit():
    frag = build_fragment(ADD, 2, 0)
    limit = tp_up(ADD, 4, frag).final()
    verdict = sld_solve(parse_goal("add(X, Y, s(s(0)))"), ADD)
    goal = parse_goal("add(X, Y, s(s(0)))").atoms[0]
    for ans in verdict.answers:
        assert frag.atom_key(goal, ans.bindings) in limit


def test_down_member_with_proof_zeros():
    tp = transform_program(ZEROS)
    frag = build_fragment(ZEROS, 2, 1)
    rational = frag.atoms[frag.atom_key(ZEROS_RATIONAL_ATOM,
                                        ZEROS_RATIONAL_ENV)]
    for k in range(4):
        assert down_member_with_proof(tp.program, rational, k, frag)
    finite = frag.atoms[frag.atom_key(
        parse_goal("zeros(cons(0, 0))").atoms[0], EMPTY_ENV)]
    assert down_member_with_proof(tp.program, finite, 1, frag)
    assert not down_member_with_proof(tp.program, finite, 2, frag)


# ---------------------------------------------------------------------------
# Lemma checks


def test_lemmas_hold_for_zeros():
    report = check_transform_lemmas(ZEROS, n=3, d=2, c=1)
    assert report.holds, report.counterexamples


def test_lemmas_hold_for_two_class_hierarchy():
    report = check_transform_lemmas(SUBCLASS_AB, n=4, d=1, c=1)
    assert report.holds, report.counterexamples
    assert report.fragment_atoms == 10


def test_lemmas_hold_for_infinite_programs():
    report = check_transform_lemmas(
        parse_program("p(f(X)) :- p(X). q(X) :- q(X)."), n=3, d=2, c=1)
    assert report.holds, report.counterexamples


# The referee can fail: a transform that breaks a lemma is reported.

# subclass.lp's proof side without its last clause, extends(a, object)
DROPPED_LAST_CLAUSE = [
    *(f"up k={k}: extends(a, object) has no proof-carrying counterpart"
      for k in range(1, 5)),
    *(f"down k={k}: extends(a, object) in plain iteration but proof side "
      "says False" for k in range(1, 5)),
]


def _sabotage(monkeypatch, edit) -> None:
    """Make the lemma check transform a program into what ``edit`` makes of
    the transformed clauses."""
    real = fixpoint.transform_program

    def sabotaged(p):
        t = real(p)
        return replace(t, program=Program(edit(t.program.clauses)))

    monkeypatch.setattr(fixpoint, "transform_program", sabotaged)


def test_the_lemma_check_reports_a_transform_that_drops_a_clause(
        monkeypatch):
    _sabotage(monkeypatch, lambda clauses: clauses[:-1])
    report = check_transform_lemmas(parse_program(SUBCLASS.read_text()))
    assert not report.holds
    assert report.counterexamples == DROPPED_LAST_CLAUSE


def test_the_lemma_check_reports_a_transform_that_adds_a_fact(monkeypatch):
    # extends(object, a) is a fragment atom that subclass.lp does not derive
    extra = parse_program("extends(object, a, k$9).").clauses
    _sabotage(monkeypatch, lambda clauses: clauses + extra)
    report = check_transform_lemmas(parse_program(SUBCLASS.read_text()))
    lines = report.counterexamples
    for k in range(1, 5):
        assert (f"up k={k}: the proof-carrying atom extends(object, a, k$9) "
                "strips to an atom outside the plain iteration") in lines
        assert (f"down k={k}: extends(object, a) not in plain iteration but "
                "proof side says True") in lines
    assert not any("no proof-carrying counterpart" in line for line in lines)


def test_oracle_lemmas_prints_each_counterexample_and_exits_1(
        capsys, monkeypatch):
    _sabotage(monkeypatch, lambda clauses: clauses[:-1])
    assert main(["oracle", str(SUBCLASS), "lemmas"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("".join(f"{line}\n" for line in DROPPED_LAST_CLAUSE),
                          "")


def test_lemmas_vacuous_on_empty_program():
    report = check_transform_lemmas(parse_program(""), n=2, d=1, c=0)
    assert report.holds
    assert report.fragment_atoms == 0


def test_lemma_check_caps_leftover_instantiations(monkeypatch):
    # The proof side binds X, Y and Z by joining the stage, not by a product
    # over the 4-term universe (64 choices), so the fragment's own cap is
    # the only one.
    p = parse_program("p(a) :- q(X), q(Y), q(Z). q(f(X)) :- q(X). q(a).")
    monkeypatch.setattr(fixpoint, "CAP", 8)
    report = check_transform_lemmas(p, n=2, d=3, c=0)
    assert report.holds, report.counterexamples
    assert report.fragment_atoms == 8


def test_lemma_check_keys_no_fragment_atom_again(monkeypatch):
    # Keys once: the checker holds each fragment atom's key from
    # ``frag.atoms`` and never asks for it again, its universe built cold.
    fixpoint._universe.cache_clear()
    frags = []
    keyed = []
    build = fixpoint.build_fragment
    atom_key = GroundFragment.atom_key

    def recording_build(*args, **kwargs):
        frags.append(build(*args, **kwargs))
        return frags[-1]

    def recording_key(self, a, *args, **kwargs):
        keyed.append(a)
        return atom_key(self, a, *args, **kwargs)

    monkeypatch.setattr(fixpoint, "build_fragment", recording_build)
    monkeypatch.setattr(GroundFragment, "atom_key", recording_key)
    report = check_transform_lemmas(ZEROS, n=3, d=2, c=1)
    assert report.holds and report.fragment_atoms
    (frag,) = frags
    members = {id(a) for a in frag.atoms.values()}
    assert keyed and not [a for a in keyed if id(a) in members]


def test_lemma_counterexamples_print_atoms_not_keys(monkeypatch):
    # The proof side keeps a clause that the plain program lacks, so its
    # atoms strip to atoms outside the plain iteration.
    plain = Program(tuple(c for c in SUBCLASS_AB.clauses
                          if c.idx != 5))  # class(a).
    monkeypatch.setattr(fixpoint, "transform_program",
                        lambda p: transform_program(SUBCLASS_AB))
    report = check_transform_lemmas(plain, n=2, d=1, c=1)
    strips = [line for line in report.counterexamples if "strips to" in line]
    assert "up k=1: the proof-carrying atom class(a, k$5) strips to an atom " \
           "outside the plain iteration" in strips
    assert not [line for line in report.counterexamples
                if "('f'" in line or "('v'" in line]


# ---------------------------------------------------------------------------
# Certificates


def test_certificate_closes_downward_for_zeros():
    verdict = colp_solve(parse_goal("zeros(X)"), ZEROS,
                         Budget(max_answers=1), certificate=True)
    ans = verdict.answers[0]
    frag = certificate_fragment(ZEROS, ans)
    trace = tp_down(ZEROS, 3, frag)
    assert trace.fixed_point
    goal_atom = parse_goal("zeros(X)").atoms[0]
    assert frag.atom_key(goal_atom, ans.full_env) in trace.final()


def test_certificate_requires_certificate_answers():
    verdict = colp_solve(parse_goal("zeros(X)"), ZEROS, Budget(max_answers=1))
    with pytest.raises(ValueError):
        certificate_fragment(ZEROS, verdict.answers[0])


# ---------------------------------------------------------------------------
# The referee on every answer of random programs


def _answer_set(verdict) -> set:
    return {canon_key(Compound("", tuple(Var(n) for n in a.goal_vars)),
                      a.bindings) for a in verdict.answers}


def test_the_referee_accepts_every_answer_of_random_programs():
    # Cycles and non-termination allowed: a colp answer's certificate must
    # close downward with the goal inside, and a total sld or sres answer
    # must hold at an upward stage no later than its step count.  The
    # occurs check keeps sld's answers finite, as the least model's are.
    rng = random.Random(12345)
    budget = Budget(max_steps=300, max_depth=30, max_rewrite_steps=60,
                    max_subst_steps=60, max_answers=3)
    closed = derived = 0
    for _ in range(400):
        p = random_program(rng)
        goal = Goal((random_atom(rng),))
        where = ([str(c) for c in p.clauses], goal)
        for answer in colp_solve(goal, p, budget, certificate=True).answers:
            frag = certificate_fragment(p, answer)
            trace = tp_down(p, len(frag.atoms) + 1, frag)
            assert trace.fixed_point, where
            assert frag.atom_key(goal.atoms[0], answer.full_env) \
                in trace.final(), where
            closed += 1
        answers = sld_solve(goal, p, budget).answers
        assert all(a.kind == "total" for a in answers), where
        answers += [a for a in sres_solve(goal, p, budget, lazy_k=3).answers
                    if a.kind == "total"]
        for answer in answers:
            assert any(up_member(p, goal.atoms[0], k, answer.bindings)
                       for k in range(answer.steps_used + 1)), where
        derived += len(answers)
    assert closed >= 50 and derived >= 50
    # On terminating programs the three engines find the same answer set.
    for _ in range(100):
        p = random_terminating_program(rng)
        goal = random_terminating_query(rng, p)
        sld = sld_solve(goal, p)
        assert sld.kind == "answers"
        assert _answer_set(colp_solve(goal, p)) == _answer_set(sld) == \
            _answer_set(sres_solve(goal, p, lazy_k=None)), \
            [str(c) for c in p.clauses]


def test_proof_chain_unifies_no_head_that_cannot_match(monkeypatch):
    # On from.lp's lemma check, unifying every stripped head with every
    # atom of its predicate made 18,858 head unifications, 218 of them
    # successful; the chain unifies each (atom, clause) pair at most once.
    calls = failed = 0
    real = fixpoint.unify_atoms

    def counting(a1, a2, env, occurs_check=False):
        nonlocal calls, failed
        u = real(a1, a2, env, occurs_check)
        if sys._getframe(1).f_code is fixpoint._proof_stage.__code__:
            calls += 1
            failed += u is None
        return u

    monkeypatch.setattr(fixpoint, "unify_atoms", counting)
    report = check_transform_lemmas(FROM)
    assert (report.holds, report.stages) == (True, 4)
    assert (calls, failed) == (129, 0)

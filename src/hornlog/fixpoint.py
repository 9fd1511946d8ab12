"""Brute-force fixed-point semantics over finite fragments of the ground base.

The immediate-consequence operator is iterated upward from the empty set and
downward from a finite fragment of the (complete) ground atom base.  The
fragment holds finite ground terms up to a depth bound ``d`` and — since
infinite-but-regular terms are the only infinite terms we can represent —
rational ground terms with at most ``c`` cycle equations, each one
constructor deep, plus one constructor layer mixing the two.  Fragments can
additionally be seeded with externally produced terms and atoms (for
example, everything a solver's answer environment reaches), which is how
answers of the engines are checked against the model-theoretic semantics on
programs whose full fragment would be astronomically large.

All fragment terms live in one shared "arena" environment.  A finite
ground term is the same under every environment and enters it as it is;
any other term is rebased into it, through its canonical equation form,
only while the universe is built.  A seedless universe depends only on
the constants, constructors, ``d``, ``c`` and ``CAP``, so it is built once
per such signature in a process (``_universe``); its terms, ground-key
table and arena are then shared by every fragment of that signature, the
tables as read-only mappings, and each fragment adds only its own atoms.
A seeded fragment builds its universe afresh.  After that the arena is
fixed, and every step renames clauses apart from the same ``frag.env``: a
chain (``tp_up``, ``tp_down``, the proof-carrying downward chain) renames
and plans each clause once and hands the result to every stage.

A fragment member is identified by its canonical key.  Each term entering
the universe is keyed once, and so is each argument of a seeded atom; an
atom of the predicate product takes its key from the keys of its
arguments.  ``atom_key`` looks a finite ground argument up among the
finite ground members before it keys one.  The loops below carry the keys
of the atoms they hold (from ``frag.atoms`` or from a stage set) instead of
keying them again.  ``tp_step`` and ``_proof_step`` join clause bodies
against a stage with one generator, ``_joins``, which scans members and
keys none.  Candidates are picked by first argument through the one index
that ``Program.select`` reads too (``first_index`` and ``first_pick`` in
``hornlog.terms``): an open head's fragment atoms, from an index each
fragment builds once, on first use, and the proof chain's heads.

The join follows a plan read off each clause (``_plan``).  A body atom is
*existential* when every variable it shares with the head or a later atom
is bound by an earlier one: whichever member it joins, the rest of the join
comes out the same, so it joins one member, the last that unifies, which is
the one the full join explores first.  Each key is still derived first from
the same join result, so stages keep their keys, order and representatives.
The plan also says whether the head or a body atom is ground after the
join.  Both readings need ground members: a fragment seeded with free
variables (``certificate_fragment``) joins every member and walks the terms
to tell what is ground.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Optional

from hornlog.syntax import atom_text
from hornlog.terms import (
    Atom,
    BindingEnv,
    Compound,
    EMPTY_ENV,
    Program,
    Var,
    bump_counter_past,
    canon_key,
    first_index,
    first_pick,
    from_mu,
    head_matches,
    rename_apart,
    resolve,
    subterms,
    term_vars,
    to_mu,
    unify_atoms,
)
from hornlog.transform import transform_program

CAP = 10 ** 6  # most terms or atoms one fragment (so one stage) holds
UNIVERSES = 64  # most seedless universes ``_universe`` keeps
INJECTED_CONSTANT = "c$0"


class FragmentError(Exception):
    pass


@dataclass
class GroundFragment:
    """The term universe and the atoms of a fragment, all valid under the
    arena ``env``.  ``build_fragment`` fills it; after that the fragment
    is read-only, so the arena and every atom taken from it stay fixed.
    A seedless fragment shares its universe and ground-key table with the
    others of its signature as read-only mappings, so ``add_term`` on it
    raises ``TypeError`` for a new term."""

    universe: dict = field(default_factory=dict)  # canon term key -> term
    atoms: dict = field(default_factory=dict)  # canon atom key -> Atom
    env: BindingEnv = EMPTY_ENV
    _free: bool = False  # does a member hold a free variable?
    # finite ground member -> its key; equal terms hash alike (``fp``)
    _ground_keys: dict = field(default_factory=dict, repr=False)

    def atom_key(self, a: Atom, env: Optional[BindingEnv] = None):
        e = env if env is not None else self.env
        key = [a.pred, len(a.args)]
        for t in a.args:
            t = e.walk(t)
            k = self._ground_keys.get(t) if t.fp is not None else None
            key.append(canon_key(t, e) if k is None else k)
        return tuple(key)

    def add_term(self, t, env: BindingEnv):
        """Add ``t`` to the universe, rebased onto the arena unless it is
        finite and ground; its arena term if new, else None."""
        key = canon_key(t, env)
        if key in self.universe:
            return None
        if len(self.universe) >= CAP:
            raise FragmentError(f"fragment cap {CAP} exceeded")
        if t.fp is None:
            t, self.env = from_mu(to_mu(env, t), self.env)
        else:
            self._ground_keys[t] = key
        self.universe[key] = t
        return t

    def add_atom(self, key, atom: Atom) -> None:
        """Add ``atom``, whose arguments are arena terms, under ``key``."""
        if key not in self.atoms:
            if len(self.atoms) >= CAP:
                raise FragmentError(f"fragment cap {CAP} exceeded")
            self.atoms[key] = atom

    @functools.cached_property
    def _index(self) -> dict:
        """``first_index`` of the ``(key, atom)`` members under the arena,
        built on first use, so once per fragment."""
        return first_index(((a, (key, a)) for key, a in self.atoms.items()),
                           self.env)


def _signature(p: Program):
    funcs = set()
    preds = set()
    for c in p.clauses:
        for atom in (c.head,) + c.body:
            preds.add(atom.key)
            funcs.update((t.functor, len(t.args))
                         for t in subterms(atom.args, EMPTY_ENV)
                         if isinstance(t, Compound))
    return funcs, preds


def build_fragment(p: Program, d: int = 2, c: int = 0, *,
                   seed_atoms=(), atom_products: bool = True) -> GroundFragment:
    """Enumerate a finite, deterministic fragment of the ground base.

    The term universe depends only on the program's constants and
    constructors, ``d``, ``c`` and ``CAP``.  Without seeds it is built
    once per such signature in a process (``_universe``) and shared,
    with its ground-key table, as read-only mappings: each call builds
    only its own atoms.  ``seed_atoms`` are ``(atom, env)`` pairs taken
    into the fragment together with all their subterms.  A seed's free
    variables stay free in the arena, whose fresh names start past every
    seed environment's counter and every ``V<n>`` name in a seed atom, so
    a seeded fragment builds its universe afresh.  With ``atom_products``
    the atom set is the full product of predicates over the term
    universe; switched off, only seeded atoms are present (useful when
    the product would dwarf the cap but a known atom set is being
    checked).
    """
    funcs, preds = _signature(p)
    consts = sorted(n for n, a in funcs if a == 0) or [INJECTED_CONSTANT]
    constructors = sorted((n, a) for n, a in funcs if a > 0)

    if seed_atoms:
        top = max(bump_counter_past(env, a).counter for a, env in seed_atoms)
        frag = GroundFragment(env=EMPTY_ENV.with_counter(top))
        _enumerate(frag, consts, constructors, d, c)
        for a, env in seed_atoms:
            for sub in subterms(a.args, env):
                if isinstance(sub, Compound):
                    frag.add_term(sub, env)
                else:
                    frag._free = True
    else:
        universe, ground_keys, env = _universe(
            tuple(consts), tuple(constructors), d, c, CAP)
        frag = GroundFragment(universe, {}, env, _ground_keys=ground_keys)

    if atom_products:
        for pred, arity in sorted(preds):
            if len(frag.universe) ** arity > CAP:
                raise FragmentError(
                    f"atom product for {pred}/{arity} exceeds cap {CAP}")
            for keys in itertools.product(frag.universe, repeat=arity):
                frag.add_atom((pred, arity) + keys, Atom(pred, tuple(
                    frag.universe[k] for k in keys)))

    # A seed argument is a universe term, or a free variable keyed by name.
    for a, env in seed_atoms:
        keys = tuple(canon_key(t, env) for t in a.args)
        frag.add_atom((a.pred, len(keys)) + keys, Atom(a.pred, tuple(
            Var(k[1]) if k[0] == "v" else frag.universe[k] for k in keys)))

    return frag


@functools.lru_cache(maxsize=UNIVERSES)
def _universe(consts: tuple, constructors: tuple, d: int, c: int,
              cap: int) -> tuple:
    """The seedless universe of a signature under ``cap`` (``CAP`` when
    called): the universe, its ground-key table, both read-only, and the
    arena they are valid under."""
    frag = GroundFragment()
    _enumerate(frag, consts, constructors, d, c)
    return (MappingProxyType(frag.universe),
            MappingProxyType(frag._ground_keys), frag.env)


def _enumerate(frag: GroundFragment, consts, constructors, d: int,
               c: int) -> None:
    """Add the finite terms up to depth ``d`` and the rational terms of up
    to ``c`` equations to ``frag``'s universe.  A candidate term is keyed
    once and, if new, stored as it is when finite and ground, else rebased
    onto the arena; a rational system that another system tried before
    must denote is not keyed at all."""
    # Finite terms, by depth layers.  A combination of older terms only was
    # tried in an earlier layer, so each layer tries those with at least one
    # argument from the newest layer.
    for name in consts:
        frag.add_term(Compound(name), EMPTY_ENV)
    finite = list(frag.universe.values())
    newest = finite
    for _ in range(d):
        newest_ids = {id(t) for t in newest}
        newest = []
        for name, arity in constructors:
            for combo in itertools.product(finite, repeat=arity):
                if not any(id(t) in newest_ids for t in combo):
                    continue
                term = frag.add_term(Compound(name, combo), frag.env)
                if term is not None:
                    newest.append(term)
        finite = finite + newest

    # Rational terms: systems of up to c equations, one constructor deep.
    # A system with an equation that R$1 does not reach denotes what the
    # smaller system of the equations it reaches denotes, renamed in order
    # so that R$1 stays first; that one was tried before, so it is skipped.
    rational = []
    if c >= 1 and constructors:
        for m in range(1, c + 1):
            names = [f"R${i}" for i in range(1, m + 1)]
            leaves = [Compound(n) for n in consts] + [Var(n) for n in names]
            bodies = []
            for name, arity in constructors:
                bodies.extend(Compound(name, combo)
                              for combo in itertools.product(leaves,
                                                             repeat=arity))
            for system in itertools.product(bodies, repeat=m):
                reached = {0}
                for _ in names:
                    reached |= {names.index(x.name) for i in reached
                                for x in system[i].args if isinstance(x, Var)}
                if len(reached) < m:
                    continue
                env = BindingEnv({n: b for n, b in zip(names, system)})
                term = frag.add_term(Var(names[0]), env)
                if term is not None:
                    rational.append(term)

        # One constructor layer mixing finite and rational parts.
        rational_ids = {id(t) for t in rational}
        base = list(frag.universe.values())
        for name, arity in constructors:
            for combo in itertools.product(base, repeat=arity):
                if not any(id(t) in rational_ids for t in combo):
                    continue
                frag.add_term(Compound(name, combo), frag.env)


# ---------------------------------------------------------------------------
# The immediate-consequence operator


def _names(atoms) -> set:
    return {v.name for a in atoms for t in a.args for v in term_vars(t)}


def _ground(a: Atom, env: BindingEnv) -> bool:
    return not any(isinstance(x, Var) for x in subterms(a.args, env))


def _plan(body, bound: set, read: set, frag: GroundFragment) -> tuple:
    """The join plan of ``body`` once the names in ``bound`` are bound, with
    those in ``read`` read after it: whether each atom is existential, and
    whether every name in ``read`` is ground after the join (``None`` in a
    fragment with free variables, where a member can bind one of them)."""
    if frag._free:
        return (False,) * len(body), None
    names = [_names((b,)) for b in body]
    one = tuple(vs & read.union(*names[i + 1:]) <= bound.union(*names[:i])
                for i, vs in enumerate(names))
    return one, read <= bound.union(*names)


def _joins(body, one, by_pred: dict, env: BindingEnv):
    """Each extension of ``env`` under which every atom of ``body`` unifies
    with a member of ``by_pred`` (atoms by predicate key), depth first.

    When ``one[i]`` (``body[i]`` is existential), ``body[i]`` joins only
    the last member that unifies.  The stack is last in, first out, so that
    is the member a full join explores first, and the results keep the full
    join's order."""
    stack = [(0, env)]
    while stack:
        i, env = stack.pop()
        if i == len(body):
            yield env
            continue
        members = by_pred.get(body[i].key, ())
        for member in reversed(members) if one[i] else members:
            u = unify_atoms(body[i], member, env, occurs_check=False)
            if u is not None:
                stack.append((i + 1, u))
                if one[i]:
                    break


def tp_step(p: Program, s: dict, frag: GroundFragment,
            ignore_last: bool = False) -> dict:
    """One application of the immediate-consequence operator, restricted to
    the fragment.

    ``s`` maps canonical atom keys to representative atoms (all valid under
    the fragment arena).  Clause bodies are joined against ``s``; head
    variables the body leaves free are instantiated from fragment atoms.
    With ``ignore_last`` the fragment restriction skips each atom's final
    argument — the mode used for programs carrying proof arguments, whose
    proof terms are not fragment members.  The head's proof argument is
    stored resolved: in the upward chain from the empty set, each one is a
    finite ground term built from earlier proofs.

    The plan reads the head as keyed, without its proof argument under
    ``ignore_last``.  An existential atom joins one member, which never
    drops the first derivation of a key, so the stored proof arguments are
    the full join's too.  The head is ground after the join when the body
    binds all its variables.  Each call renames and plans the clauses
    (``_tp_plans``); ``tp_up`` and ``tp_down`` do that once per chain and
    step with ``_tp_stage``.
    """
    return _tp_stage(_tp_plans(p, frag, ignore_last), s, frag, ignore_last)


def _tp_plans(p: Program, frag: GroundFragment, ignore_last: bool) -> list:
    """What every ``tp_step`` of ``p`` over ``frag`` reads: each clause
    renamed apart from the arena, with its head, its keyed head and its
    join plan.  An open head unifies only with the fragment atoms that the
    fragment's first-argument index (``first_pick``, as ``Program.select``
    picks clauses) does not rule out."""
    plans = []
    for clause in p.clauses:
        rc, env0 = rename_apart(clause, frag.env)
        head = rc.head
        trimmed = Atom(head.pred, head.args[:-1]) if ignore_last else head
        one, ground = _plan(rc.body, set(), _names((trimmed,)), frag)
        plans.append((rc.body, env0, head, trimmed, one, ground))
    return plans


def _tp_stage(plans: list, s: dict, frag: GroundFragment,
              ignore_last: bool) -> dict:
    """``tp_step`` from its ``_tp_plans``."""
    by_pred = {}
    for a in s.values():
        by_pred.setdefault(a.key, []).append(a)
    out = {}
    for body, env0, head, trimmed, one, ground in plans:
        for env in _joins(body, one, by_pred, env0):
            # Every admissible ground instance of the head *is* a fragment
            # atom, so unifying with those finds exactly what a product over
            # the universe would, and each instance takes its atom's key.
            # (With ``ignore_last`` proof variables stay free in the stored
            # representative: any grounding would witness the same key.)
            if ground or ground is None and _ground(trimmed, env):
                key = frag.atom_key(trimmed, env)
                matches = [(key, env)] if key in frag.atoms else []
            else:
                matches = []
                for key, cand in first_pick(frag._index, trimmed, env):
                    u = unify_atoms(trimmed, cand, env, occurs_check=False)
                    if u is not None:
                        matches.append((key, u))
            for key, envf in matches:
                if key in out:
                    continue
                atom = frag.atoms[key]
                if ignore_last:
                    atom = Atom(atom.pred, atom.args
                                + (resolve(envf, head.args[-1]),))
                out[key] = atom
    return out


@dataclass
class FixpointTrace:
    sets: list      # n+1 dicts of canon key -> Atom
    fixed_point: bool

    def final(self) -> dict:
        return self.sets[-1]


def tp_up(p: Program, n: int, frag: GroundFragment,
          ignore_last: bool = False) -> FixpointTrace:
    """Iterate upward from the empty set: n+1 increasing sets."""
    plans = _tp_plans(p, frag, ignore_last)
    return _iterate({}, n, lambda s: _tp_stage(plans, s, frag, ignore_last))


def tp_down(p: Program, n: int, frag: GroundFragment) -> FixpointTrace:
    """Iterate downward from the whole fragment: n+1 decreasing sets."""
    plans = _tp_plans(p, frag, False)
    return _iterate(dict(frag.atoms), n, lambda s: {
        k: a for k, a in _tp_stage(plans, s, frag, False).items() if k in s})


def _iterate(first: dict, n: int, step) -> FixpointTrace:
    """``first`` and n applications of ``step``; once a set repeats, the
    rest repeat it without calling ``step``."""
    sets = [first]
    fixed = False
    for _ in range(n):
        if fixed:
            sets.append(sets[-1])
            continue
        nxt = step(sets[-1])
        fixed = nxt.keys() == sets[-1].keys()
        sets.append(nxt)
    return FixpointTrace(sets, fixed)


def _proof_step(p_trans: Program, frag: GroundFragment, atoms: dict,
                stage: dict) -> dict:
    """The members of ``atoms`` (atoms by key, over the original signature)
    that a clause of ``p_trans`` derives from ``stage``, each atom read
    without its proof argument.  In the downward chain of ``p_trans``, stage
    0 is every fragment atom, and since stages only shrink, stage k is the
    step of stage k-1 over the members of stage k-1.

    Each clause is renamed apart from the fixed arena once, and read
    without its proof arguments (``_proof_heads``).  A body atom the head
    unifier leaves ground is looked up by key; the rest join ``stage`` as
    in ``tp_step``.  The universe is closed under subterms, so whatever the
    join binds a body-only variable to, a product over the universe would
    have tried too.  Proof positions stay unconstrained: the downward
    iteration only inspects k constructor layers of a proof, so any
    completion works.

    ``atoms`` are ground, so the head unifier grounds the head's variables:
    a body atom whose variables the head holds is looked up, and a joined
    atom that is existential given the head joins one member.  Only whether
    a join exists is asked, and one member leaves that unchanged.

    A head is unified with an atom only if their first arguments do not
    clash in functor or arity (``first_pick``, the one first-argument
    index that ``Program.select`` reads too) and, for ground
    atoms, ``head_matches`` says it will succeed; that binds nothing, so a
    failing head copies no arena.  A chain builds the table of heads once
    and steps with ``_proof_stage``, which keys each (atom, clause) pair's
    looked-up body atoms once: later stages only look the keys up.
    """
    return _proof_stage(_proof_heads(p_trans, frag), frag, atoms, stage)


def _proof_heads(p_trans: Program, frag: GroundFragment) -> dict:
    """``first_index`` of ``_proof_step``'s clauses by their stripped head:
    the head, the body, the renamed clause's environment, the body's split
    into looked-up and joined atoms with the join plan (None in a fragment
    with free variables, where it depends on the atom), and what the head
    gave each atom key."""
    heads = []
    for clause in p_trans.clauses:
        rc, env0 = rename_apart(clause, frag.env)
        head, *body = [Atom(b.pred, b.args[:-1]) for b in (rc.head, *rc.body)]
        split = None
        if not frag._free:
            bound, keyed, joined = _names((head,)), [], []
            for b in body:
                (keyed if _names((b,)) <= bound else joined).append(b)
            split = keyed, joined, _plan(joined, bound, set(), frag)[0]
        heads.append((head, (head, body, env0, split, {})))
    return first_index(heads, frag.env)


def _proof_stage(heads: dict, frag: GroundFragment, atoms: dict,
                 stage: dict) -> dict:
    """``_proof_step`` from its ``_proof_heads``."""
    by_pred = {}
    for a in stage.values():
        by_pred.setdefault(a.key, []).append(a)
    out = {}
    for key, a in atoms.items():
        for head, body, env0, split, seen in first_pick(heads, a, frag.env):
            u = None
            if key not in seen:
                if frag._free or head_matches(head, a, frag.env):
                    u = unify_atoms(head, a, env0, occurs_check=False)
                seen[key] = None if u is None else _looked_up(body, split,
                                                              u, frag)
            if seen[key] is None:
                continue
            keys, joined, one = seen[key]
            if not all(k in stage for k in keys):
                continue
            if joined:
                if u is None:
                    u = unify_atoms(head, a, env0, occurs_check=False)
                if next(_joins(joined, one, by_pred, u), None) is None:
                    continue
            out[key] = a
            break
    return out


def _looked_up(body, split, u: BindingEnv, frag: GroundFragment) -> tuple:
    """The keys under ``u`` of the body atoms looked up, the atoms joined
    and their plan."""
    if split is None:
        keyed, joined = [], []
        for b in body:
            (keyed if _ground(b, u) else joined).append(b)
        one = (False,) * len(joined)
    else:
        keyed, joined, one = split
    return tuple(frag.atom_key(b, u) for b in keyed), joined, one


def _proof_chain(heads: dict, n: int, frag: GroundFragment) -> FixpointTrace:
    """The downward chain of the proof-carrying program of ``heads``."""
    return _iterate(dict(frag.atoms), n,
                    lambda s: _proof_stage(heads, frag, s, s))


# ---------------------------------------------------------------------------
# Membership of one atom


def up_member(p: Program, a: Atom, k: int, env: BindingEnv = EMPTY_ENV) -> bool:
    """Is ``a`` (under ``env``) in the k-th upward iteration over the
    complete ground base?  Runs a stage-bounded proof search: an atom holds
    at stage k if some clause instance derives it with every body atom
    holding at stage k-1.  Exact — stages shrink, so the search terminates.
    Each stack entry holds goals as a linked list ``((atom, stage), rest)``.
    """
    stack = [(((a, k), None), bump_counter_past(env, p, a))]
    while stack:
        goals, env = stack.pop()
        if goals is None:
            return True
        (atom, stage), rest = goals
        if stage <= 0:
            continue
        for clause in reversed(p.select(atom, env)):
            rc, env0 = rename_apart(clause, env)
            u = unify_atoms(rc.head, atom, env0, occurs_check=False)
            if u is not None:
                sub = rest
                for b in reversed(rc.body):
                    sub = ((b, stage - 1), sub)
                stack.append((sub, u))
    return False


def down_member_with_proof(p_trans: Program, a: Atom, k: int,
                           frag: GroundFragment) -> bool:
    """Does some proof term accompany ``a`` into the k-th downward iteration
    of the proof-carrying program?

    ``a`` is an atom over the *original* signature, valid under the fragment
    arena.  Each call builds the chain up to stage k-1 and steps ``a`` from
    it (for a fragment atom, reading stage k); to ask about many atoms,
    build the chain once with ``_proof_chain`` instead.  A non-ground ``a``
    is stepped as over a fragment with free variables, joining every
    member, which needs a table of its own.
    """
    if k <= 0:
        return True
    heads = _proof_heads(p_trans, frag)
    chain = _proof_chain(heads, k - 1, frag)
    if not _ground(a, frag.env):
        frag = replace(frag, _free=True)
        heads = _proof_heads(p_trans, frag)
    return bool(_proof_stage(heads, frag, {None: a}, chain.final()))


# ---------------------------------------------------------------------------
# Transformation lemmas at desk scale


@dataclass
class LemmaReport:
    stages: int
    fragment_atoms: int
    counterexamples: list

    @property
    def holds(self) -> bool:
        return not self.counterexamples


def check_transform_lemmas(p: Program, n: int = 4, d: int = 2,
                           c: int = 1) -> LemmaReport:
    """Check, atom by atom over a finite fragment, that adding proof
    arguments changes neither the upward nor the downward iteration:
    an atom is in stage k exactly when some proof-carrying version of it is.
    """
    frag = build_fragment(p, d, c)
    tp = transform_program(p)
    counterexamples = []

    up_orig = tp_up(p, n, frag)
    up_trans = tp_up(tp.program, n, frag, ignore_last=True)
    for k in range(n + 1):
        plain = set(up_orig.sets[k])
        # tp_step with ignore_last keys a transformed atom without its proof
        # argument, in the plain fragment's format, so comparison is direct.
        stripped = set(up_trans.sets[k])
        for key in plain - stripped:
            counterexamples.append(
                f"up k={k}: {atom_text(up_orig.sets[k][key])} has no "
                "proof-carrying counterpart")
        for key in stripped - plain:
            counterexamples.append(
                f"up k={k}: the proof-carrying atom "
                f"{atom_text(up_trans.sets[k][key])} strips to an atom "
                "outside the plain iteration")

    down_orig = tp_down(p, n, frag)
    down_trans = _proof_chain(_proof_heads(tp.program, frag), n, frag)
    for k in range(n + 1):
        plain, proof_side = down_orig.sets[k], down_trans.sets[k]
        for key, atom in frag.atoms.items():
            lhs = key in plain
            rhs = key in proof_side
            if lhs != rhs:
                counterexamples.append(
                    f"down k={k}: {atom_text(atom)} "
                    f"{'in' if lhs else 'not in'} plain iteration but proof "
                    f"side says {rhs}")
    return LemmaReport(n, len(frag.atoms), counterexamples)


# ---------------------------------------------------------------------------
# Answer certificates


def certificate_fragment(p: Program, answer) -> GroundFragment:
    """Fragment seeded with everything a certificate answer touched.

    The answer must have been produced with ``certificate=True``; its
    selected atoms, instantiated by the final environment, form a set closed
    under the program's clauses, so the downward iteration on this fragment
    stabilizes with the answer's atoms still inside.
    """
    if answer.full_env is None or answer.selected is None:
        raise ValueError("answer carries no certificate "
                         "(solve with certificate=True)")
    seeds = [(atom, answer.full_env) for atom in answer.selected]
    return build_fragment(p, 0, 0, seed_atoms=seeds, atom_products=False)

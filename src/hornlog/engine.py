"""Derivation engines: SLD, coinductive SLD, and structural resolution.

All three engines run one depth-first search (``_search``) over nodes
``(atoms, env, depth, at, step)``, leftmost atom first and clauses in order.
It pops a node, lets the engine reduce it in place, and then records an
answer, stops on a cap, or pushes a child for each resolvent the engine
gives.  The engines differ in how an atom may be closed or reduced:

* ``sld_solve``: classic resolution, occurs check on by default (skipped
  for a clause head where no variable occurs twice: it cannot fire there).
* ``colp_solve``: occurs check off; before expanding an atom, try to close it
  against each same-predicate ancestor on the path (most recent first).
  Cyclic bindings produced this way are rational answers.
* ``sres_solve``: separates each resolution step into an exhaustive rewriting
  phase, which reduces a node in place (clause heads *match* goal atoms;
  goals are never instantiated), and a single substitution phase, whose
  options are the node's children (heads that unify but do not match
  instantiate the goal in place).  A node ``lazy_k`` substitution steps
  deep is a partial answer.

The branch of the node being searched is one list of ``Step`` records,
``path``, root first, that ``_search`` cuts back on backtracking.  A step
gives its kind (``sld``, ``hyp``, ``rw`` or ``su``), clause, selected atom
and, under a trace, the bindings its line shows, rendered when taken.
colp's ancestors (read from the end), the trace lines and a certificate's
selected atoms are all read off ``path``.  So ``_search`` builds a child's
step only when a trace or a certificate asks for it, or when the engine
gives the selected atom's fingerprints, as ``colp`` does.

A step should cost the same however long its branch.  So ``colp`` reads
each ancestor's predicate and arity without building a key, and rejects it
by its fingerprints before unifying; ``subst_step`` asks the atoms past the
one it chose only whether some head still unifies.  ``colp_solve`` keeps
one ``_fp_under`` table for the branch (see ``terms``), so a step walks
only what its ancestors had not found ground.  What an expansion at branch
length L added is dropped at the next expansion at length L or less, where
``_search`` has cut the branch back past it.

A search holds its branch's bindings in one ``Store`` (see ``terms``),
whose trail lists each binding with the value it replaced.  A step binds
each of its children into the store in turn, taking all but the last back
off (``_park``), and a pending child keeps its parent's trail mark beside
``at`` and what its step bound.  Taking the child undoes the store to that
mark, where ``path`` is cut back to ``at``, and binds the step's bindings
again; a step with one child leaves them in place.  So a step costs what
it binds, not what its branch holds.  An answer's bindings and certificate
environment, and the results of ``sld_step``, ``subst_step`` and
``rewrite_normalize``, are environments of their own, copied once.

A diverging rewriting phase is evidence against universal observability and
turns into a ``not_universally_observable`` verdict carrying the witness,
the goals of the phase's last steps, rendered once it has diverged.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from functools import partial
from math import inf
from typing import Optional

from hornlog import syntax
from hornlog.terms import (
    Atom,
    BindingEnv,
    Compound,
    EMPTY_ENV,
    Goal,
    Program,
    Store,
    Var,
    _fp_under,
    bump_counter_past,
    has_cycle,
    head_matches,
    match_head,
    rename_body,
    resolve,
    subterms,
    term_vars,
    unify_atoms,
    unify_head,
)


@dataclass(frozen=True)
class Budget:
    """Caps for the semi-decision procedures.  ``max_steps`` counts reductions
    of any kind and binds every engine.  ``max_depth`` prunes a ``sld`` or
    ``colp`` branch that many steps deep.  ``max_rewrite_steps`` bounds one
    normalization phase and ``max_subst_steps`` the substitution steps of a
    whole search; both bind only ``sres`` and ``productivity_report``.
    ``max_answers`` stops a solver once that many answers exist (None = keep
    searching until the other caps bite), never ``productivity_report``."""

    max_steps: int = 10000
    max_depth: int = 500
    max_rewrite_steps: int = 1000
    max_subst_steps: int = 1000
    max_answers: Optional[int] = None


DEFAULT_BUDGET = Budget()


@dataclass(frozen=True, eq=False)
class Step:
    """One reduction on a branch, an entry of ``_search``'s ``path``.

    ``ref`` is the clause index, or for a ``hyp`` step how many steps back
    the closing ancestor was selected; ``bound`` holds the ``(name, term)``
    pairs of the step's trace line, filled in when the step is taken, or
    None when no trace is asked for.
    A ``colp`` step's ``fps`` are ``atom``'s per-argument ground fingerprints
    under the environment it was selected in (``None`` where not ground)."""

    kind: str  # sld | hyp | rw | su
    ref: int
    atom_index: int
    atom: Atom
    bound: Optional[list]
    fps: Optional[tuple] = field(default=None, repr=False)


@dataclass
class Answer:
    bindings: BindingEnv
    goal_vars: tuple
    kind: str  # total | rational | partial
    steps_used: int = 0
    trace: Optional[list] = None
    # Populated when a solver runs with certificate=True: the unrestricted
    # solving environment and every atom selected along the successful
    # branch.  Together they let an external checker re-derive the answer.
    full_env: Optional[BindingEnv] = None
    selected: Optional[tuple] = None

    def binding(self, name: str):
        """The term bound to ``name``, substituted through; each cycle is
        unfolded once, so a rational binding reads as its defining equation
        (``cons(0, X)`` for ``X``)."""
        return resolve(self.bindings, Var(name), 1)


@dataclass
class Verdict:
    kind: str  # answers | exhausted | failed | not_universally_observable
    answers: list = field(default_factory=list)
    witness: Optional[list] = None
    steps_used: int = 0


@dataclass
class RewriteResult:
    status: str  # normal_form | diverged
    goal: Goal
    env: BindingEnv
    steps: int = 0
    witness: Optional[list] = None
    trace: list = field(default_factory=list)  # numbered from 1


@dataclass
class ProductivityReport:
    observable: bool
    liveness: int
    produced: dict
    witness: Optional[list] = None


def goal_var_names(g: Goal) -> tuple:
    """The goal's variable names, each once, in order of first occurrence."""
    return tuple(dict.fromkeys(v.name for a in g.atoms for t in a.args
                               for v in term_vars(t)))


def _new_bindings(store: Store, mark: int) -> list:
    """What a step bound, as its trace line shows it: each name the trail
    holds past ``mark``, resolved under ``store`` to at most 12 levels so
    that a line stays line-sized however long the chain of bindings behind
    it."""
    return [(name, resolve(store, Var(name), 2, cut=12))
            for name in sorted({name for name, _ in store.trail[mark:]})]


def _trace_lines(path: list) -> list:
    return [syntax.trace_line(n, s.kind, s.ref, s.atom_index, s.bound)
            for n, s in enumerate(path, start=1)]


# ---------------------------------------------------------------------------
# Single steps


def _park(store: Store, children: list, mark: int) -> None:
    """Set ``store`` back to a step's trail ``mark`` before its next
    alternative.  A step binds each of its ``children``, ``(atoms, bound,
    counter, kind, ref)`` with ``counter`` where the child's fresh names
    start, into the store in turn.  The last one's bindings stay on it,
    with ``bound`` None, until this takes them off into ``bound``, the
    ``(name, value)`` pairs that ``Store.redo`` binds again."""
    if children and children[-1][1] is None:
        atoms, _, counter, kind, ref = children[-1]
        children[-1] = (atoms, store.bound(mark), counter, kind, ref)
        store.undo(mark)


def _frozen(env: BindingEnv, store: Store, children: list) -> list:
    """The ``children`` of a step on ``store``, a store made from ``env``,
    as ``(atoms, env2, kind, ref)``, each ``env2`` an environment of its
    own."""
    _park(store, children, 0)
    return [(atoms, BindingEnv._wrap({**env.bindings, **dict(bound)},
                                     counter), kind, ref)
            for atoms, bound, counter, kind, ref in children]


def _resolve(atoms: tuple, store: Store, p: Program, occurs_check: bool,
             children: list) -> list:
    """The SLD resolvents of ``atoms`` on ``store``, in clause order,
    appended to ``children`` (see ``_park``)."""
    selected = atoms[0]
    rest = atoms[1:]
    mark = len(store.trail)
    for clause in p.select(selected, store):
        _park(store, children, mark)
        ren = unify_head(clause, selected, store, occurs_check)
        if ren is not None:
            children.append((rename_body(clause, ren) + rest, None,
                             store.counter + len(ren), "sld", clause.idx))
    return children


def sld_step(atoms: tuple, env: BindingEnv, p: Program,
             occurs_check: bool = True) -> list:
    """Resolvents of ``atoms`` under SLD resolution, in clause order, as
    ``(atoms, env, "sld", clause index)``."""
    store = Store(env)
    return _frozen(env, store, _resolve(atoms, store, p, occurs_check, []))


def colp_step(atoms: tuple, store: Store, path: list,
              p: Program, table: dict) -> tuple:
    """Resolvents under the coinductive discipline, on the branch whose
    ``Step``s, root first, are ``path`` and whose bindings ``store`` holds,
    as children bound into ``store`` in turn (see ``_park``), and the
    selected atom's ``Step.fps``.  Hypothesis closures against
    same-predicate ancestors (most recent first, kind ``hyp``, ``ref`` the
    steps back) come before clause resolvents; unification runs without
    the occurs check.

    An ancestor whose ``fps`` differ from the selected atom's at a position
    where both are set is skipped without unifying: bindings only grow along
    a branch, so a term ground under the ancestor's environment is the same
    tree under ``store``, and two different ground trees never unify.
    ``table`` is the branch's ``_fp_under`` table."""
    selected = atoms[0]
    rest = atoms[1:]
    pred, arity = selected.pred, len(selected.args)
    fps = tuple(_fp_under(store, a, table) for a in selected.args)
    mark = len(store.trail)
    children = []
    for back, anc in enumerate(reversed(path), 1):
        a = anc.atom
        if a.pred == pred and len(a.args) == arity:
            for x, y in zip(anc.fps or (), fps):
                if x != y and x is not None and y is not None:
                    break
            else:
                _park(store, children, mark)
                if unify_atoms(a, selected, store,
                               occurs_check=False) is not None:
                    children.append((rest, None, store.counter, "hyp",
                                     back))
    _park(store, children, mark)
    return _resolve(atoms, store, p, False, children), fps


# ---------------------------------------------------------------------------
# The depth-first search every engine runs


def _classify(env: BindingEnv, goal_vars: tuple) -> str:
    # One walk from a wrapper of all goal variables finds a back edge
    # exactly when a walk from some goal variable would.
    if has_cycle(env, Compound("", tuple(Var(n) for n in goal_vars))):
        return "rational"
    return "total"


def _search(g: Goal, p: Program, b: Budget, expand, reduce=None,
            lazy_k=inf, trace: bool = False,
            certificate: bool = False) -> Verdict:
    """The search of the module docstring, under the caps of ``b``, on one
    ``Store``.  A node is ``(atoms, mark, bound, counter, depth, at,
    step)``: its branch's bindings are the store's up to trail ``mark``
    plus ``bound``, or None when they are on the store already, and its
    fresh names start at ``counter``; its depth counts the expansions on
    its branch, and its branch is the first ``at`` entries of ``path``
    followed by ``step`` (None for the root, and for every node whose step
    nobody reads).
    ``reduce(atoms, store, path)`` gives ``(atoms, steps, witness)`` and
    may bind into the store and append steps to ``path``; a witness ends
    the search as not universally observable.  ``expand(atoms, store,
    path)`` gives ``(children, ai, fps, taken)``: the children of
    ``atoms[ai]``, first child first, as ``_park`` says, the ``Step.fps``
    of that atom or None, and the steps taken, which ``max_subst_steps``
    bounds."""
    goal_vars = goal_var_names(g)
    store = Store(bump_counter_past(EMPTY_ENV, p, g))
    trail = store.trail
    stack = [(g.atoms, 0, None, store.counter, 0, 0, None)]
    path = []
    answers = []
    steps = expanded = 0
    without_answers = "failed"
    # the store at the previous answer, its bindings and kind, if it was
    # not partial
    done = None
    while stack:
        atoms, mark, bound, counter, depth, at, step = stack.pop()
        del path[at:]
        if bound is not None:
            store.undo(mark)
            store.redo(bound)
        store.counter = counter
        if step is not None:
            if trace:
                step.bound.extend(_new_bindings(store, mark))
            path.append(step)
        if reduce is not None:
            atoms, reduced, witness = reduce(atoms, store, path)
            steps += reduced
            if witness is not None:
                return Verdict("not_universally_observable", answers,
                               witness=witness, steps_used=steps)
        if not atoms or depth >= lazy_k:
            if atoms:
                done, bindings = None, store.restrict(goal_vars)
                kind = "partial"
            else:
                # a trail entry is never pushed twice, so the same top,
                # length and counter are the same store
                top = trail[-1] if trail else None
                now = len(trail), store.counter
                if done is None or done[0] is not top or done[1] != now:
                    bindings = store.restrict(goal_vars)
                    done = top, now, bindings, _classify(bindings, goal_vars)
                # else colp closed sibling branches binding nothing: the
                # previous answer's bindings and kind stand
                bindings, kind = done[2:]
            answers.append(Answer(
                bindings, goal_vars, kind, steps,
                _trace_lines(path) if trace else None,
                BindingEnv(store.bindings, store.counter)
                if certificate else None,
                tuple(s.atom for s in path) if certificate else None))
            if b.max_answers and len(answers) >= b.max_answers:
                break
            continue
        if steps >= b.max_steps or expanded >= b.max_subst_steps:
            without_answers = "exhausted"
            break
        if depth >= b.max_depth:
            without_answers = "exhausted"
            continue
        mark = len(trail)
        children, ai, fps, taken = expand(atoms, store, path)
        steps += taken
        expanded += taken
        if len(children) > 1:  # the first child is taken next, not the last
            _park(store, children, mark)
        at = len(path)
        record = trace or certificate or fps is not None
        for atoms2, bound, counter2, kind, ref in reversed(children):
            # a loop, not a comprehension: colp runs 2% faster
            stack.append((atoms2, mark, bound, counter2, depth + 1, at, Step(
                kind, ref, ai, atoms[ai], [] if trace else None, fps)
                if record else None))
    return Verdict("answers" if answers else without_answers, answers,
                   steps_used=steps)


def sld_solve(g: Goal, p: Program, b: Budget = DEFAULT_BUDGET,
              occurs_check: bool = True, trace: bool = False,
              certificate: bool = False) -> Verdict:
    """Depth-first SLD resolution; collects every answer reachable in budget."""
    return _search(g, p, replace(b, max_subst_steps=inf),
                   lambda atoms, store, path: (
                       _resolve(atoms, store, p, occurs_check, []), 0, None,
                       1),
                   trace=trace, certificate=certificate)


def colp_solve(g: Goal, p: Program, b: Budget = DEFAULT_BUDGET,
               trace: bool = False, certificate: bool = False) -> Verdict:
    """SLD plus the coinductive hypothesis rule; computes rational answers."""
    table = {}  # the branch's _fp_under table, in the order entries came
    log = []  # (len(path), len(table)) before each expansion on the branch
    step = partial(colp_step, p=p, table=table)

    def expand(atoms, store, path):
        # what expansions this long or longer added is off the branch now
        while log and log[-1][0] >= len(path):
            for _ in range(len(table) - log.pop()[1]):
                table.popitem()
        log.append((len(path), len(table)))
        children, fps = step(atoms, store, path)
        return children, 0, fps, 1

    return _search(g, p, replace(b, max_subst_steps=inf), expand,
                   trace=trace, certificate=certificate)


# ---------------------------------------------------------------------------
# Structural resolution


def rewrite_normalize(g: Goal, p: Program, env: BindingEnv = EMPTY_ENV,
                      b: Budget = DEFAULT_BUDGET, collect_trace: bool = False,
                      observer=None) -> RewriteResult:
    """Apply the rewriting reduction until no clause head matches any atom.

    One step replaces the leftmost matching atom by the clause body under the
    matcher; matching never instantiates the goal, so rewriting is the
    deterministic, answer-preserving half of a resolution step.  A clause's
    own, unrenamed head is matched, and only the body is copied.  Exceeding
    ``max_rewrite_steps`` reports divergence with the recent goal history.
    With ``collect_trace`` the result's ``trace`` has a line per step.
    ``observer(atoms, env)`` is called after every step, which lets callers
    watch termination measures shrink.  Fresh names start past every
    literal ``V<n>`` in ``p`` and ``g``, so the renamed clauses never share
    a name with the goal.
    """
    store = Store(bump_counter_past(env, p, g))
    path = []
    atoms, steps, witness = _rewrite_normalize(
        tuple(g.atoms), store, path, p, b, collect_trace, None, observer)
    return RewriteResult("normal_form" if witness is None else "diverged",
                         Goal(atoms),
                         BindingEnv._wrap(store.bindings, store.counter),
                         steps, witness, _trace_lines(path))


def _rewrite_normalize(atoms: tuple, store: Store, path: list,
                       p: Program, b: Budget, collect_trace: bool,
                       consumed: Optional[dict], observer) -> tuple:
    """``rewrite_normalize`` binding into ``store``, whose counter is past
    ``p``'s and the goal's names already, as ``(atoms, steps, witness)``;
    the witness is None for a normal form.  With ``collect_trace`` each
    step is appended to ``path``."""
    trail = store.trail
    steps = 0
    # The goals before each of the last steps, rendered on divergence under
    # the store as it is then: a step binds only its renamed head's fresh
    # names, which no earlier goal holds, so each renders as it did.
    history: deque = deque(maxlen=8)
    # Atoms to the left of the last rewrite position stay dead for the rest
    # of the phase: a step binds only freshly renamed clause variables, which
    # cannot occur in atoms that predate the renaming, and matching never
    # instantiates the goal side.  Resume each scan at that position.
    frontier = 0
    while True:
        mark = len(trail)
        found = next(((ai, clause, ren)
                      for ai in range(frontier, len(atoms))
                      for clause in p.select(atoms[ai], store)
                      if (ren := match_head(clause, atoms[ai], store))
                      is not None), None)
        if found is None:
            return atoms, steps, None
        if steps >= b.max_rewrite_steps:
            store.undo(mark)
            return atoms, steps, [_goal_snapshot(a, store)
                                  for a in (*history, atoms)]
        ai, clause, ren = found
        store.counter += len(ren)
        if consumed is not None:
            stack = list(clause.head.args)  # every compound occurrence
            while stack:
                x = stack.pop()
                if x.__class__ is Compound:
                    consumed[x.functor] = consumed.get(x.functor, 0) + 1
                    stack.extend(x.args)
        if collect_trace:
            path.append(Step("rw", clause.idx, ai, atoms[ai],
                             _new_bindings(store, mark)))
        history.append(atoms)
        atoms = atoms[:ai] + rename_body(clause, ren) + atoms[ai + 1:]
        frontier = ai
        steps += 1
        if observer is not None:
            observer(atoms, BindingEnv(store.bindings, store.counter))


def _goal_snapshot(atoms, env: BindingEnv) -> str:
    shown = [syntax.term_text(resolve(env, Compound(a.pred, a.args), 2,
                                      cut=12))
             for a in atoms[:6]]
    if len(atoms) > len(shown):
        shown.append("...")
    return ", ".join(shown) if shown else "<empty>"


def subst_step(g: Goal, p: Program, env: BindingEnv = EMPTY_ENV) -> list:
    """Substitution reductions of the leftmost eligible atom.

    Eligible clauses are those whose head unifies with the atom but does not
    match it — a matching head belongs to the rewriting phase, which runs
    first, so including it here would duplicate work.  Each head that
    ``Program.select`` keeps is unified once, unrenamed, and nothing is
    copied but the subterms it binds goal variables to.  It matched when
    the unifier bound only the clause's fresh names.
    The goal's atoms are unchanged; only the environment is instantiated.
    Returns ``(goal, env, clause_idx, atom_index)`` tuples in clause order.

    An atom that unifies with no head can never be solved, however the rest
    of the goal instantiates it, so it fails the whole goal; else a
    derivation could keep taking substitution steps to its right and report
    hollow partial answers for a goal that has no answers.  Past the chosen
    atom only that liveness counts, so each later atom is unified with its
    selected heads only until one unifies.
    """
    store = Store(env)
    children, ai = _substitute(g.atoms, store, p)
    return [(g, env2, ref, ai)
            for _, env2, _, ref in _frozen(env, store, children)]


def _substitute(atoms: tuple, store: Store, p: Program,
                introduced: Optional[dict] = None) -> tuple:
    """``subst_step`` on ``store``: its options as ``su`` children bound
    into the store in turn (see ``_park``), and the chosen atom's index.
    ``introduced`` counts the functors of what the options given bind the
    goal's names to, each walked while its bindings are on the store."""
    trail = store.trail
    mark = len(trail)
    children = []
    chosen = None
    counts = {}  # introduced by these options, if they are given
    for ai, atom in enumerate(atoms):
        alive = False
        _park(store, children, mark)  # select under the goal's own bindings
        for clause in p.select(atom, store):
            _park(store, children, mark)
            ren = unify_head(clause, atom, store)
            if ren is None:
                continue
            alive = True
            if chosen is not None:  # past the chosen atom, only liveness counts
                store.undo(mark)
                break
            fresh = {v.name for v in ren.values()}
            named = [name for name, _ in trail[mark:] if name not in fresh]
            # a head that bound only fresh names left every walk from the
            # goal as it was, so head_matches may ask under its bindings
            if named or not head_matches(clause.head, atom, store):
                children.append((atoms, None, store.counter + len(ren), "su",
                                 clause.idx))
                for name in named if introduced is not None else ():
                    for x in subterms((Var(name),), store):
                        if x.__class__ is Compound:
                            counts[x.functor] = counts.get(x.functor, 0) + 1
            else:
                store.undo(mark)
        if not alive:
            store.undo(mark)
            return [], 0
        if children and chosen is None:
            chosen = ai
    for f, n in counts.items():
        introduced[f] = introduced.get(f, 0) + n
    return children, chosen or 0


def _structural(p: Program, b: Budget, trace: bool,
                consumed: Optional[dict] = None,
                introduced: Optional[dict] = None) -> tuple:
    """Structural resolution as ``_search``'s ``reduce`` and ``expand``:
    the rewriting phase, then one ``su`` child per substitution option."""
    def expand(atoms, store, path):
        children, ai = _substitute(atoms, store, p, introduced)
        return children, ai, None, len(children)

    return partial(_rewrite_normalize, p=p, b=b, collect_trace=trace,
                   consumed=consumed, observer=None), expand


def sres_solve(g: Goal, p: Program, b: Budget = DEFAULT_BUDGET,
               lazy_k: int = 3, trace: bool = False) -> Verdict:
    """Structural resolution: normalize by rewriting, then take one
    substitution step, depth-first over the substitution choices.

    Branches whose normal form is empty yield total (or rational) answers;
    branches that reach ``lazy_k`` substitution steps yield partial answers
    with whatever the goal variables are bound to so far.  A diverging
    normalization aborts the whole search as not universally observable.
    """
    reduce, expand = _structural(p, b, trace)
    return _search(g, p, replace(b, max_depth=inf), expand, reduce,
                   inf if lazy_k is None else lazy_k, trace)


def productivity_report(g: Goal, p: Program, b: Budget = DEFAULT_BUDGET) -> ProductivityReport:
    """Budget-bounded evidence for observational productivity.

    Explores the structural-resolution tree: if every normalization phase
    terminates the goal is universally observable up to the budget, and the
    number of completed substitution steps witnesses liveness.  ``produced``
    counts constructors that substitution steps introduced and rewriting
    steps then consumed.
    """
    introduced: dict = {}
    consumed: dict = {}
    liveness = 0
    reduce, expand = _structural(p, b, False, consumed, introduced)

    def counting(atoms, store, path):
        nonlocal liveness
        children, ai, fps, taken = expand(atoms, store, path)
        liveness += taken
        return children, ai, fps, taken

    verdict = _search(g, p, replace(b, max_depth=inf, max_answers=None),
                      counting, reduce)
    if verdict.kind == "not_universally_observable":
        return ProductivityReport(False, liveness, {}, witness=verdict.witness)
    produced = {f: min(n, consumed.get(f, 0))
                for f, n in introduced.items() if consumed.get(f)}
    return ProductivityReport(True, liveness, produced)

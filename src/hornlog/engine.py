"""Derivation engines: SLD, coinductive SLD, and structural resolution.

All three engines run one depth-first search (``_search``), leftmost atom
first and clauses in order.  It lets the engine reduce a node in place,
and then records an answer, stops on a cap, or pushes a choice point for
the children the engine gives, and takes the next child of the latest
choice point.  The engines differ in how an atom may be closed or reduced:

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
whose trail lists each binding with the value it replaced.  Children are
made one at a time, as the search takes them (the WAM's ``try``, ``retry``
and ``trust``; Ait-Kaci 1991): each undoes the store to its choice point's
trail mark and binds only itself, and the last candidate pops the choice
point.  So a step costs what it binds, not what its branch holds, and a
child never taken is never unified.  ``sres`` finds all its options first
and binds each again when it is taken.  An answer's bindings and
certificate environment, and the results of ``sld_step``, ``subst_step``
and ``rewrite_normalize``, are environments of their own, copied once.

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


def _frozen(store: Store, children) -> list:
    """The ``children`` of a step on ``store``, as ``(atoms, env2, kind,
    ref)``, each ``env2`` a copy of the store while that child is bound."""
    return [(atoms, BindingEnv(store.bindings, counter), kind, ref)
            for atoms, counter, kind, ref, _ in children]


def _resolve(atoms: tuple, store: Store, p: Program, occurs_check: bool):
    """The SLD resolvents of ``atoms`` on ``store``, in clause order, as
    children (see ``_search``)."""
    selected, rest = atoms[0], atoms[1:]
    mark = len(store.trail)
    clauses = p.select(selected, store)
    for clause in clauses:
        ren = unify_head(clause, selected, store, occurs_check)
        if ren is not None:
            yield (rename_body(clause, ren) + rest, store.counter + len(ren),
                   "sld", clause.idx, clause is clauses[-1])
            store.undo(mark)


def sld_step(atoms: tuple, env: BindingEnv, p: Program,
             occurs_check: bool = True) -> list:
    """Resolvents of ``atoms`` under SLD resolution, in clause order, as
    ``(atoms, env, "sld", clause index)``."""
    store = Store(env)
    return _frozen(store, _resolve(atoms, store, p, occurs_check))


def colp_step(atoms: tuple, store: Store, path: list,
              p: Program, table: dict) -> tuple:
    """Resolvents under the coinductive discipline, on the branch whose
    ``Step``s, root first, are ``path`` and whose bindings ``store`` holds,
    as children (see ``_search``), and the selected atom's ``Step.fps``.
    Closures against the same-predicate ancestors, listed now (most recent
    first, kind ``hyp``, ``ref`` the steps back), come before clause
    resolvents; unification runs without the occurs check.

    An ancestor whose ``fps`` differ from the selected atom's at a position
    where both are set is skipped without unifying: bindings only grow along
    a branch, so a term ground under the ancestor's environment is the same
    tree under ``store``, and two different ground trees never unify.
    ``table`` is the branch's ``_fp_under`` table."""
    selected = atoms[0]
    pred, arity = selected.pred, len(selected.args)
    fps = tuple(_fp_under(store, a, table) for a in selected.args)
    ancestors = []
    for back, anc in enumerate(reversed(path), 1):
        a = anc.atom
        if a.pred == pred and len(a.args) == arity:
            for x, y in zip(anc.fps or (), fps):
                if x != y and x is not None and y is not None:
                    break
            else:
                ancestors.append((back, a))

    def children():
        mark = len(store.trail)
        for back, a in ancestors:
            if unify_atoms(a, selected, store, occurs_check=False) is not None:
                yield atoms[1:], store.counter, "hyp", back, False
                store.undo(mark)
        yield from _resolve(atoms, store, p, False)

    return children(), fps


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
    ``Store``.  ``reduce(atoms, store, path)`` gives ``(atoms, steps,
    witness)`` and may bind into the store and append steps to ``path``; a
    witness ends the search as not universally observable.  ``expand(atoms,
    store, path)`` gives ``(children, ai, fps, taken)``: the children of
    ``atoms[ai]``, the ``Step.fps`` of that atom or None, and the steps
    taken, which ``max_subst_steps`` bounds.  ``children`` binds each child
    into the store only when asked for, and yields it as ``(atoms, counter,
    kind, ref, last)``, its fresh names from ``counter`` and ``last`` set
    when no candidate is left; it undoes the child before the next.  A
    choice point is ``(children, mark, counter, depth, at, atoms, ai,
    fps)``: the trail mark and counter it was made at, the children's
    depth, ``path``'s length before them, and what their ``Step`` reads."""
    goal_vars = goal_var_names(g)
    store = Store(bump_counter_past(EMPTY_ENV, p, g))
    trail = store.trail
    atoms, depth = g.atoms, 0
    stack, path, answers = [], [], []
    steps = expanded = 0
    without_answers = "failed"
    # the store at the previous answer, its bindings and kind, if it was
    # not partial
    done = None
    while True:
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
        elif steps >= b.max_steps or expanded >= b.max_subst_steps:
            without_answers = "exhausted"
            break
        elif depth >= b.max_depth:
            without_answers = "exhausted"
        else:
            mark, counter = len(trail), store.counter
            children, ai, fps, taken = expand(atoms, store, path)
            steps += taken
            expanded += taken
            stack.append((children, mark, counter, depth + 1, len(path),
                          atoms, ai, fps))
        while stack:  # take the next child of the latest choice point
            children, mark, counter, depth, at, parent, ai, fps = stack[-1]
            store.counter = counter
            child = next(children, None)
            if child is not None:
                break
            stack.pop()
        else:
            break
        atoms, store.counter, kind, ref, last = child
        if last:
            stack.pop()
        del path[at:]
        if trace or certificate or fps is not None:
            path.append(Step(kind, ref, ai, parent[ai],
                             _new_bindings(store, mark) if trace else None,
                             fps))
    return Verdict("answers" if answers else without_answers, answers,
                   steps_used=steps)


def sld_solve(g: Goal, p: Program, b: Budget = DEFAULT_BUDGET,
              occurs_check: bool = True, trace: bool = False,
              certificate: bool = False) -> Verdict:
    """Depth-first SLD resolution; collects every answer reachable in budget."""
    return _search(g, p, replace(b, max_subst_steps=inf),
                   lambda atoms, store, path: (
                       _resolve(atoms, store, p, occurs_check), 0, None, 1),
                   trace=trace, certificate=certificate)


def colp_solve(g: Goal, p: Program, b: Budget = DEFAULT_BUDGET,
               trace: bool = False, certificate: bool = False) -> Verdict:
    """SLD plus the coinductive hypothesis rule; computes rational answers."""
    table = {}  # the branch's _fp_under table, in the order entries came
    log = []  # (len(path), len(table)) before each expansion on the branch

    def expand(atoms, store, path):
        # what expansions this long or longer added is off the branch now
        while log and log[-1][0] >= len(path):
            for _ in range(len(table) - log.pop()[1]):
                table.popitem()
        log.append((len(path), len(table)))
        children, fps = colp_step(atoms, store, path, p, table)
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
    children, _, ai = _substitute(g.atoms, store, p)
    return [(g, env2, ref, ai)
            for _, env2, _, ref in _frozen(store, children)]


def _park(store: Store, options: list, mark: int) -> None:
    """Set ``store`` back to trail ``mark``.  The last of ``_substitute``'s
    ``options``, ``(bound, counter, ref)``, has ``bound`` None while its
    bindings are on the store; this takes them off into ``bound``, the
    ``(name, value)`` pairs that ``Store.redo`` binds again."""
    if options and options[-1][0] is None:
        _, counter, ref = options[-1]
        options[-1] = (store.bound(mark), counter, ref)
        store.undo(mark)


def _substitute(atoms: tuple, store: Store, p: Program,
                introduced: Optional[dict] = None) -> tuple:
    """``subst_step`` on ``store``, as ``(children, taken, ai)``: its
    options as ``su`` children (see ``_search``), all found first and each
    bound again when asked for (the sole option of a goal's last atom stays
    bound), how many there are, and the chosen atom's index.
    ``introduced`` counts the functors of what the options given bind the
    goal's names to, each walked while its bindings are on the store."""
    trail = store.trail
    mark = len(trail)
    options = []
    chosen = None
    counts = {}  # introduced by these options, if they are given
    for ai, atom in enumerate(atoms):
        alive = False
        _park(store, options, mark)  # select under the goal's own bindings
        for clause in p.select(atom, store):
            _park(store, options, mark)
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
                options.append((None, store.counter + len(ren), clause.idx))
                for name in named if introduced is not None else ():
                    for x in subterms((Var(name),), store):
                        if x.__class__ is Compound:
                            counts[x.functor] = counts.get(x.functor, 0) + 1
            else:
                store.undo(mark)
        if not alive:
            store.undo(mark)
            options, counts, chosen = [], {}, None
            break
        if options and chosen is None:
            chosen = ai
    for f, n in counts.items():
        introduced[f] = introduced.get(f, 0) + n
    if len(options) > 1:  # the first option is taken first
        _park(store, options, mark)

    def children():
        for i, (bound, counter, ref) in enumerate(options, 1):
            if bound is not None:
                store.redo(bound)
            yield atoms, counter, "su", ref, i == len(options)
            store.undo(mark)

    return children(), len(options), chosen or 0


def _structural(p: Program, b: Budget, trace: bool,
                consumed: Optional[dict] = None,
                introduced: Optional[dict] = None) -> tuple:
    """Structural resolution as ``_search``'s ``reduce`` and ``expand``:
    the rewriting phase, then one ``su`` child per substitution option."""
    def expand(atoms, store, path):
        children, taken, ai = _substitute(atoms, store, p, introduced)
        return children, ai, None, taken

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

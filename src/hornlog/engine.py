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
    Var,
    _bound_since,
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
    pairs of the step's trace line, or None when no trace is asked for.
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


def _new_bindings(env: BindingEnv, parent: BindingEnv) -> list:
    """What a step bound, as its trace line shows it: each name ``env`` binds
    and ``parent`` does not, resolved to at most 12 levels so that a line
    stays line-sized however long the chain of bindings behind it."""
    return [(name, resolve(env, Var(name), 2, cut=12))
            for name in sorted(_bound_since(env, parent))]


def _trace_lines(path: list) -> list:
    return [syntax.trace_line(n, s.kind, s.ref, s.atom_index, s.bound)
            for n, s in enumerate(path, start=1)]


# ---------------------------------------------------------------------------
# Single steps


def sld_step(atoms: tuple, env: BindingEnv, p: Program,
             occurs_check: bool = True) -> list:
    """Resolvents of ``atoms`` under SLD resolution, in clause order, as
    ``(atoms, env, "sld", clause index)``."""
    if not atoms:
        return []
    selected = atoms[0]
    rest = atoms[1:]
    children = []
    for clause in p.select(selected, env):
        resolved = unify_head(clause, selected, env, occurs_check)
        if resolved is None:
            continue
        ren, u = resolved
        children.append((rename_body(clause, ren) + rest, u, "sld",
                         clause.idx))
    return children


def colp_step(atoms: tuple, env: BindingEnv, path: list,
              p: Program, table: Optional[dict] = None) -> tuple:
    """Resolvents under the coinductive discipline, on the branch whose
    ``Step``s, root first, are ``path``, and the selected atom's
    ``Step.fps``: hypothesis closures against same-predicate ancestors
    (most recent first, as ``(atoms, env, "hyp", steps back)``) come before
    clause resolvents; unification runs without the occurs check.

    An ancestor whose ``fps`` differ from the selected atom's at a position
    where both are set is skipped without unifying: bindings only grow along
    a branch, so a term ground under the ancestor's environment is the same
    tree under ``env``, and two different ground trees never unify.
    ``table`` is the branch's ``_fp_under`` table (a fresh one if None)."""
    if not atoms:
        return [], None
    table = {} if table is None else table
    selected = atoms[0]
    rest = atoms[1:]
    pred, arity = selected.pred, len(selected.args)
    fps = tuple(_fp_under(env, a, table) for a in selected.args)
    children = []
    for back, anc in enumerate(reversed(path), 1):
        a = anc.atom
        if a.pred == pred and len(a.args) == arity:
            for x, y in zip(anc.fps or (), fps):
                if x != y and x is not None and y is not None:
                    break
            else:
                u = unify_atoms(a, selected, env, occurs_check=False)
                if u is not None:
                    children.append((rest, u, "hyp", back))
    children.extend(sld_step(atoms, env, p, occurs_check=False))
    return children, fps


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
    """The search of the module docstring, under the caps of ``b``.  A
    node is ``(atoms, env, depth, at, step)``: its depth counts the
    expansions on its branch, and its branch is the first ``at`` entries
    of ``path`` followed by ``step`` (None for the root, and for every node
    whose step nobody reads).
    ``reduce(atoms, env, path)`` gives ``(atoms, env, steps, witness)`` and
    may append steps to ``path``; a witness ends the search as not
    universally observable.  ``expand(atoms, env, path)`` gives
    ``(resolvents, ai, fps, taken)``: resolvents ``(atoms, env, kind,
    ref)`` of ``atoms[ai]``, first child first, the ``Step.fps`` of that
    atom or None, and the steps taken, which ``max_subst_steps`` bounds."""
    goal_vars = goal_var_names(g)
    stack = [(g.atoms, bump_counter_past(EMPTY_ENV, p, g), 0, 0, None)]
    path = []
    answers = []
    steps = expanded = 0
    without_answers = "failed"
    done_env = None  # the previous answer's env, if it was not partial
    while stack:
        atoms, env, depth, at, step = stack.pop()
        del path[at:]
        if step is not None:
            path.append(step)
        if reduce is not None:
            atoms, env, reduced, witness = reduce(atoms, env, path)
            steps += reduced
            if witness is not None:
                return Verdict("not_universally_observable", answers,
                               witness=witness, steps_used=steps)
        if not atoms or depth >= lazy_k:
            if atoms:
                done_env, bindings = None, env.restrict(goal_vars)
                kind = "partial"
            elif env is not done_env:
                done_env, bindings = env, env.restrict(goal_vars)
                kind = _classify(bindings, goal_vars)
            # else colp closed sibling branches in one env, binding nothing:
            # the previous answer's bindings and kind stand
            answers.append(Answer(
                bindings, goal_vars, kind, steps,
                _trace_lines(path) if trace else None,
                env if certificate else None,
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
        resolvents, ai, fps, taken = expand(atoms, env, path)
        steps += taken
        expanded += taken
        at = len(path)
        record = trace or certificate or fps is not None
        for atoms2, env2, kind, ref in reversed(resolvents):
            # a loop, not a comprehension: colp runs 2% faster
            stack.append((atoms2, env2, depth + 1, at, Step(
                kind, ref, ai, atoms[ai],
                _new_bindings(env2, env) if trace else None, fps)
                if record else None))
    return Verdict("answers" if answers else without_answers, answers,
                   steps_used=steps)


def sld_solve(g: Goal, p: Program, b: Budget = DEFAULT_BUDGET,
              occurs_check: bool = True, trace: bool = False,
              certificate: bool = False) -> Verdict:
    """Depth-first SLD resolution; collects every answer reachable in budget."""
    return _search(g, p, replace(b, max_subst_steps=inf),
                   lambda atoms, env, path: (
                       sld_step(atoms, env, p, occurs_check), 0, None, 1),
                   trace=trace, certificate=certificate)


def colp_solve(g: Goal, p: Program, b: Budget = DEFAULT_BUDGET,
               trace: bool = False, certificate: bool = False) -> Verdict:
    """SLD plus the coinductive hypothesis rule; computes rational answers."""
    table = {}  # the branch's _fp_under table, in the order entries came
    log = []  # (len(path), len(table)) before each expansion on the branch
    step = partial(colp_step, p=p, table=table)

    def expand(atoms, env, path):
        # what expansions this long or longer added is off the branch now
        while log and log[-1][0] >= len(path):
            for _ in range(len(table) - log.pop()[1]):
                table.popitem()
        log.append((len(path), len(table)))
        resolvents, fps = step(atoms, env, path)
        return resolvents, 0, fps, 1

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
    path = []
    atoms, env, steps, witness = _rewrite_normalize(
        tuple(g.atoms), bump_counter_past(env, p, g), path, p, b,
        collect_trace, None, observer)
    return RewriteResult("normal_form" if witness is None else "diverged",
                         Goal(atoms), env, steps, witness, _trace_lines(path))


def _rewrite_normalize(atoms: tuple, env: BindingEnv, path: list,
                       p: Program, b: Budget, collect_trace: bool,
                       consumed: Optional[dict], observer) -> tuple:
    """``rewrite_normalize`` with ``env``'s counter already past ``p``'s
    and the goal's names, as ``(atoms, env, steps, witness)``; the witness
    is None for a normal form.  With ``collect_trace`` each step is
    appended to ``path``."""
    cur_env = env
    steps = 0
    # (atoms, env) before each of the last steps; rendered on divergence.
    history: deque = deque(maxlen=8)
    # Atoms to the left of the last rewrite position stay dead for the rest
    # of the phase: a step binds only freshly renamed clause variables, which
    # cannot occur in atoms that predate the renaming, and matching never
    # instantiates the goal side.  Resume each scan at that position.
    frontier = 0
    while True:
        found = next(((ai, clause, matched)
                      for ai in range(frontier, len(atoms))
                      for clause in p.select(atoms[ai], cur_env)
                      if (matched := match_head(clause, atoms[ai], cur_env))
                      is not None), None)
        if found is None:
            return atoms, cur_env, steps, None
        if steps >= b.max_rewrite_steps:
            witness = [_goal_snapshot(a, e) for a, e in history]
            witness.append(_goal_snapshot(atoms, cur_env))
            return atoms, cur_env, steps, witness
        ai, clause, (ren, sigma) = found
        if consumed is not None:
            stack = list(clause.head.args)  # every compound occurrence
            while stack:
                x = stack.pop()
                if x.__class__ is Compound:
                    consumed[x.functor] = consumed.get(x.functor, 0) + 1
                    stack.extend(x.args)
        if collect_trace:
            path.append(Step("rw", clause.idx, ai, atoms[ai],
                             _new_bindings(sigma, cur_env)))
        history.append((atoms, cur_env))
        atoms = atoms[:ai] + rename_body(clause, ren) + atoms[ai + 1:]
        cur_env = sigma
        frontier = ai
        steps += 1
        if observer is not None:
            observer(atoms, cur_env)


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
    best: list = []
    for ai, atom in enumerate(g.atoms):
        options = []
        alive = False
        for clause in p.select(atom, env):
            resolved = unify_head(clause, atom, env)
            if resolved is None:
                continue
            alive = True
            if best:
                break  # past the chosen atom, only liveness counts
            ren, u = resolved
            fresh = {v.name for v in ren.values()}
            # binding only fresh names, a head may still have overwritten a
            # goal's variable loop, which _bound_since does not list
            if (any(name not in fresh for name in _bound_since(u, env))
                    or not head_matches(clause.head, atom, env)):
                options.append((g, u, clause.idx, ai))
        if not alive:
            return []
        if options and not best:
            best = options
    return best


def _structural(p: Program, b: Budget, trace: bool,
                consumed: Optional[dict] = None) -> tuple:
    """Structural resolution as ``_search``'s ``reduce`` and ``expand``:
    the rewriting phase, then one ``su`` resolvent per substitution option."""
    def expand(atoms, env, path):
        options = subst_step(Goal(atoms), p, env)
        return ([(atoms, env2, "su", idx) for _, env2, idx, _ in options],
                options[0][3] if options else 0, None, len(options))

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
    reduce, expand = _structural(p, b, False, consumed)

    def counting(atoms, env, path):
        nonlocal liveness
        resolvents, ai, fps, taken = expand(atoms, env, path)
        liveness += taken
        # the goal's names, not the renamed clause's (bump_counter_past)
        for _, env2, _, _ in resolvents:
            fresh = {f"V{i}" for i in range(env.counter, env2.counter)}
            for name in _bound_since(env2, env):
                if name not in fresh:
                    for x in subterms((Var(name),), env2):
                        if isinstance(x, Compound):
                            introduced[x.functor] = introduced.get(x.functor, 0) + 1
        return resolvents, ai, fps, taken

    verdict = _search(g, p, replace(b, max_depth=inf, max_answers=None),
                      counting, reduce)
    if verdict.kind == "not_universally_observable":
        return ProductivityReport(False, liveness, {}, witness=verdict.witness)
    produced = {f: min(n, consumed.get(f, 0))
                for f, n in introduced.items() if consumed.get(f)}
    return ProductivityReport(True, liveness, produced)

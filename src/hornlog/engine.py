"""Derivation engines: SLD, coinductive SLD, and structural resolution.

All three engines share the same search discipline — leftmost atom, clause
order, depth-first — and differ in how an atom may be closed or reduced:

* ``sld_solve``: classic resolution, occurs check on by default (skipped
  for a clause head where no variable occurs twice: it cannot fire there).
* ``colp_solve``: occurs check off; before expanding an atom, try to close it
  against each same-predicate ancestor on the path (most recent first).
  Cyclic bindings produced this way are rational answers.
* ``sres_solve``: separates each resolution step into an exhaustive rewriting
  phase (clause heads *match* goal atoms; goals are never instantiated) and a
  single substitution phase (heads that unify but do not match instantiate
  the goal in place).  After ``lazy_k`` substitution steps a branch reports a
  partial answer.

Every engine records a branch as one immutable chain of ``Step`` records,
each linked to the step before it: its kind (``sld``, ``hyp``, ``rw`` or
``su``), clause, selected atom and, when a trace is asked for, the bindings
its trace line shows, rendered when the step is taken.  What the engines
report about a branch is read off that chain: colp's ancestors (walk
``prev``, most recent first), the trace lines and the selected atoms of a
certificate.  Structural resolution extends the chain only when a trace is
asked for.

A step should cost the same however long its branch.  So ``colp`` reads
each ancestor's predicate and arity without building a key, and rejects it
by its fingerprints before unifying; ``subst_step`` asks the atoms past the
one it chose only whether some head still unifies.

A diverging rewriting phase is evidence against universal observability and
turns into a ``not_universally_observable`` verdict carrying the witness,
the goals of the phase's last steps, rendered once it has diverged.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
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
    of any kind; ``max_rewrite_steps`` bounds one normalization phase;
    ``max_subst_steps`` bounds substitution steps across a whole search.
    ``max_answers`` stops the search early once that many answers exist
    (None = keep searching until the other caps bite)."""

    max_steps: int = 10000
    max_depth: int = 500
    max_rewrite_steps: int = 1000
    max_subst_steps: int = 1000
    max_answers: Optional[int] = None


DEFAULT_BUDGET = Budget()


@dataclass(frozen=True, eq=False)
class Step:
    """One reduction on a branch, linked to the branch's previous step.

    ``ref`` is the clause index, or for a ``hyp`` step how many steps back
    the closing ancestor was selected; ``bound`` holds the ``(name, term)``
    pairs of the step's trace line, or None when no trace is asked for.
    ``colp`` fills ``fps`` with ``atom``'s per-argument ground fingerprints
    under the environment it was selected in (``None`` where not ground)."""

    kind: str  # sld | hyp | rw | su
    ref: int
    atom_index: int
    atom: Atom
    bound: Optional[list]
    prev: Optional["Step"] = field(repr=False)
    fps: Optional[tuple] = field(default=None, repr=False)


def _chain(step: Optional[Step]) -> list:
    """The steps of the branch ending at ``step``, root first."""
    out = []
    while step is not None:
        out.append(step)
        step = step.prev
    out.reverse()
    return out


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
    last: Optional[Step] = None  # the branch's last step

    @property
    def trace(self) -> list:
        """Trace lines of the branch up to this result, numbered from 1."""
        return _trace_lines(self.last)


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


def _trace_lines(step: Optional[Step]) -> list:
    return [syntax.trace_line(n, s.kind, s.ref, s.atom_index, s.bound)
            for n, s in enumerate(_chain(step), start=1)]


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


def colp_step(atoms: tuple, env: BindingEnv, last: Optional[Step],
              p: Program) -> list:
    """Resolvents under the coinductive discipline, the branch ending at
    ``last``: hypothesis closures against same-predicate ancestors (most
    recent first, as ``(atoms, env, "hyp", steps back)``) come before clause
    resolvents; unification runs without the occurs check."""
    return _colp_step(atoms, env, last, p)[0]


def _colp_step(atoms: tuple, env: BindingEnv, last: Optional[Step],
               p: Program) -> tuple:
    """``colp_step``'s resolvents and the selected atom's ``Step.fps``.

    An ancestor whose ``fps`` differ from the selected atom's at a position
    where both are set is skipped without unifying: bindings only grow along
    a branch, so a term ground under the ancestor's environment is the same
    tree under ``env``, and two different ground trees never unify."""
    if not atoms:
        return [], None
    selected = atoms[0]
    rest = atoms[1:]
    pred, arity = selected.pred, len(selected.args)
    fps = tuple(_fp_under(env, a) for a in selected.args)
    children = []
    back = 0
    anc = last
    while anc is not None:
        back += 1
        a = anc.atom
        if a.pred == pred and len(a.args) == arity:
            for x, y in zip(anc.fps or (), fps):
                if x != y and x is not None and y is not None:
                    break
            else:
                u = unify_atoms(a, selected, env, occurs_check=False)
                if u is not None:
                    children.append((rest, u, "hyp", back))
        anc = anc.prev
    children.extend(sld_step(atoms, env, p, occurs_check=False))
    return children, fps


# ---------------------------------------------------------------------------
# Depth-first search shared by sld_solve / colp_solve


def _classify(env: BindingEnv, goal_vars: tuple) -> str:
    # One walk from a wrapper of all goal variables finds a back edge
    # exactly when a walk from some goal variable would.
    if has_cycle(env, Compound("", tuple(Var(n) for n in goal_vars))):
        return "rational"
    return "total"


def _answer(env: BindingEnv, goal_vars: tuple, steps: int,
            last: Optional[Step], want_trace: bool, certificate: bool = False,
            kind: Optional[str] = None) -> Answer:
    bindings = env.restrict(goal_vars)
    answer = Answer(bindings, goal_vars, kind or _classify(bindings, goal_vars),
                    steps_used=steps,
                    trace=_trace_lines(last) if want_trace else None)
    if certificate:
        answer.full_env = env
        answer.selected = tuple(s.atom for s in _chain(last))
    return answer


def _verdict(answers: list, truncated: bool, steps: int) -> Verdict:
    if answers:
        return Verdict("answers", answers, steps_used=steps)
    return Verdict("exhausted" if truncated else "failed", steps_used=steps)


def _dfs_solve(g: Goal, p: Program, b: Budget, step_fn, want_trace: bool,
               certificate: bool) -> Verdict:
    # step_fn(atoms, env, last) gives the resolvents of atoms[0] and the
    # Step.fps to record for it
    env0 = bump_counter_past(EMPTY_ENV, p, g)
    goal_vars = goal_var_names(g)
    stack = [(g.atoms, env0, 0, None)]
    answers = []
    steps = 0
    truncated = False
    while stack:
        atoms, env, depth, last = stack.pop()
        if not atoms:
            answers.append(_answer(env, goal_vars, steps, last, want_trace,
                                   certificate))
            if b.max_answers and len(answers) >= b.max_answers:
                break
            continue
        if steps >= b.max_steps:
            truncated = True
            break
        if depth >= b.max_depth:
            truncated = True
            continue
        steps += 1
        children, fps = step_fn(atoms, env, last)
        for atoms2, env2, kind, ref in reversed(children):
            bound = _new_bindings(env2, env) if want_trace else None
            stack.append((atoms2, env2, depth + 1,
                          Step(kind, ref, 0, atoms[0], bound, last, fps)))
    return _verdict(answers, truncated, steps)


def sld_solve(g: Goal, p: Program, b: Budget = DEFAULT_BUDGET,
              occurs_check: bool = True, trace: bool = False,
              certificate: bool = False) -> Verdict:
    """Depth-first SLD resolution; collects every answer reachable in budget."""
    return _dfs_solve(g, p, b,
                      lambda atoms, env, last: (sld_step(atoms, env, p,
                                                         occurs_check), None),
                      trace, certificate)


def colp_solve(g: Goal, p: Program, b: Budget = DEFAULT_BUDGET,
               trace: bool = False, certificate: bool = False) -> Verdict:
    """SLD plus the coinductive hypothesis rule; computes rational answers."""
    return _dfs_solve(g, p, b,
                      lambda atoms, env, last: _colp_step(atoms, env, last, p),
                      trace, certificate)


# ---------------------------------------------------------------------------
# Structural resolution


def rewrite_normalize(g: Goal, p: Program, env: BindingEnv = EMPTY_ENV,
                      b: Budget = DEFAULT_BUDGET, collect_trace: bool = False,
                      consumed: Optional[dict] = None,
                      observer=None, last: Optional[Step] = None) -> RewriteResult:
    """Apply the rewriting reduction until no clause head matches any atom.

    One step replaces the leftmost matching atom by the clause body under the
    matcher; matching never instantiates the goal, so rewriting is the
    deterministic, answer-preserving half of a resolution step.  A clause's
    own, unrenamed head is matched, and only the body is copied.  Exceeding
    ``max_rewrite_steps`` reports divergence with the recent goal history.
    With ``collect_trace`` every step extends the branch that ends at
    ``last``, and the result's ``last`` ends the extended branch.
    ``observer(atoms, env)`` is called after every step, which lets callers
    watch termination measures shrink.  Fresh names start past every
    literal ``V<n>`` in ``p`` and ``g``, so the renamed clauses never share
    a name with the goal.
    """
    return _rewrite_normalize(g, p, bump_counter_past(env, p, g), b,
                              collect_trace, consumed, observer, last)


def _rewrite_normalize(g: Goal, p: Program, env: BindingEnv, b: Budget,
                       collect_trace: bool, consumed: Optional[dict],
                       observer, last: Optional[Step]) -> RewriteResult:
    """``rewrite_normalize`` with ``env``'s counter already past ``p``'s
    and ``g``'s names."""
    atoms = tuple(g.atoms)
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
            return RewriteResult("normal_form", Goal(atoms), cur_env, steps,
                                 last=last)
        if steps >= b.max_rewrite_steps:
            witness = [_goal_snapshot(a, e) for a, e in history]
            witness.append(_goal_snapshot(atoms, cur_env))
            return RewriteResult("diverged", Goal(atoms), cur_env, steps,
                                 witness=witness, last=last)
        ai, clause, (ren, sigma) = found
        if consumed is not None:
            stack = list(clause.head.args)  # every compound occurrence
            while stack:
                x = stack.pop()
                if x.__class__ is Compound:
                    consumed[x.functor] = consumed.get(x.functor, 0) + 1
                    stack.extend(x.args)
        if collect_trace:
            last = Step("rw", clause.idx, ai, atoms[ai],
                        _new_bindings(sigma, cur_env), last)
        history.append((atoms, cur_env))
        atoms = atoms[:ai] + rename_body(clause, ren) + atoms[ai + 1:]
        cur_env = sigma
        frontier = ai
        steps += 1
        if observer is not None:
            observer(atoms, cur_env)


def _goal_snapshot(atoms, env: BindingEnv, limit: int = 6) -> str:
    shown = [syntax.term_text(resolve(env, Compound(a.pred, a.args), 2,
                                      cut=12))
             for a in atoms[:limit]]
    if len(atoms) > limit:
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


def _structural_walk(g: Goal, p: Program, b: Budget,
                     lazy_k: Optional[int] = None, trace: bool = False,
                     consumed: Optional[dict] = None):
    """Depth-first walk of the structural-resolution tree, shared by
    ``sres_solve`` and ``productivity_report``.

    Each branch normalizes by rewriting and then either ends — its normal
    form is empty, or it has taken ``lazy_k`` substitution steps — or splits
    into one child per substitution option.  Yields ``(rw, options, steps,
    substs)`` for every normalized branch, with ``options`` None at a leaf
    and at a diverged phase, which ends the walk; ``steps`` and ``substs``
    count the walk's reductions and substitution steps so far.  When a cap
    cuts the walk short, the last item is ``(None, None, steps, substs)``.
    """
    env0 = bump_counter_past(EMPTY_ENV, p, g)
    stack = [(g.atoms, env0, 0, None)]
    steps = 0
    substs = 0
    while stack:
        atoms, env, branch_substs, last = stack.pop()
        rw = _rewrite_normalize(Goal(atoms), p, env, b, trace, consumed,
                                None, last)
        steps += rw.steps
        if rw.status == "diverged":
            yield rw, None, steps, substs
            return
        if not rw.goal.atoms or (lazy_k is not None
                                 and branch_substs >= lazy_k):
            yield rw, None, steps, substs
            continue
        if steps >= b.max_steps or substs >= b.max_subst_steps:
            yield None, None, steps, substs
            return
        options = subst_step(rw.goal, p, rw.env)
        for goal2, env2, clause_idx, ai in reversed(options):
            substs += 1
            steps += 1
            step = (Step("su", clause_idx, ai, goal2.atoms[ai],
                         _new_bindings(env2, rw.env), rw.last)
                    if trace else None)
            stack.append((goal2.atoms, env2, branch_substs + 1, step))
        yield rw, options, steps, substs


def sres_solve(g: Goal, p: Program, b: Budget = DEFAULT_BUDGET,
               lazy_k: int = 3, trace: bool = False) -> Verdict:
    """Structural resolution: normalize by rewriting, then take one
    substitution step, depth-first over the substitution choices.

    Branches whose normal form is empty yield total (or rational) answers;
    branches that reach ``lazy_k`` substitution steps yield partial answers
    with whatever the goal variables are bound to so far.  A diverging
    normalization aborts the whole search as not universally observable.
    """
    goal_vars = goal_var_names(g)
    answers = []
    truncated = False
    for rw, options, steps, _ in _structural_walk(g, p, b, lazy_k, trace):
        if rw is None:
            truncated = True
        elif rw.status == "diverged":
            return Verdict("not_universally_observable", answers,
                           witness=rw.witness, steps_used=steps)
        elif options is None:
            answers.append(_answer(rw.env, goal_vars, steps, rw.last, trace,
                                   kind="partial" if rw.goal.atoms else None))
            if b.max_answers and len(answers) >= b.max_answers:
                break
    return _verdict(answers, truncated, steps)


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
    for rw, options, _, liveness in _structural_walk(g, p, b,
                                                      consumed=consumed):
        if rw is not None and rw.status == "diverged":
            return ProductivityReport(False, liveness, {}, witness=rw.witness)
        if not options:
            continue
        for _goal, env2, _cid, _ai in options:
            # the goal's names, not the renamed clause's (bump_counter_past)
            fresh = {f"V{i}" for i in range(rw.env.counter, env2.counter)}
            for name in _bound_since(env2, rw.env):
                if name not in fresh:
                    for x in subterms((Var(name),), env2):
                        if isinstance(x, Compound):
                            introduced[x.functor] = introduced.get(x.functor, 0) + 1
    produced = {f: min(n, consumed.get(f, 0))
                for f, n in introduced.items() if consumed.get(f)}
    return ProductivityReport(True, liveness, produced)

"""Proof-argument transformation restoring universal observability.

Each clause gets one extra head argument ``k$<i>(X$1, ..., X$n)`` —  ``i``
the clause's position, ``n`` its body length — and each body atom gets the
matching ``X$j``.  Facts gain a constant ``k$<i>``.  The new argument makes
every clause head strictly deeper than the atoms in its body, so rewriting
reductions on a transformed program always terminate: the total number of
function symbols sitting in proof positions drops by one per step
(``proof_measure``).  Derivations over the transformed program bind the
goal's proof variable to a term recording which clauses were used where;
``render_proof`` prints that record, ``strip_answer`` discards it.

Names starting with ``k$`` (proof constructors), ``K$`` (goal proof
variables) and ``X$`` (clause proof variables) are reserved; transforming a
program that already uses them is refused rather than silently shadowed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from hornlog.engine import _classify
from hornlog.terms import (
    Atom,
    BindingEnv,
    Clause,
    Compound,
    EMPTY_ENV,
    Goal,
    Program,
    Var,
    has_cycle,
    term_vars,
)
from hornlog import syntax

KAPPA_PREFIX = "k$"
PROOF_VAR_PREFIX = "K$"
CLAUSE_VAR_PREFIX = "X$"


class TransformError(Exception):
    pass


@dataclass
class TransformedProgram:
    program: Program
    back_map: dict = field(default_factory=dict)  # kappa functor -> source Clause


def _reserved(name: str) -> bool:
    return name.startswith((KAPPA_PREFIX, PROOF_VAR_PREFIX, CLAUSE_VAR_PREFIX))


def _check_clause_namespace(c: Clause) -> None:
    for atom in (c.head,) + c.body:
        if _reserved(atom.pred):
            raise TransformError(f"predicate name {atom.pred!r} collides with "
                                 "the reserved proof namespace")
        stack = list(atom.args)
        while stack:
            t = stack.pop()
            if isinstance(t, Var):
                if _reserved(t.name):
                    raise TransformError(
                        f"variable {t.name!r} collides with the reserved "
                        "proof namespace")
                continue
            if _reserved(t.functor):
                raise TransformError(f"functor {t.functor!r} collides with "
                                     "the reserved proof namespace")
            stack.extend(t.args)


def transform_program(p: Program) -> TransformedProgram:
    """Add proof arguments to every clause; clause order is preserved."""
    out = []
    back = {}
    for c in p.clauses:
        _check_clause_namespace(c)
        kappa = f"{KAPPA_PREFIX}{c.idx}"
        chis = tuple(Var(f"{CLAUSE_VAR_PREFIX}{j}")
                     for j in range(1, len(c.body) + 1))
        head = Atom(c.head.pred, c.head.args + (Compound(kappa, chis),),
                    span=c.head.span)
        body = tuple(Atom(b.pred, b.args + (chi,), span=b.span)
                     for b, chi in zip(c.body, chis))
        out.append(Clause(head, body, idx=c.idx))
        back[kappa] = c
    return TransformedProgram(Program(tuple(out)), back)


def transform_goal(g: Goal) -> Goal:
    """Append a distinct fresh proof variable ``K$<n>`` to every atom."""
    for a in g.atoms:
        for t in a.args:
            for v in term_vars(t):
                if _reserved(v.name):
                    raise TransformError(
                        f"goal variable {v.name!r} collides with the "
                        "reserved proof namespace")
    atoms = tuple(Atom(a.pred, a.args + (Var(f"{PROOF_VAR_PREFIX}{n}"),),
                       span=a.span)
                  for n, a in enumerate(g.atoms, start=1))
    return Goal(atoms)


def proof_vars(g: Goal) -> tuple:
    """The proof variables a transformed goal carries, in atom order."""
    names = []
    for a in g.atoms:
        if a.args and isinstance(a.args[-1], Var) \
                and a.args[-1].name.startswith(PROOF_VAR_PREFIX):
            names.append(a.args[-1].name)
    return tuple(names)


def strip_answer(answer):
    """Copy of ``answer`` with the proof bindings dropped.

    The answer's class is whatever the engine produced; only ``bindings``,
    ``goal_vars`` and (when no cycle remains) ``kind`` change.
    """
    keep = tuple(n for n in answer.goal_vars
                 if not n.startswith(PROOF_VAR_PREFIX))
    env = answer.bindings.restrict(keep)
    kind = answer.kind
    if kind != "partial":
        kind = _classify(env, keep)
    return type(answer)(bindings=env, goal_vars=keep, kind=kind,
                        steps_used=answer.steps_used, trace=answer.trace)


def strip_verdict(verdict):
    """Copy of ``verdict`` with ``strip_answer`` applied to every answer."""
    return replace(verdict, answers=[strip_answer(a) for a in verdict.answers])


def proof_measure(atoms, env: BindingEnv = EMPTY_ENV) -> int:
    """Total number of function symbols in the proof (last-argument)
    positions of ``atoms`` — the quantity each rewriting step on a
    transformed program strictly decreases.  Only defined for finite
    proof terms."""
    total = 0
    for a in atoms:
        if not a.args:
            continue
        if has_cycle(env, a.args[-1]):
            raise ValueError("proof measure undefined for a rational proof")
        stack = [a.args[-1]]
        while stack:
            x = env.walk(stack.pop())
            if isinstance(x, Var):
                continue
            total += 1
            stack.extend(x.args)
    return total


UNFINISHED = "⟨unfinished⟩"


def render_proof(pi, t: TransformedProgram, env: BindingEnv = EMPTY_ENV) -> str:
    """Indented tree naming the clause each proof constructor stands for.

    Unbound proof positions render as an explicitly unfinished node; a
    rational proof (a constructor reached again on its own path) renders as
    a back reference instead of unfolding forever.
    """
    lines = []
    on_path = set()
    stack = [(pi, 0)]  # (term, indent), or (node id, None) after its args
    while stack:
        x, indent = stack.pop()
        if indent is None:
            on_path.discard(x)
            continue
        pad = "  " * indent
        x = env.walk(x)
        if isinstance(x, Var):
            lines.append(pad + UNFINISHED)
            continue
        if id(x) in on_path:
            lines.append(pad + f"↻ {x.functor}")
            continue
        src = t.back_map.get(x.functor)
        if src is None:
            lines.append(pad + syntax.term_text(x))
            continue
        lines.append(pad + f"clause {src.idx}: {syntax.atom_text(src.head)}")
        on_path.add(id(x))
        stack.append((id(x), None))
        stack.extend((a, indent + 1) for a in reversed(x.args))
    return "\n".join(lines)

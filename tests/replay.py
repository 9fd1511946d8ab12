"""Replay an answer's derivation from its trace, trusting nothing the search
did.

``replay`` reads each line of an answer made with ``trace=True`` and takes
the step again with four public term operations alone: ``bump_counter_past``,
``rename_apart``, ``unify_atoms`` and ``match``.  Each step must be legal
under its engine's rules:

* ``sld``: the renamed clause's head unifies with the leftmost atom, with
  the occurs check when ``sld`` ran with it, never under ``colp``; its body
  replaces the atom.
* ``hyp`` (``colp``): the atom selected ``ref`` steps back has the same
  predicate and arity and unifies with the leftmost atom, which goes.
* ``rw`` (``sres``): the renamed head matches the atom, so the goal is not
  instantiated; its body replaces the atom.
* ``su`` (``sres``): the renamed head unifies with the atom and does not
  match it, on a goal that no head matches (rewriting ran first); the goal
  keeps its atoms.

Each line's σ must be what the replayed step bound, rendered as a trace
renders it.  The goal must end empty, or, for a partial answer, in normal
form after ``lazy_k`` ``su`` steps.  The replayed bindings of the goal's
variables must have the answer's ``canon_key``, and a finished answer is
``rational`` exactly when they hold a cycle.  A failed check raises
``AssertionError``.  The cost is linear in the derivation, up to the
environment copies of the immutable ``unify_atoms``.
"""

from __future__ import annotations

from math import inf

from hornlog.engine import goal_var_names
from hornlog.syntax import parse_trace_line, trace_line
from hornlog.terms import (
    EMPTY_ENV,
    Compound,
    Var,
    bump_counter_past,
    canon_key,
    has_cycle,
    match,
    rename_apart,
    resolve,
    unify_atoms,
)


def _matched(head, atom, env):
    """``match`` of a renamed head against ``atom`` under ``env``."""
    if (head.pred, len(head.args)) != (atom.pred, len(atom.args)):
        return None
    return match(Compound("", head.args), Compound("", atom.args), env)


def _normal(atoms, program, env) -> bool:
    """No clause head matches any atom of the goal."""
    for atom in atoms:
        for clause in program.clauses_for(atom.key):
            renamed, env2 = rename_apart(clause, env)
            if _matched(renamed.head, atom, env2) is not None:
                return False
    return True


def replay(goal, program, engine: str, answer, occurs_check: bool = True,
           lazy_k=None) -> None:
    """Check ``answer`` of ``goal`` on ``program`` under ``engine`` (``sld``,
    ``colp`` or ``sres``) as the module docstring says.  ``occurs_check`` is
    what ``sld`` ran with; ``lazy_k`` what ``sres`` ran with."""
    lazy_k = inf if lazy_k is None else lazy_k
    env = bump_counter_past(EMPTY_ENV, program, goal)
    atoms = tuple(goal.atoms)
    selected = []  # each step's selected atom, root first: colp's ancestors
    su_steps = 0
    for n, line in enumerate(answer.trace, 1):
        step = parse_trace_line(line)
        kind, ref, ai = step["kind"], step["clause"], step["atom"]
        assert step["n"] == n, line
        atom = atoms[ai]
        base = env
        if kind == "hyp":
            assert engine == "colp" and ai == 0, line
            assert 1 <= ref <= len(selected), line
            anc = selected[-ref]
            assert (anc.pred, len(anc.args)) == (atom.pred, len(atom.args)), \
                line
            new = unify_atoms(anc, atom, env)
            rest = atoms[1:]
        else:
            clause = program.clauses[ref - 1]
            assert clause.idx == ref, line
            renamed, base = rename_apart(clause, env)
            head = renamed.head
            if kind == "sld":
                assert engine in ("sld", "colp") and ai == 0, line
                new = unify_atoms(head, atom, base,
                                  engine == "sld" and occurs_check)
                rest = renamed.body + atoms[1:]
            elif kind == "rw":
                assert engine == "sres", line
                new = _matched(head, atom, base)
                rest = atoms[:ai] + renamed.body + atoms[ai + 1:]
            else:
                assert kind == "su" and engine == "sres", line
                assert _normal(atoms, program, env), line
                assert _matched(head, atom, base) is None, line
                new = unify_atoms(head, atom, base)
                rest = atoms
                su_steps += 1
        assert new is not None, line
        names = [name for name, _ in step["subst"]]
        assert names == sorted(names), line
        assert len(new.bindings) - len(base.bindings) == len(names), line
        assert all(name in new and name not in base for name in names), line
        assert trace_line(n, kind, ref, ai, [
            (name, resolve(new, Var(name), 2, cut=12)) for name in names
        ]) == line
        selected.append(atom)
        env, atoms = new, rest
    if engine == "sres":
        assert su_steps <= lazy_k
    if atoms:
        assert engine == "sres" and answer.kind == "partial"
        assert su_steps == lazy_k and _normal(atoms, program, env)
    else:
        assert answer.kind != "partial"
    assert answer.goal_vars == goal_var_names(goal)
    wrapper = Compound("", tuple(Var(name) for name in answer.goal_vars))
    assert canon_key(wrapper, env) == canon_key(wrapper, answer.bindings)
    if answer.kind != "partial":
        assert (answer.kind == "rational") == has_cycle(env, wrapper)

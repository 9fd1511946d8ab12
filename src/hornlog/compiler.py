"""Translate class tables and expressions into logic programs.

Type checking and inference for the mini-language reduce to solving goals
against the compiled program: types are terms (``int``, ``bool``, ``null``,
``obj(c, [field:type, ...])``, unions ``a \\/ b``) and a derivation of
``invoke``/``new``/``fieldacc`` atoms is a typing proof.  The compiled
program is ordinary Horn-clause text, so every engine in
:mod:`hornlog.engine` — and the productivity transformation — applies to it
unchanged.

A compiled unit is the fixed runtime support program followed by the
clauses generated from the class table: ``class``/``extends`` facts, one
``ctor`` clause per constructor, and exactly one ``hasmeth`` clause per
method declaration.  Method bodies compile left to right, one atom per
``new``/``invoke``/field access/primitive operator; a conditional
contributes its condition's atoms (result constrained to ``bool``), both
branch bodies, and the union of the branch results.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from hornlog import minioo as moo
from hornlog.engine import (
    Budget,
    DEFAULT_BUDGET,
    Verdict,
    colp_solve,
    sld_solve,
    sres_solve,
)
from hornlog.syntax import parse_program
from hornlog.terms import (
    Atom,
    Clause,
    Compound,
    FIELD_FUNCTOR,
    Goal,
    Program,
    Term,
    UNION_FUNCTOR,
    Var,
    const,
    mklist,
)
from hornlog.transform import strip_verdict, transform_goal, transform_program

#: Maps source variable names to the logic variable or closed type term
#: standing for them during expression compilation.
TypeEnv = dict[str, Term]

_RUNTIME_SRC = """
% method invocation on object types: defer to the receiver's class,
% prepending the receiver itself as the type of `this`
invoke(obj(C, F), M, A, R) :- hasmeth(C, M, [obj(C, F)|A], R).
% a union receiver must support the method either way
invoke(T1 \\/ T2, M, A, R1 \\/ R2) :- invoke(T1, M, A, R1), invoke(T2, M, A, R2).
% methods are inherited along extends edges
hasmeth(C, M, A, R) :- extends(C, D), hasmeth(D, M, A, R).
% field access looks the field up in the object's record
fieldacc(obj(C, F), N, T) :- fieldmem(F, N, T).
fieldacc(T1 \\/ T2, N, R1 \\/ R2) :- fieldacc(T1, N, R1), fieldacc(T2, N, R2).
fieldmem([N:T|_], N, T).
fieldmem([_|F], N, T) :- fieldmem(F, N, T).
% object creation defers to the per-class constructor clause
new(C, A, obj(C, R)) :- ctor(C, A, R).
% nominal subtyping over the class graph
subclass(X, X) :- class(X).
subclass(X, object) :- class(X).
subclass(X, Z) :- extends(X, Y), subclass(Y, Z).
class(object).
ctor(object, [], []).
% primitive operator typings
leq(int, int, bool).
sub(int, int, int).
eq(X, X).
"""


@functools.cache  # parsed once: every call returns the same Program
def runtime_clauses() -> Program:
    """The fixed support clauses every compiled unit starts with."""
    return parse_program(_RUNTIME_SRC, "<runtime>")


@dataclass(frozen=True)
class CompiledUnit:
    """The runtime clauses, then each declaration's clauses; a generated
    clause's span is the span of the declaration it comes from."""
    program: Program


class _Names:
    """Allocates clause-local variable names: first request for a prefix is
    the bare prefix, later ones get numeric suffixes (R, R2, R3, ...)."""

    def __init__(self, reserved=()):
        self.used = set(reserved)
        self.tried: dict = {}  # prefix -> its last suffix; all below are used

    def claim(self, want: str) -> str:
        i = self.tried.get(want, 1)
        name = f"{want}{i}" if i > 1 else want
        while name in self.used:
            i += 1
            name = f"{want}{i}"
        self.used.add(name)
        self.tried[want] = i
        return name


def _cap(name: str) -> str:
    return name[0].upper() + name[1:]


def _record(pairs) -> Term:
    return mklist(Compound(FIELD_FUNCTOR, (const(n), t)) for n, t in pairs)


_LEAF_TYPES = {moo.IntLit: "int", moo.BoolLit: "bool", moo.Null: "null"}


def _compile_into(e: moo.Expr, env: TypeEnv, names: _Names, atoms: list) -> Term:
    """Append the atoms of ``e`` to ``atoms`` and return its result term.

    Post-order on an explicit stack, as in ``terms._rename``: a node goes
    back on the stack as ``(node, number of children)`` under its children,
    and claims its result name and appends its atom when that marker comes
    back, so atoms and names come in source order.  ``None`` marks the end
    of an ``if``'s condition, which is constrained to ``bool`` there.
    """
    out: list = []  # result terms of the finished nodes, left to right
    stack: list = [e]
    while stack:
        x = stack.pop()
        if x is None:
            atoms.append(Atom("eq", (out[-1], const("bool"))))
        elif x.__class__ is tuple:
            node, n = x
            k = len(out) - n
            vals = out[k:]
            del out[k:]
            if isinstance(node, moo.If):
                out.append(Compound(UNION_FUNCTOR, (vals[1], vals[2])))
                continue
            if isinstance(node, moo.New):
                prefix, pred, args = "R", "new", (const(node.cls), mklist(vals))
            elif isinstance(node, moo.FieldAcc):
                prefix, pred, args = "F", "fieldacc", (vals[0], const(node.fld))
            elif isinstance(node, moo.Invoke):
                prefix, pred = "T", "invoke"
                args = (vals[0], const(node.method), mklist(vals[1:]))
            else:
                prefix, pred = ("B", "leq") if node.op == "<=" else ("S", "sub")
                args = tuple(vals)
            result = Var(names.claim(prefix))
            atoms.append(Atom(pred, args + (result,)))
            out.append(result)
        elif x.__class__ in _LEAF_TYPES:
            out.append(const(_LEAF_TYPES[x.__class__]))
        elif isinstance(x, (moo.Var, moo.This)):
            name = "this" if isinstance(x, moo.This) else x.name
            if name not in env:
                env[name] = Var(names.claim(_cap(name)))
            out.append(env[name])
        elif isinstance(x, moo.If):
            stack += [(x, 3), x.orelse, x.then, None, x.cond]
        else:
            if isinstance(x, moo.New):
                kids = x.args
            elif isinstance(x, moo.FieldAcc):
                kids = (x.target,)
            elif isinstance(x, moo.Invoke):
                kids = (x.target, *x.args)
            elif isinstance(x, moo.BinOp):
                kids = (x.lhs, x.rhs)
            else:
                raise TypeError(f"not an expression node: {x!r}")
            stack.append((x, len(kids)))
            stack.extend(reversed(kids))
    return out[0]


def compile_expr(e: moo.Expr, env: Optional[TypeEnv] = None) -> tuple:
    """Compile an expression to ``(goal, result term)``.

    Source variables are looked up in ``env``; names not present become
    fresh logic variables (inference mode) and are added to ``env`` so
    later occurrences share them.
    """
    if env is None:
        env = {}
    names = _Names(t.name for t in env.values() if isinstance(t, Var))
    atoms: list = []
    result = _compile_into(e, env, names, atoms)
    return Goal(tuple(atoms)), result


def _ctor_clause(ct: moo.ClassTable, decl: moo.ClassDecl, idx: int) -> Clause:
    names = _Names()
    env: TypeEnv = {p: Var(names.claim(_cap(p))) for p in decl.ctor.params}
    atoms: list = []
    sup = [_compile_into(a, env, names, atoms) for a in decl.ctor.super_args]
    parent_rec = [(f, Var(names.claim(_cap(f))))
                  for f in sorted(set(ct.fields_of(decl.parent)))]
    atoms.append(Atom("ctor",
                      (const(decl.parent), mklist(sup), _record(parent_rec))))
    own: dict = {}
    for f, rhs in decl.ctor.assigns:
        own[f] = _compile_into(rhs, env, names, atoms)
    inherited = dict(parent_rec)
    record = [(f, own.get(f, inherited.get(f)))
              for f in sorted(set(ct.fields_of(decl.name)))]
    head = Atom("ctor", (const(decl.name),
                         mklist(env[p] for p in decl.ctor.params),
                         _record(record)))
    return Clause(head, tuple(atoms), idx, decl.ctor.span)


def _method_clause(decl: moo.ClassDecl, m: moo.MethodDecl, idx: int) -> Clause:
    names = _Names(["This"])
    env: TypeEnv = {"this": Var("This")}
    for p in m.params:
        env[p] = Var(names.claim(_cap(p)))
    atoms: list = []
    result = _compile_into(m.body, env, names, atoms)
    head = Atom("hasmeth", (const(decl.name), const(m.name),
                            mklist([env["this"]] + [env[p] for p in m.params]),
                            result))
    return Clause(head, tuple(atoms), idx, m.span)


def compile_class_table(ct: moo.ClassTable) -> CompiledUnit:
    clauses = list(runtime_clauses().clauses)
    for decl in ct.classes.values():
        nxt = len(clauses) + 1
        clauses += [
            Clause(Atom("class", (const(decl.name),)), (), nxt, decl.span),
            Clause(Atom("extends", (const(decl.name), const(decl.parent))),
                   (), nxt + 1, decl.span),
            _ctor_clause(ct, decl, nxt + 2)]
        for m in decl.methods.values():
            clauses.append(_method_clause(decl, m, len(clauses) + 1))
    return CompiledUnit(Program(tuple(clauses)))


def infer(ct: moo.ClassTable, e: moo.Expr, engine: str = "sres",
          budget: Budget = DEFAULT_BUDGET,
          assumptions: Optional[TypeEnv] = None, lazy_k: int = 3) -> Verdict:
    """Compile the class table, compile ``e`` as a goal, and solve it.

    ``assumptions`` gives closed types for free source variables; anything
    not assumed is inferred.  With ``engine="sres"`` the program and goal
    are run through the productivity transformation first and the proof
    arguments are stripped from the answers.
    """
    unit = compile_class_table(ct)
    env: TypeEnv = dict(assumptions) if assumptions else {}
    goal, _result = compile_expr(e, env)
    if engine == "sld":
        return sld_solve(goal, unit.program, budget)
    if engine == "colp":
        return colp_solve(goal, unit.program, budget)
    if engine == "sres":
        t = transform_program(unit.program)
        verdict = sres_solve(transform_goal(goal), t.program, budget,
                             lazy_k=lazy_k)
        return strip_verdict(verdict)
    raise ValueError(f"unknown engine {engine!r}")

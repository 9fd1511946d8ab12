"""First-order terms, binding environments, and unification.

Terms themselves are always finite trees.  Infinite (rational) trees never
exist as concrete data structures; they arise only through cycles in a
:class:`BindingEnv`, e.g. ``{X -> cons(0, X)}``.  Every operation that walks
terms therefore threads an environment and guards against revisiting the same
pair of nodes, which is what makes unification on rational trees terminate.

A :class:`MuTerm` is the exportable face of a rational term: a finite root
plus a set of contractive equations, suitable for printing and comparison.

:class:`Compound`, :class:`Var` and :class:`SourceSpan` are frozen slotted
dataclasses whose ``__init__`` is written by hand: it stores each field
through the slot's own descriptor setter (``_set_functor`` and the like),
which costs a fraction of what a generated frozen ``__init__`` and
``object.__setattr__`` cost.  Every parser, renaming and resolve builds
nodes, so that cost is paid per node.  Fields, ``==``, ``hash``,
``repr``, ``dataclasses.replace``, copying and pickling are the
dataclass's, and assigning or deleting a field still raises
``FrozenInstanceError``.  Below Python 3.12, assigning a name that is no
field raises ``TypeError: super(type, obj): ...`` instead, from the
``__setattr__`` that ``slots=True`` generates there; the node is unchanged.

Every :class:`Compound` carries a ground fingerprint ``fp``, computed once
when the node is built from its functor and its arguments' fingerprints.
It is ``None`` exactly when a :class:`Var` occurs in the term, and two
structurally equal ground terms always have the same ``fp``.  So two ground
compounds with different fingerprints are different terms under every
environment: ``unify`` and ``match`` fail on them at once, and the occurs
check never descends into a ground compound.  Equal fingerprints prove
nothing and are always walked, so a hash collision cannot change an answer.
Fingerprints come from ``hash``, which is salted per process, so they are
never printed, stored or used to order anything.

A compound built with variables has ``fp = None`` even when its variables
are bound to ground terms.  ``_fp_under`` folds the same scheme through an
environment's bindings: it reuses every ``fp`` it meets, visits each other
node once, and gives ``None`` at an unbound variable or a cycle.  Bindings
only grow along a derivation, so a term ground under one environment is the
same tree, with the same fingerprint, under every environment derived from
it; ``colp`` rejects an ancestor by comparing such fingerprints.  For the
same reason ``colp`` passes every walk one table, ``id(node) -> (node,
fp)``, of the compounds found ground on its branch, and drops an entry when
it backtracks past the step that added it.  An entry holds its node, so
the id is not reused while the entry lives.

The walks that read a term under an environment are few and iterative,
each for its own question:

* :func:`subterms` lists what is reachable: every compound once, in
  depth-first, left-to-right order.
* ``canon_key`` numbers the reachable compounds in its own depth-first
  walk.  A node that reaches no cycle is a finite tree, and its class is
  interned from its functor and its children's classes when the walk
  finishes it.  Only the nodes that reach a cycle are refined as a graph.
* ``_on_cycles`` finds every compound that lies on a cycle, in one pass
  of Tarjan's strongly connected components.  ``resolve`` runs it only at
  depth 0: deeper, it cuts only nodes open on the path, all on a cycle.
* ``has_cycle`` and ``to_mu`` each mark the compounds on the path of a
  walk of their own: one met again while on it is a back edge, where a
  cycle closes.  ``has_cycle`` returns at the first; ``to_mu`` copies.
  ``syntax.term_text`` prints a term through an environment the same way,
  and stops at the first back edge, where the flat style refuses.
* ``_occurs``, the occurs check, stays apart from ``subterms``: it runs on
  every binding to a compound when the check is on, and it never enters a
  ground compound.  :func:`unify_head` turns it off for a linear clause
  head, where no variable occurs twice: there no binding can close a cycle
  (the NSTO argument in its docstring), so ``sld``'s check walks only the
  bindings of heads such as ``eq(X, X)``.
* ``_unify`` is the one pair walker that binds, with a visited-pair memo
  so that cyclic terms terminate.  ``match`` is ``_unify`` restricted to
  the pattern's variables.  It also binds a clause's own head for
  :func:`unify_head`, reading the head's variables through the renaming,
  so that only the body is copied.  ``rational_equal`` binds nothing;
  ``==`` on compounds is ``rational_equal`` under no environment.
* :func:`head_matches` stays apart from ``_unify``: it binds nothing, and
  its pattern, a clause's own head, needs no renaming, since the head's
  variables live in a dict of their own.  The targets it finds are the
  matcher, which :func:`match_head` binds to the variables' fresh names.
* :meth:`BindingEnv.restrict` walks binding chains without dereferencing
  them, because it keeps every raw binding it passes.  It expands a
  compound once, unless a cycle reaches it again before it is done.

No builder in this module recurses on term depth.  ``resolve``, ``to_mu``
and ``_rename`` (for renamed clauses and bodies and :func:`from_mu`) build
post-order, pushing an exit marker for each compound.  The first two keep
their own loops: they copy a node once wherever its copy cannot depend on
the path that reaches it, so their results may share subterms and cost what
the term graph costs.  ``_rename`` copies every occurrence, since
``productivity_report`` counts functors with ``subterms`` over the head
subterms it copies; :func:`from_mu` alone passes it a memo, so that each
node of its ``MuTerm`` is copied once.  ``canon_key`` lists the minimal
graph flat.

``resolve`` builds a finished copy of a term, so it is called only where
a finished term is kept or handed on: by ``Answer.binding``, a trace
line's σ (``engine._new_bindings``), a divergence witness
(``engine._goal_snapshot``), the lazy print of a cyclic answer, whose
unfolding is a finite tree, and the proof arguments that ``fixpoint``'s
upward chain stores.  Answers print through their environment.

A :class:`BindingEnv` may share its binding dict with the environment it was
derived from: the private ``_wrap`` constructor takes a dict without copying
it, and no dict is mutated after it has been wrapped.  ``_unify`` copies
on its first write, and returns ``env`` itself when it binds nothing.  A
derived dict holds its parent's bindings first, in order, then the new ones
(a collapsed variable loop's member is overwritten in place).  The one dict
mutated after it is wrapped is a search's :class:`Store`'s, which only that
search holds: ``_unify`` binds into it in place and pushes each binding on
its trail, so what a step bound is the trail past the step's mark, and
undoing it leaves the dict as it was, in order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping, Optional


@dataclass(frozen=True, slots=True, init=False)
class SourceSpan:
    """Location of a parsed node: 1-based line/column plus length."""

    file: str
    line: int
    column: int
    length: int = 0

    def __init__(self, file: str, line: int, column: int, length: int = 0):
        _set_file(self, file)
        _set_line(self, line)
        _set_column(self, column)
        _set_length(self, length)

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


@dataclass(frozen=True, slots=True, init=False)
class Var:
    name: str
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)

    #: A variable is never ground (see ``Compound.fp``).
    fp = None

    def __init__(self, name: str, span: Optional[SourceSpan] = None):
        _set_name(self, name)
        _set_var_span(self, span)


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Compound:
    """A functor applied to zero or more terms; constants are 0-ary.

    ``fp`` is the ground fingerprint: a hash of the whole term, or ``None``
    when a variable occurs in it.  ``==`` compares functors, arities and
    variable names, never spans; neither it nor ``hash`` recurses."""

    functor: str
    args: tuple = ()
    span: Optional[SourceSpan] = field(default=None, repr=False)
    fp: Optional[int] = field(init=False, repr=False)

    def __init__(self, functor: str, args: tuple = (),
                 span: Optional[SourceSpan] = None):
        _set_functor(self, functor)
        _set_args(self, args)
        _set_span(self, span)
        fp = hash(functor)
        for a in args:
            if a.fp is None:
                fp = None
                break
            fp = hash((fp, a.fp))
        _set_fp(self, fp)

    def __eq__(self, other):
        if other.__class__ is not Compound:
            return NotImplemented
        # equal terms have equal fingerprints
        return self.fp == other.fp and rational_equal(self, other)

    def __hash__(self):
        # ``fp`` if ground; else the functor and each argument's label
        if self.fp is not None:
            return self.fp
        return hash((self.functor, *[
            a.name if a.__class__ is Var else (a.fp, a.functor)
            for a in self.args]))


# The slots' descriptor setters that the nodes' constructors write through.
_set_file = SourceSpan.file.__set__
_set_line = SourceSpan.line.__set__
_set_column = SourceSpan.column.__set__
_set_length = SourceSpan.length.__set__
_set_name = Var.name.__set__
_set_var_span = Var.span.__set__
_set_functor = Compound.functor.__set__
_set_args = Compound.args.__set__
_set_span = Compound.span.__set__
_set_fp = Compound.fp.__set__


def _fp_under(env: "BindingEnv", t, table: Optional[dict] = None
              ) -> Optional[int]:
    """``t``'s ground fingerprint under ``env``, in ``Compound.fp``'s scheme,
    or ``None`` if the walk reaches an unbound variable or a cycle.

    ``table`` maps ``id(node)`` to ``(node, fp)`` for compounds found ground
    under ``env`` or under an environment ``env`` was derived from; the walk
    reads it and adds every compound it finishes.  Without one it starts
    from an empty table."""
    if table is None:
        table = {}
    bindings = env._b
    opened: set = set()  # ids of compounds open on the path
    out: list = []  # finished fingerprints, left to right
    stack: list = [t]
    while stack:
        x = stack.pop()
        if x.__class__ is tuple:  # (node,): node's arguments are finished
            node = x[0]
            k = len(out) - len(node.args)
            fp = hash(node.functor)
            for a in out[k:]:
                fp = hash((fp, a))
            out[k:] = [fp]
            table[id(node)] = (node, fp)
            continue
        if x.__class__ is Var:
            x = _walk(bindings, x)
            if x.__class__ is Var:
                return None
        if x.fp is not None:
            out.append(x.fp)
            continue
        found = table.get(id(x))
        if found is not None:
            out.append(found[1])
            continue
        if id(x) in opened:
            return None  # a cycle closes here
        opened.add(id(x))
        stack.append((x,))
        stack.extend(reversed(x.args))
    return out[0]


Term = Var | Compound

#: Functor used for bracket lists ``[a, b|T]`` and the empty list.
LIST_FUNCTOR = "."
NIL = Compound("[]")
#: Binary union type constructor, written infix as ``\/``.
UNION_FUNCTOR = "\\/"
#: Binary field-record entry, written infix as ``name:type``.
FIELD_FUNCTOR = "fld"


def const(name: str, span: Optional[SourceSpan] = None) -> Compound:
    return Compound(name, (), span)


def mklist(items, tail: Term = NIL) -> Term:
    out = tail
    for item in reversed(list(items)):
        out = Compound(LIST_FUNCTOR, (item, out))
    return out


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple = ()
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)

    @property
    def key(self) -> tuple:
        return (self.pred, len(self.args))


@dataclass(frozen=True)
class Clause:
    """``head :- body``.  ``idx`` is the stable 1-based position in its program."""

    head: Atom
    body: tuple = ()
    idx: int = 0
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)

    @cached_property
    def _vars(self) -> tuple:
        """Each variable once, at its first occurrence, head first."""
        first: dict = {}
        for a in (self.head, *self.body):
            for arg in a.args:
                for v in term_vars(arg):
                    first.setdefault(v.name, v)
        return tuple(first.values())

    @cached_property
    def _linear_head(self) -> bool:
        """No variable occurs twice in the head (see :func:`unify_head`)."""
        names = [v.name for a in self.head.args for v in term_vars(a)]
        return len(names) == len(set(names))


def first_index(pairs, env: BindingEnv) -> dict:
    """First-argument indexing (WAM ``switch_on_term``) of ``(atom, item)``
    pairs: per ``atom.key``, every item, and the items by the functor and
    arity of the atom's first argument under ``env``, all in entry order.
    An item whose atom's first argument is free is in every bucket, and the
    ``None`` bucket holds those items alone."""
    rows: dict = {}
    for atom, item in pairs:
        first = _walk(env._b, atom.args[0]) if atom.args else None
        shape = ((first.functor, len(first.args))
                 if first.__class__ is Compound else None)
        rows.setdefault(atom.key, []).append((item, shape))
    index = {}
    for key, row in rows.items():
        index[key] = tuple(item for item, _ in row), {
            s: tuple(item for item, s2 in row if s2 in (None, s))
            for s in {None, *(s for _, s in row)}}
    return index


def first_pick(index: dict, atom: Atom, env: BindingEnv) -> tuple:
    """The items of ``first_index`` under ``atom.key`` whose first argument
    does not clash with ``atom``'s under ``env``; all of them when that
    one is free."""
    entry = index.get(atom.key)
    if entry is None:
        return ()
    first = _walk(env._b, atom.args[0]) if atom.args else None
    if first.__class__ is not Compound:
        return entry[0]
    buckets = entry[1]
    return buckets.get((first.functor, len(first.args)), buckets[None])


@dataclass(frozen=True)
class Program:
    clauses: tuple = ()

    def clauses_for(self, key: tuple) -> tuple:
        return self._index.get(key, ((),))[0]

    def select(self, atom: Atom, env: BindingEnv) -> tuple:
        """``clauses_for`` less each clause whose head's first argument
        clashes with ``atom``'s under ``env``, read off the one
        first-argument index (``first_pick``)."""
        return first_pick(self._index, atom, env)

    @cached_property
    def _index(self) -> dict:
        """``first_index`` of the clauses by head, in program order."""
        return first_index(((c.head, c) for c in self.clauses), EMPTY_ENV)

    @cached_property
    def var_ceiling(self) -> int:
        """One past the largest literal ``V<n>`` variable in the program."""
        return _var_ceiling(a for c in self.clauses for a in (c.head, *c.body))


@dataclass(frozen=True)
class Goal:
    atoms: tuple = ()


class UnificationError(Exception):
    """Raised for malformed inputs, not for ordinary unification failure."""


# ---------------------------------------------------------------------------
# Binding environments


class BindingEnv:
    """Immutable map from variable names to terms, plus a fresh-name counter.

    Bindings may be cyclic (``X -> cons(0, X)``); this is the only
    representation of rational terms in the library.  All mutating-looking
    operations return a new environment.
    """

    __slots__ = ("_b", "counter")

    #: A plain environment keeps no trail: see :class:`Store`.
    trail = None

    def __init__(self, bindings: Optional[Mapping[str, Term]] = None, counter: int = 0):
        self._b = dict(bindings) if bindings else {}
        self.counter = counter

    @classmethod
    def _wrap(cls, bindings: dict, counter: int) -> "BindingEnv":
        """An environment over ``bindings`` itself, not a copy; nothing may
        mutate that dict afterwards."""
        env = cls.__new__(cls)
        env._b = bindings
        env.counter = counter
        return env

    @property
    def bindings(self) -> Mapping[str, Term]:
        return self._b

    def __contains__(self, name: str) -> bool:
        return name in self._b

    def __len__(self) -> int:
        return len(self._b)

    def walk(self, t: Term) -> Term:
        return _walk(self._b, t)

    def bind(self, name: str, value: Term) -> "BindingEnv":
        if name in self._b:
            raise UnificationError(f"variable {name} is already bound")
        new = dict(self._b)
        new[name] = value
        return BindingEnv._wrap(new, self.counter)

    def fresh(self, n: int = 1) -> tuple:
        """Return ``n`` fresh variables and the advanced environment."""
        vs = tuple(Var(f"V{self.counter + i}") for i in range(n))
        return vs, BindingEnv._wrap(self._b, self.counter + n)

    def with_counter(self, counter: int) -> "BindingEnv":
        return BindingEnv._wrap(self._b, max(self.counter, counter))

    def restrict(self, names) -> "BindingEnv":
        """Keep only bindings reachable from ``names`` (cycles preserved),
        in depth-first order.  A compound is expanded again only where a
        cycle reaches it before its arguments are done, which keeps that
        order; a shared term costs its graph, not its unfolding."""
        keep: dict = {}
        work = [Var(n) for n in names]
        seen = set()  # variable names
        done = set()  # ids of compounds whose arguments were all walked
        while work:
            t = work.pop()
            if t.__class__ is tuple:  # (node,): node's arguments are done
                done.add(id(t[0]))
            elif isinstance(t, Var):
                if t.name in seen:
                    continue
                seen.add(t.name)
                bound = self._b.get(t.name)
                if bound is not None:
                    keep[t.name] = bound
                    work.append(bound)
            elif id(t) not in done:
                work.append((t,))
                work.extend(t.args)
        return BindingEnv._wrap(keep, self.counter)

    def __repr__(self) -> str:
        return f"BindingEnv({self._b!r}, counter={self.counter})"


EMPTY_ENV = BindingEnv()


class Store(BindingEnv):
    """A search's one mutable environment: ``_unify``, and through it
    ``unify``, ``unify_atoms`` and ``match``, and :func:`unify_head` and
    :func:`match_head` bind into it in place and return it.  Each binding
    pushes ``(name, old value)`` on ``trail``; the old value is None for a
    name that was unbound, else the collapsed variable loop's link it
    overwrote.  A trail mark is a length of ``trail``: ``undo`` takes back
    what was bound since, and ``bound`` gives it as ``(name, value)`` pairs
    that ``redo`` binds again.  An environment made from a store, by
    ``restrict`` or ``BindingEnv(store.bindings)``, is a copy."""

    __slots__ = ("trail",)

    def __init__(self, env: BindingEnv):
        super().__init__(env._b, env.counter)
        self.trail = []

    def bound(self, mark: int) -> list:
        """What was bound since ``mark``, oldest first, as it stands."""
        b = self._b
        return [(name, b[name]) for name, _ in self.trail[mark:]]

    def undo(self, mark: int) -> None:
        trail, b = self.trail, self._b
        while len(trail) > mark:
            name, old = trail.pop()
            if old is None:
                del b[name]
            else:
                b[name] = old

    def redo(self, bound: list) -> None:
        trail, b = self.trail, self._b
        for name, value in bound:
            trail.append((name, b.get(name)))
            b[name] = value


def _walk(bindings: Mapping[str, Term], t: Term) -> Term:
    """Dereference variable chains.

    A pure variable loop (``X -> Y -> X``) denotes no structure at all, so it
    collapses to its lexicographically smallest member, treated as unbound.
    """
    if t.__class__ is not Var:
        return t
    nxt = bindings.get(t.name)
    if nxt is None:
        return t
    if nxt.__class__ is not Var:
        return nxt
    chain: list = [t.name]  # a chain of variables: walk it with loop checks
    t = nxt
    while isinstance(t, Var):
        nxt = bindings.get(t.name)
        if nxt is None:
            return t
        if isinstance(nxt, Var) and nxt.name in chain:
            loop = chain[chain.index(nxt.name):] + [t.name]
            return Var(min(loop))
        chain.append(t.name)
        t = nxt
    return t


def term_vars(t: Term) -> Iterator[Var]:
    """Syntactic variables of a finite term, left to right, with repeats."""
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, Var):
            yield x
        else:
            stack.extend(reversed(x.args))


def subterms(terms, env: BindingEnv) -> Iterator[Term]:
    """Walk the sequence ``terms`` under ``env``, depth first and left to
    right, without recursion.  Yields every unbound variable occurrence it
    reaches and every compound object once, so a cyclic binding is entered
    only once."""
    bindings = env._b
    seen = set()
    stack = list(reversed(terms))
    while stack:
        x = _walk(bindings, stack.pop())
        if isinstance(x, Var):
            yield x
        elif id(x) not in seen:
            seen.add(id(x))
            yield x
            stack.extend(reversed(x.args))


def _occurs(bindings: Mapping[str, Term], name: str, t: Term) -> bool:
    seen = set()
    stack = [t]
    while stack:
        x = _walk(bindings, stack.pop())
        if isinstance(x, Var):
            if x.name == name:
                return True
        elif x.fp is None and id(x) not in seen:
            seen.add(id(x))
            stack.extend(x.args)
    return False


# ---------------------------------------------------------------------------
# Unification and matching


def unify(t1: Term, t2: Term, env: BindingEnv = EMPTY_ENV,
          occurs_check: bool = False) -> Optional[BindingEnv]:
    """Most general unifier of ``t1`` and ``t2`` under ``env``.

    With ``occurs_check`` off this is unification on rational trees: a
    visited-pair memo lets cyclic structure unify in finite time, and the
    result environment may contain cycles (``unify(X, f(X))`` binds
    ``X -> f(X)``).  With the check on, any binding that would create a cycle
    fails instead.  Returns ``None`` on failure, and ``env`` itself when
    nothing needs binding; never mutates ``env``.
    """
    return _unify([(t1, t2)], env, occurs_check)


def unify_atoms(a1: Atom, a2: Atom, env: BindingEnv = EMPTY_ENV,
                occurs_check: bool = False) -> Optional[BindingEnv]:
    """``unify`` on the argument tuples of two atoms of one predicate."""
    if a1.pred != a2.pred or len(a1.args) != len(a2.args):
        return None
    return _unify(list(zip(reversed(a1.args), reversed(a2.args))), env,
                  occurs_check)


def _unify(stack: list, env: BindingEnv, occurs_check: bool,
           only: Optional[set] = None, heads: Optional[list] = None,
           ren: Optional[dict] = None) -> Optional[BindingEnv]:
    """Unify every pair on ``stack`` under ``env``; the last pair is taken
    first.  With ``only`` this matches (pattern, target) pairs: it fails
    where it would bind a name outside ``only`` or on the target side.
    ``heads`` holds pairs whose left side, an unrenamed clause head term, is
    read through ``ren``; one is taken when ``stack`` is empty, as it would
    be if renamed on ``stack``, since goal terms spawn only goal pairs.
    A :class:`Store` is bound in place, and left as it was on failure."""
    work = env._b
    trail = env.trail  # None: copy ``work`` on the first write
    mark = 0 if trail is None else len(trail)
    copied = False
    seen: set = set()
    while True:
        if stack:
            a, b = stack.pop()
            a = _walk(work, a)
            b = _walk(work, b)
        elif heads:
            a, b = heads.pop()
            b = _walk(work, b)
            if a.__class__ is Var:
                a = _walk(work, ren[a.name])
            elif b.__class__ is Var:
                a = _rename((a,), ren)[0]
            elif (a.functor != b.functor or len(a.args) != len(b.args)
                  or a.fp != b.fp and a.fp is not None and b.fp is not None):
                break
            else:  # a renamed copy is never ``b`` nor met twice
                heads.extend(zip(reversed(a.args), reversed(b.args)))
                continue
        else:
            return BindingEnv._wrap(work, env.counter) if copied else env
        if isinstance(a, Var):
            if isinstance(b, Var) and a.name == b.name:
                continue
            name, value = a.name, b
            # (a walked variable in ``work`` is a collapsed variable loop)
            if only is not None and (name not in only or name in work):
                break
        elif isinstance(b, Var):
            if only is not None:
                break
            name, value = b.name, a
        else:
            if a is b:
                continue
            if a.functor != b.functor or len(a.args) != len(b.args):
                break
            if a.fp != b.fp and a.fp is not None and b.fp is not None:
                break  # distinct ground terms
            key = (id(a), id(b))
            if key in seen:
                continue  # already demanded equal further up: rational-tree closure
            seen.add(key)
            stack.extend(zip(reversed(a.args), reversed(b.args)))
            continue
        if occurs_check and isinstance(value, Compound) and _occurs(work, name, value):
            break
        if trail is not None:
            trail.append((name, work.get(name)))
        elif not copied:
            work = dict(work)
            copied = True
        work[name] = value
    if trail is not None:
        env.undo(mark)
    return None


def match(pattern: Term, target: Term, env: BindingEnv = EMPTY_ENV) -> Optional[BindingEnv]:
    """Most general matcher: extend ``env`` with pattern-variable bindings so
    that the instantiated pattern equals ``target``.

    Target variables are treated as constants and never bound, so matching is
    strictly one-sided: it is ``unify`` restricted to the pattern's
    variables.  The pattern must be renamed apart from the target.  The
    target is interpreted through ``env`` and may be cyclic; the visited-pair
    memo makes the walk terminate on it.
    """
    return _unify([(pattern, target)], env, False,
                  {v.name for v in term_vars(pattern)})


def match_atoms(pattern: Atom, target: Atom, env: BindingEnv = EMPTY_ENV) -> Optional[BindingEnv]:
    """``match`` on the argument tuples of two atoms of one predicate."""
    if pattern.pred != target.pred or len(pattern.args) != len(target.args):
        return None
    pat_vars = {v.name for a in pattern.args for v in term_vars(a)}
    return _unify(list(zip(reversed(pattern.args), reversed(target.args))),
                  env, False, pat_vars)


def head_matches(head: Atom, target: Atom, env: BindingEnv) -> bool:
    """Would ``match_atoms`` of a renamed copy of ``head`` succeed against
    ``target`` under ``env``?  Nothing is renamed, built or bound in
    ``env``."""
    return _head_targets(head, target, env) is not None


def _head_targets(head: Atom, target: Atom, env: BindingEnv) -> Optional[dict]:
    """The matcher of ``head`` against ``target`` under ``env``: each head
    variable's walked target at its leftmost occurrence, which is what
    ``match`` binds its renamed copy to, or None if there is no matcher.
    Walks ``head`` as a finite tree, right to left, and keeps its variables
    in a dict of their own, so they may share names with ``target``'s."""
    if head.pred != target.pred or len(head.args) != len(target.args):
        return None
    own: dict = {}
    stack = list(zip(head.args, target.args))
    while stack:
        p, t = stack.pop()
        t = _walk(env._b, t)
        if isinstance(p, Var):
            first = own.get(p.name, t)
            # a repeated variable, two different targets (fingerprints
            # can collide, so only differing ones decide without a walk)
            if first is not t and (
                    first.fp is not None and t.fp is not None
                    and first.fp != t.fp
                    or not rational_equal(first, t, env, env)):
                return None
            own[p.name] = t  # the walk is right to left: leftmost wins
        elif (isinstance(t, Var) or p.functor != t.functor
              or len(p.args) != len(t.args)):
            return None
        else:
            stack.extend(zip(p.args, t.args))
    return own


# ---------------------------------------------------------------------------
# Resolving, cycle detection, finite unfolding


def resolve(env: BindingEnv, t: Term, depth: int = 8,
            cut: Optional[int] = None) -> Term:
    """Substitute bindings into ``t``, unfolding each cycle at most ``depth``
    times; cut points are replaced by their variable.

    Acyclic bindings are substituted fully regardless of ``depth``.  Counting
    is per cyclic node along the current path, so sibling branches each get
    the full budget.  A cut point is named by the first variable, depth
    first and left to right, that reaches its node.

    With ``cut``, a compound that would sit ``cut`` levels below the root
    becomes ``_`` and is not walked, so a display costs what it prints.  A
    cut point still prints as its variable at any level, named by the first
    variable that reaches its node no more than ``cut`` levels down.

    Without ``cut``, a node reached through a variable is copied once and
    its copy shared, unless its first walk reached a node open at its own
    level or above (Tarjan's lowlink), as every node on a cycle does.
    """
    bindings = env._b
    opened: dict = {}  # id -> levels where it is open, entered by a variable
    varname: dict = {}
    copies: dict = {}  # id -> the copy of a node on no cycle
    lows: list = []  # per open compound: the lowest open level it reached
    on_cycles = _on_cycles(env, t) if depth < 1 else ()
    out: list = []  # finished subterms, left to right
    stack: list = [t]
    while stack:
        x = stack.pop()
        if x.__class__ is tuple:  # (node, nid): node's arguments are built
            node, nid = x
            k = len(out) - len(node.args)
            built = Compound(node.functor, tuple(out[k:]), node.span)
            del out[k:]
            out.append(built)
            low = lows.pop()
            if nid is not None:
                opened[nid].pop()
                if low > len(lows) and cut is None:
                    copies[nid] = built
            if lows and low < lows[-1]:
                lows[-1] = low
            continue
        if isinstance(x, Compound):
            w, nid, levels = x, None, opened.get(id(x))
        else:
            w = _walk(bindings, x)
            hit = w if isinstance(w, Var) else copies.get(id(w))
            if hit is not None:
                out.append(hit)
                continue
            nid = id(w)
            varname.setdefault(nid, x.name)
            levels = opened.setdefault(nid, [])
        if levels and levels[0] < lows[-1]:
            lows[-1] = levels[0]  # the walk touched a node still open
        if (nid is not None and len(levels) >= depth
                and (levels or id(w) in on_cycles)):
            out.append(Var(varname[nid]))
            continue
        if len(lows) == cut:
            out.append(Var("_"))
            continue
        if nid is not None:
            levels.append(len(lows))
        lows.append(len(lows) + 1)
        stack.append((w, nid))
        stack.extend(reversed(w.args))
    return out[0]


def _on_cycles(env: BindingEnv, t: Term) -> set:
    """The ids of the compounds reachable from ``t`` under ``env`` that lie
    on a cycle: those in a strongly connected component of more than one
    node or with an edge to themselves (Tarjan, without recursion)."""
    bindings = env._b
    index: dict = {}  # id -> preorder number
    low: dict = {}  # id -> lowest number it reaches, while still open
    opened: list = []  # the ids of the open components' nodes, in preorder
    out: set = set()
    stack: list = [(None, t)]  # (parent id, term to enter)
    while stack:
        parent, x = stack.pop()
        if x.__class__ is tuple:  # (node,): every argument of node is done
            nid = id(x[0])
            if low[nid] < index[nid]:
                low[parent] = min(low[parent], low[nid])
                continue
            k = len(opened) - 1  # nid is its component's first node
            while opened[k] != nid:
                k -= 1
            if len(opened) - k > 1:
                out.update(opened[k:])
            for m in opened[k:]:
                del low[m]
            del opened[k:]
            continue
        x = _walk(bindings, x)
        if isinstance(x, Var):
            continue
        nid = id(x)
        if nid in low:  # open: a cycle closes at x
            low[parent] = min(low[parent], index[nid])
            if nid == parent:
                out.add(nid)
            continue
        if nid in index:
            continue
        index[nid] = low[nid] = len(index)
        opened.append(nid)
        stack.append((parent, (x,)))
        stack.extend((nid, a) for a in reversed(x.args))
    return out


def has_cycle(env: BindingEnv, t: Term) -> bool:
    """True if ``t`` under ``env`` denotes an infinite (rational) tree: a
    walk marking the compounds on its path stops at the first one it meets
    again while on it (a back edge)."""
    bindings = env._b
    on_path: dict = {}  # id -> True while on the path, False once left
    stack: list = [t]
    while stack:
        x = stack.pop()
        if x.__class__ is tuple:  # (node,): every argument of node is done
            on_path[id(x[0])] = False
            continue
        x = _walk(bindings, x)
        if x.__class__ is Var:
            continue
        mark = on_path.get(id(x))
        if mark:
            return True
        if mark is None:
            on_path[id(x)] = True
            stack.append((x,))
            stack.extend(reversed(x.args))
    return False


# ---------------------------------------------------------------------------
# Rational terms as finite data: MuTerm


@dataclass(frozen=True, eq=False)
class MuTerm:
    """A rational term: finite ``root`` plus contractive equations.

    Every equation right-hand side is a compound (contractive), and every
    variable occurring anywhere is either free or has exactly one equation.
    Compare with :func:`rational_equal`, not ``==``.
    """

    root: Term
    equations: Mapping[str, Term] = field(default_factory=dict)

    def __post_init__(self):
        for name, rhs in self.equations.items():
            if not isinstance(rhs, Compound):
                raise UnificationError(
                    f"non-contractive equation {name} = {rhs!r}")

    def as_env(self) -> BindingEnv:
        return BindingEnv(self.equations)

    def __repr__(self) -> str:
        eqs = ", ".join(f"{n} = {r!r}" for n, r in self.equations.items())
        return f"MuTerm({self.root!r}, {{{eqs}}})"


def to_mu(env: BindingEnv, t: Term) -> MuTerm:
    """Convert ``t`` under ``env`` to an equivalent :class:`MuTerm`.

    One depth-first walk copies ``t`` and marks the compounds on its path.
    A compound met again on the path is a cycle entry; its copy is its
    equation's right side.  The equation is named at the first back edge:
    by the variable the entry was entered through, else the back edge's,
    else ``Mu<n>`` in order (``N = f(Y)``, ``Y -> g(N)`` closes through
    ``N``'s argument).  Acyclic bindings are inlined.  Any other node is
    copied once and shared, so the result costs what its graph does.
    """
    bindings = env._b
    synth = itertools.count()
    # id -> a node on the path: the name of the variable it was entered
    # through (or None), or its equation's variable once it is an entry
    opened: dict = {}
    copies: dict = {}  # id -> a finished node's copy, or its entry's variable
    equations: dict = {}  # in post-order: added as each entry is finished
    out: list = []  # finished subterms, left to right
    stack: list = [t]
    while stack:
        x = stack.pop()
        if x.__class__ is tuple:  # (node,): node's arguments are built
            node = x[0]
            k = len(out) - len(node.args)
            built = Compound(node.functor, tuple(out[k:]))
            del out[k:]
            v = opened.pop(id(node))
            if v.__class__ is Var:
                equations[v.name] = built
                built = v
            copies[id(node)] = built
            out.append(built)
            continue
        via = x.name if x.__class__ is Var else None
        x = _walk(bindings, x)
        hit = x if x.__class__ is Var else copies.get(id(x))
        if hit is not None:
            out.append(hit)
            continue
        nid = id(x)
        if nid in opened:  # a back edge: x is a cycle entry
            v = opened[nid]
            if v.__class__ is not Var:  # its first: name the entry
                v = opened[nid] = Var(v or via or f"Mu{next(synth)}")
            out.append(v)
            continue
        opened[nid] = via
        stack.append((x,))
        stack.extend(reversed(x.args))
    return MuTerm(out[0], equations)


def from_mu(m: MuTerm, env: BindingEnv) -> tuple:
    """Embed a MuTerm into ``env``: returns ``(term, new_env)`` where the
    equations become fresh cyclic bindings.  Each node of ``m`` is copied
    once, so a shared subterm stays shared and the copy costs what ``m``'s
    graph does."""
    if not m.equations:
        return m.root, env
    names = sorted(m.equations)
    fresh, env = env.fresh(len(names))
    root, *rhs = _rename([m.root, *(m.equations[n] for n in names)],
                         dict(zip(names, fresh)), {})
    bindings = dict(env._b)
    bindings.update(zip([v.name for v in fresh], rhs))
    return root, BindingEnv._wrap(bindings, env.counter)



# ---------------------------------------------------------------------------
# Bisimulation equality and canonical keys


def _as_pair(x, env: Optional[BindingEnv]):
    if isinstance(x, MuTerm):
        return x.root, x.as_env()
    return x, (env if env is not None else EMPTY_ENV)


def rational_equal(a, b, env_a: Optional[BindingEnv] = None,
                   env_b: Optional[BindingEnv] = None) -> bool:
    """Bisimilarity of two rational terms; free variables compare by name.

    Accepts :class:`MuTerm` values or plain terms with their environments.
    """
    t1, e1 = _as_pair(a, env_a)
    t2, e2 = _as_pair(b, env_b)
    seen: set = set()
    stack = [(t1, t2)]
    while stack:
        x, y = stack.pop()
        x = e1.walk(x)
        y = e2.walk(y)
        if isinstance(x, Var) or isinstance(y, Var):
            if not (isinstance(x, Var) and isinstance(y, Var)
                    and x.name == y.name):
                return False
            continue
        if x.functor != y.functor or len(x.args) != len(y.args):
            return False
        key = (id(x), id(y))
        if key in seen:
            continue
        seen.add(key)
        stack.extend(zip(x.args, y.args))
    return True


def canon_key(t, env: Optional[BindingEnv] = None):
    """Canonical hashable form of a rational term (bisimulation-minimal).

    Two terms get the same key iff they are bisimilar with identical free
    variable names.  A free variable keys as ``("v", name)``, any other term
    as its minimal graph, flat: ``("f", entry, ...)`` with one ``(functor,
    child, ...)`` entry per class, depth first from the root's class.  A
    child is ``("c", position of its class's entry)`` or ``("v", name)``."""
    t, env = _as_pair(t, env)
    root = _walk(env._b, t)
    if isinstance(root, Var):
        return ("v", root.name)

    # Number the nodes in preorder; each as [functor, child, ...], a child
    # its node's number or ("v", name).  A node whose children are all
    # finite is finite, and its class is interned from its functor and
    # their classes when it is finished; a constant's when it is entered.
    bindings = env._b
    index: dict = {}  # id -> number
    shapes: list = []
    cls: list = []  # per node: its class, None while open or if infinite
    interned: dict = {}
    stack: list = [root]
    while stack:
        x = stack.pop()
        if x.__class__ is int:  # node x is finished
            shape = shapes[x]
            sig = [shape[0]]
            for k in range(1, len(shape)):
                c = shape[k]
                if c.__class__ is Var:
                    c = shape[k] = ("v", c.name)
                    sig.append(c)
                else:
                    c = shape[k] = index[id(c)]
                    sig.append(cls[c])
            if None not in sig:
                cls[x] = interned.setdefault(tuple(sig), len(interned))
            continue
        if id(x) in index:
            continue
        index[id(x)] = len(shapes)
        if not x.args:
            shapes.append([x.functor])
            cls.append(interned.setdefault((x.functor,), len(interned)))
            continue
        stack.append(len(shapes))
        shape = [x.functor]
        for a in x.args:
            shape.append(_walk(bindings, a) if a.__class__ is Var else a)
        shapes.append(shape)
        cls.append(None)
        stack.extend(a for a in reversed(shape) if a.__class__ is Compound)

    # Partition refinement of the infinite nodes, from one class numbered
    # past the finite ones: split classes by functor and child classes until
    # stable (bisimulation minimization).
    cyclic = [i for i, c in enumerate(cls) if c is None]
    base = len(interned)
    for i in cyclic:
        cls[i] = base
    count = 1
    while count < len(cyclic):
        remap: dict = {}
        new = []
        for i in cyclic:
            sig = []
            for r in shapes[i]:
                sig.append(cls[r] if r.__class__ is int else r)
            new.append(base + remap.setdefault(tuple(sig), len(remap)))
        for i, c in zip(cyclic, new):
            cls[i] = c
        if len(remap) == count:
            break
        count = len(remap)

    # Number the classes depth first from the root's, one node for each.
    pos, firsts, stack = {}, [], [0]
    while stack:
        i = stack.pop()
        if i.__class__ is int and cls[i] not in pos:
            pos[cls[i]] = len(firsts)
            firsts.append(i)
            stack.extend(reversed(shapes[i]))
    key = ["f"]
    for i in firsts:
        entry = []
        for r in shapes[i]:
            entry.append(("c", pos[cls[r]]) if r.__class__ is int else r)
        key.append(tuple(entry))
    return tuple(key)


# ---------------------------------------------------------------------------
# Clause renaming


def rename_apart(c: Clause, env: BindingEnv) -> tuple:
    """Rename clause variables to fresh ``V<counter>`` names.

    Returns ``(clause, env)`` with the counter advanced, so renaming the same
    clause twice yields disjoint variable sets.  Variables are numbered in
    the order they first occur, and each keeps its first occurrence's span.
    """
    ren = _renaming(c, env.counter)
    head, *body = [Atom(a.pred, tuple(_rename(a.args, ren)), a.span)
                   for a in (c.head, *c.body)]
    return (Clause(head, tuple(body), c.idx, c.span),
            BindingEnv._wrap(env._b, env.counter + len(ren)))


def _renaming(c: Clause, counter: int) -> dict:
    """``rename_apart``'s map from each clause variable to its fresh one."""
    return {v.name: Var(f"V{counter + i}", v.span)
            for i, v in enumerate(c._vars)}


def unify_head(c: Clause, atom: Atom, env: BindingEnv,
               occurs_check: bool = False) -> Optional[tuple]:
    """``(ren, env2)``, with ``env2`` what ``unify_atoms`` of the head of
    ``rename_apart(c, env)`` with ``atom``, an atom of the head's predicate
    and arity, gives, bindings in order, or None; the head is not copied.
    ``ren`` is the renaming, for :func:`rename_body`.  A :class:`Store` is
    bound in place and returned as ``env2``, its counter left as it was.

    A linear head, where no variable occurs twice, is unified without the
    occurs check, whatever ``occurs_check`` says: the problem is not subject
    to occur-check (NSTO; Apt and Pellegrini, TOPLAS 1994).  Its fresh
    variables occur in no goal term and no binding, and each is met once:
    so it is unbound and unreferenced when it is bound, and a copied head
    subterm bound to a goal variable holds only unbound fresh variables
    that nothing else reaches.  Neither binding can close a cycle."""
    ren = _renaming(c, env.counter)
    u = _unify([], env if env.trail is not None else
               BindingEnv._wrap(env._b, env.counter + len(ren)),
               occurs_check and not c._linear_head,
               heads=list(zip(reversed(c.head.args), reversed(atom.args))),
               ren=ren)
    return None if u is None else (ren, u)


def match_head(c: Clause, atom: Atom, env: BindingEnv) -> Optional[tuple]:
    """``unify_head`` with ``match_atoms``: the fresh names of the head's
    variables, in order, bound to the targets ``head_matches`` walks to.
    A :class:`Store` is bound in place as ``unify_head`` binds one."""
    own = _head_targets(c.head, atom, env)
    if own is None:
        return None
    ren = _renaming(c, env.counter)
    # the head's variables come first
    bound = [(ren[v.name].name, own[v.name]) for v in c._vars[:len(own)]]
    if env.trail is not None:
        env.redo(bound)
        return ren, env
    return ren, BindingEnv._wrap({**env._b, **dict(bound)} if bound
                                 else env._b, env.counter + len(ren))


def rename_body(c: Clause, ren: Mapping[str, Var]) -> tuple:
    """``c``'s body atoms renamed by ``ren``, as ``rename_apart`` renames
    them."""
    return tuple(Atom(a.pred, tuple(_rename(a.args, ren)), a.span)
                 for a in c.body)


def _rename(terms, ren: Mapping[str, Var],
            memo: Optional[dict] = None) -> list:
    """Copies of ``terms`` with each variable named in ``ren`` replaced by
    its image.  Every compound is copied with its span, and no subterm is
    shared, ground ones included, unless a ``memo`` dict is given: then each
    node is copied once, its copy recorded there by ``id`` and shared.
    Post-order, as in ``resolve``."""
    out: list = []  # finished subterms, left to right
    stack = list(reversed(terms))
    while stack:
        x = stack.pop()
        if x.__class__ is tuple:  # (node,): node's arguments are built
            node = x[0]
            k = len(out) - len(node.args)
            out[k:] = [Compound(node.functor, tuple(out[k:]), node.span)]
            if memo is not None:
                memo[id(node)] = out[-1]
        elif isinstance(x, Var):
            out.append(ren.get(x.name, x))
        elif memo is not None and id(x) in memo:
            out.append(memo[id(x)])
        elif x.args:
            stack.append((x,))
            stack.extend(reversed(x.args))
        else:
            out.append(Compound(x.functor, (), x.span))
            if memo is not None:
                memo[id(x)] = out[-1]
    return out


def _var_ceiling(atoms) -> int:
    """One past the largest literal ``V<n>`` variable in ``atoms``, or 0."""
    top = 0
    for a in atoms:
        for arg in a.args:
            for v in term_vars(arg):
                if v.name.startswith("V") and v.name[1:].isdigit():
                    top = max(top, int(v.name[1:]) + 1)
    return top


def bump_counter_past(env: BindingEnv, *items) -> BindingEnv:
    """Advance the fresh counter beyond any literal ``V<n>`` variable in the
    given programs/goals/atoms, so generated names cannot collide."""
    top = env.counter
    for item in items:
        if isinstance(item, Program):
            top = max(top, item.var_ceiling)
        elif isinstance(item, Goal):
            top = max(top, _var_ceiling(item.atoms))
        elif isinstance(item, Atom):
            top = max(top, _var_ceiling((item,)))
    return env.with_counter(top)

"""The contract of the term nodes and spans, whose constructors are written
by hand: frozen after construction, the dataclass's fields, ``==``,
``hash`` and ``repr``, copies that keep their fingerprint, and ``fp`` in
the scheme that ``_fp_under`` folds through environments."""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random

import pytest

from genprog import random_term
from hornlog.terms import EMPTY_ENV, Compound, SourceSpan, Var, _fp_under

SPAN = SourceSpan("f.lp", 3, 7, 2)


def _nodes():
    a = Compound("a", (), SPAN)
    return [
        SPAN,
        Var("X", SPAN),
        a,
        Compound("s", (a,)),
        Compound("g", (Var("X"), a), SPAN),
    ]


@pytest.mark.parametrize("node", _nodes(), ids=repr)
def test_a_built_node_stays_frozen(node):
    for f in dataclasses.fields(node):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, f.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(node, f.name)
    # A name that is no field has no slot to go to.  Below Python 3.12 the
    # generated ``__setattr__`` of a slotted dataclass raises TypeError for
    # it (it names the class as it was before the slots were added).
    with pytest.raises((TypeError, AttributeError)):
        node.other = None
    assert not hasattr(node, "__dict__") and not hasattr(node, "other")


@pytest.mark.parametrize("node", _nodes(), ids=repr)
def test_copies_keep_every_field_and_the_fingerprint(node):
    names = [f.name for f in dataclasses.fields(node)]
    for twin in (dataclasses.replace(node), copy.copy(node),
                 copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
        assert twin == node and hash(twin) == hash(node)
        assert [getattr(twin, n) for n in names] == [
            getattr(node, n) for n in names]
        assert getattr(twin, "fp", None) == getattr(node, "fp", None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(twin, names[0], None)


def test_replace_computes_the_new_fingerprint():
    t = Compound("s", (Compound("a"),), SPAN)
    assert dataclasses.replace(t, functor="t").fp == Compound(
        "t", (Compound("a"),)).fp
    assert dataclasses.replace(t, args=(Var("X"),)).fp is None
    with pytest.raises(ValueError):
        dataclasses.replace(t, fp=0)


def test_constructors_take_the_dataclass_arguments():
    assert Compound("a").args == () and Compound("a").span is None
    assert Var("X").span is None and SourceSpan("f", 1, 2).length == 0
    assert Compound(functor="f", args=(Var("X"),), span=SPAN).span is SPAN
    assert Var(name="X", span=SPAN).span is SPAN
    assert SourceSpan(file="f", line=1, column=2, length=3) == SourceSpan(
        "f", 1, 2, 3)


def test_equality_hash_and_repr_are_pinned():
    other = SourceSpan("g.lp", 1, 1, 1)
    assert repr(SPAN) == "SourceSpan(file='f.lp', line=3, column=7, length=2)"
    assert str(SPAN) == "f.lp:3:7"
    assert hash(SPAN) == hash(("f.lp", 3, 7, 2))
    assert SPAN == SourceSpan("f.lp", 3, 7, 2) and SPAN != other
    assert repr(Var("X", SPAN)) == "Var(name='X')"
    assert Var("X", SPAN) == Var("X", other) and Var("X") != Var("Y")
    assert hash(Var("X", SPAN)) == hash(("X",))
    assert Var("X").fp is None
    t = Compound("g", (Var("X", SPAN), Compound("a", (), SPAN)), SPAN)
    assert repr(t) == ("Compound(functor='g', args=(Var(name='X'), "
                       "Compound(functor='a', args=())))")
    assert t == Compound("g", (Var("X"), Compound("a"))) and t.fp is None
    assert t != Compound("g", (Var("Y"), Compound("a")))
    assert hash(t) == hash(("g", "X", (hash("a"), "a")))
    a = Compound("a", (), SPAN)
    s = Compound("s", (a,), other)
    assert a.fp == hash("a") and hash(a) == a.fp
    assert s.fp == hash((hash("s"), hash("a"))) and hash(s) == s.fp
    assert s == Compound("s", (Compound("a"),)) and s != Compound("s", (s,))
    assert Compound("a") != Var("a") and Compound("a") != "a"


def _ground(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return Compound(rng.choice(["a", "b", "[]", "0"]))
    name, arity = rng.choice([("f", 1), ("g", 2), (".", 2), ("h", 3)])
    return Compound(name, tuple(_ground(rng, depth - 1)
                                for _ in range(arity)))


def test_fingerprints_are_the_scheme_fp_under_folds():
    rng = random.Random(20291)
    terms = [random_term(rng, 4) for _ in range(300)]
    terms += [_ground(rng, 6) for _ in range(300)]
    for t in terms:
        if t.__class__ is Compound:
            assert t.fp == _fp_under(EMPTY_ENV, t)
    assert sum(t.fp is not None for t in terms) > 300
    assert sum(t.__class__ is Compound and t.fp is None for t in terms) > 50

"""Parser and printer for the clause format and answer styles."""

from __future__ import annotations

import random
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from hornlog.syntax import (
    ParseError,
    PrintError,
    atom_text,
    clause_text,
    goal_text,
    parse_goal,
    parse_program,
    parse_term,
    parse_trace_line,
    print_answer,
    program_text,
    term_text,
    trace_line,
)
from hornlog.engine import Budget, sres_solve
from hornlog.terms import (
    EMPTY_ENV,
    Atom,
    BindingEnv,
    Compound,
    NIL,
    Var,
    const,
    mklist,
    resolve,
    subterms,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def answer_of(bindings, goal_vars):
    return SimpleNamespace(bindings=BindingEnv(bindings), goal_vars=goal_vars)


# ---------------------------------------------------------------------------
# Parsing


def test_parse_simple_program():
    p = parse_program("zeros(cons(0, X)) :- zeros(X).\n")
    assert len(p.clauses) == 1
    c = p.clauses[0]
    assert c.idx == 1
    assert c.head == Atom("zeros", (Compound("cons", (const("0"), Var("X"))),))
    assert c.body == (Atom("zeros", (Var("X"),)),)


def test_parse_facts_and_comments():
    p = parse_program("""
        % nominal subtyping skeleton
        subclass(X, X) :- class(X).
        class(a).   % a single class
    """)
    assert [c.idx for c in p.clauses] == [1, 2]
    assert p.clauses[1].head == Atom("class", (const("a"),))
    assert p.clauses[1].body == ()


def test_parse_lists():
    t = parse_term("[a, b|T]")
    assert t == mklist([const("a"), const("b")], Var("T"))
    assert parse_term("[]") == NIL
    assert parse_term("[x]") == mklist([const("x")])


def test_parse_union_right_associative():
    t = parse_term("a \\/ b \\/ c")
    assert t == Compound("\\/", (const("a"), Compound("\\/", (const("b"), const("c")))))


def test_parse_field_binds_tighter_than_union():
    t = parse_term("head:int \\/ bool")
    assert t == Compound("\\/", (Compound("fld", (const("head"), const("int"))),
                                 const("bool")))
    t2 = parse_term("head:(int \\/ bool)")
    assert t2 == Compound("fld", (const("head"),
                                  Compound("\\/", (const("int"), const("bool")))))


def test_parse_record():
    t = parse_term("[head:int, tail:T]")
    assert t == mklist([
        Compound("fld", (const("head"), const("int"))),
        Compound("fld", (const("tail"), Var("T"))),
    ])


def test_parse_goal_forms():
    g1 = parse_goal("?- zeros(X).")
    g2 = parse_goal("zeros(X)")
    assert g1.atoms == g2.atoms == (Atom("zeros", (Var("X"),)),)
    g3 = parse_goal("p(X), q(X, Y).")
    assert [a.pred for a in g3.atoms] == ["p", "q"]


def test_parse_goal_empty_is_error():
    with pytest.raises(ParseError):
        parse_goal("?- .")


@pytest.mark.parametrize("text, column, what", [
    ("[a|b]", 1, "a bracket list"),
    ("[a, b]", 1, "a bracket list"),
    ("a \\/ b", 3, "a \\/ union"),
    ("(a \\/ b)", 4, "a \\/ union"),
])
def test_an_atom_written_as_a_list_or_a_union_is_refused(text, column,
                                                          what):
    # Such an atom would print as .(a, b) or \/(a, b), which no parser
    # reads back.  A head, a body atom and a goal atom are refused alike,
    # at the bracket or the union.
    for parse, source, offset in (
            (parse_program, f"{text}.", 0),
            (parse_program, f"p :- q, {text}.", 8),
            (parse_goal, text, 0), (parse_goal, f"q, {text}", 3)):
        with pytest.raises(ParseError) as exc:
            parse(source)
        assert str(exc.value).endswith(
            f":1:{column + offset}: an atom cannot be {what}")
    # a field term prints back as fld(x, y), so it stays an atom
    assert program_text(parse_program("x:y.")) == "fld(x, y).\n"
    assert parse_program("fld(x, y).").clauses == parse_program(
        "x:y.").clauses


def test_parse_anonymous_vars_are_distinct():
    p = parse_program("p(_, _).")
    a, b = p.clauses[0].head.args
    assert isinstance(a, Var) and isinstance(b, Var)
    assert a.name != b.name


def test_parse_error_has_position():
    with pytest.raises(ParseError) as exc:
        parse_program("p(X) :- q(X).\nbad(")
    assert exc.value.span is not None
    assert exc.value.span.line == 2


def test_spans_are_attached():
    p = parse_program("p(X) :-\n    q(X).")
    assert p.clauses[0].head.span.line == 1
    assert p.clauses[0].body[0].span.line == 2
    assert p.clauses[0].body[0].args[0].span.column == 7


def test_dollar_names_for_transformed_programs():
    p = parse_program("subclass(X, object, k$2(K$1)) :- class(X, K$1).")
    head = p.clauses[0].head
    assert head.args[2] == Compound("k$2", (Var("K$1"),))


# ---------------------------------------------------------------------------
# Printing


def test_print_round_trip_program():
    src = ("invoke(obj(C, F), M, A, R) :- hasmeth(C, M, [obj(C, F)|A], R).\n"
           "leq(int, int, bool).\n")
    p = parse_program(src)
    assert program_text(p) == src
    assert program_text(parse_program(program_text(p))) == src


def test_print_compact_lists():
    assert term_text(mklist([const("a"), const("b")])) == "[a, b]"
    assert term_text(mklist([const("a")], Var("T"))) == "[a|T]"


def test_print_union_and_field():
    t = parse_term("obj(elist, []) \\/ obj(nelist, [head:int, tail:T])")
    assert term_text(t) == "obj(elist, []) \\/ obj(nelist, [head:int, tail:T])"
    nested = parse_term("(a \\/ b) \\/ c")
    assert term_text(nested) == "(a \\/ b) \\/ c"
    fld = parse_term("tail:(a \\/ b)")
    assert term_text(fld) == "tail:(a \\/ b)"


def test_print_answer_flat():
    a = answer_of({"R": parse_term("obj(elist, [])")}, ("R",))
    assert print_answer(a, "flat") == "R = obj(elist, [])"


def test_print_answer_flat_rejects_cycles():
    a = answer_of({"X": Compound("cons", (const("0"), Var("X")))}, ("X",))
    with pytest.raises(PrintError):
        print_answer(a, "flat")


def test_print_answer_mu_zeros():
    a = answer_of({"X": Compound("cons", (const("0"), Var("X")))}, ("X",))
    assert print_answer(a, "mu") == "X = cons(0, X)"


def test_print_answer_lazy_stream_prefix():
    tail = Var("T")
    t = mklist([const("0")],
               mklist([Compound("s", (const("0"),))],
                      mklist([Compound("s", (Compound("s", (const("0"),)),))], tail)))
    a = answer_of({"X": t}, ("X",))
    assert print_answer(a, "lazy", unfold=3) == "X = [0|[s(0)|[s(s(0))|T?]]]"


def test_print_answer_lazy_unfolds_cycles():
    a = answer_of({"X": Compound("cons", (const("0"), Var("X")))}, ("X",))
    assert print_answer(a, "lazy", unfold=2) == "X = cons(0, cons(0, X?))"


def test_lazy_print_of_a_long_stream_prefix_costs_its_graph(monkeypatch):
    # Cell i of the prefix holds s^i(0), built on cell i - 1's head through
    # a variable: k cells and k heads as a graph, about k^2/2 nodes unfolded.
    k = 1000
    program = parse_program((SAMPLES / "from.lp").read_text())
    verdict = sres_solve(parse_goal("from(0, X)"), program,
                         Budget(max_answers=1), lazy_k=k)
    [answer] = verdict.answers
    built = []
    original = Compound.__init__

    def counting(self, *args):
        built.append(None)
        assert len(built) <= 3 * k, "the unfolding is being built"
        original(self, *args)

    monkeypatch.setattr(Compound, "__init__", counting)
    cells = "".join(f"[{'s(' * i}0{')' * i}|" for i in range(k))
    assert print_answer(answer, "lazy") == f"X = {cells}V{4 * k - 3}?{']' * k}"
    built.clear()
    t = resolve(answer.bindings, Var("X"), 3)
    assert sum(isinstance(x, Compound)
               for x in subterms((t,), EMPTY_ENV)) <= 3 * k


def _dag_term(rng):
    """A random term whose compounds are often reused as arguments, so it
    is a DAG, over every functor the printer treats apart."""
    made = [const("a"), NIL, Var("X"), Var("Y")]
    for _ in range(rng.randrange(1, 12)):
        name, arity = rng.choice([("f", 1), ("g", 2), (".", 2),
                                  ("\\/", 2), ("fld", 2)])
        made.append(Compound(name, tuple(rng.choice(made)
                                         for _ in range(arity))))
    return made[-1]


def _tree_copy(t):
    """``t`` with every shared compound copied apart."""
    if isinstance(t, Var):
        return t
    return Compound(t.functor, tuple(_tree_copy(a) for a in t.args))


def test_term_text_of_a_dag_is_the_text_of_its_tree():
    rng = random.Random(29)
    for _ in range(400):
        dag = _dag_term(rng)
        tree = _tree_copy(dag)
        for prio in (1200, 999, 500, 499, 200, 199, 0):
            for nested in (False, True):
                for marked in (False, True):
                    assert (term_text(dag, prio, nested, marked)
                            == term_text(tree, prio, nested, marked))


def test_print_answer_skips_unbound_goal_vars():
    a = answer_of({"X": const("a")}, ("X", "Y"))
    assert print_answer(a, "flat") == "X = a"
    empty = answer_of({}, ("Z",))
    assert print_answer(empty, "flat") == "true"


def test_print_answer_unknown_style():
    with pytest.raises(ValueError):
        print_answer(answer_of({}, ()), "fancy")


# ---------------------------------------------------------------------------
# Trace lines


def test_trace_line_round_trip():
    line = trace_line(3, "sld", 2, 0, [("X", parse_term("cons(0, V1)"))])
    assert line == "#3 sld clause 2 atom 0 σ={X=cons(0, V1)}"
    back = parse_trace_line(line)
    assert back["n"] == 3 and back["kind"] == "sld"
    assert back["clause"] == 2 and back["atom"] == 0
    assert back["subst"] == [("X", parse_term("cons(0, V1)"))]


def test_trace_line_empty_subst():
    line = trace_line(1, "rw", 4, 1, [])
    assert parse_trace_line(line)["subst"] == []


def test_trace_line_rejects_garbage():
    with pytest.raises(ParseError):
        parse_trace_line("step 3: something happened")


# ---------------------------------------------------------------------------
# Property: parse is a left inverse of print

names = st.sampled_from(["a", "b", "f", "g", "cons", "obj"])
safe_terms = st.recursive(
    st.sampled_from([const("a"), const("0"), Var("X"), Var("Y"), NIL]),
    lambda sub: st.builds(lambda n, x: Compound(n, (x,)), names, sub)
    | st.builds(lambda n, x, y: Compound(n, (x, y)), names, sub, sub)
    | st.builds(lambda x, t: mklist([x], t), sub, sub)
    | st.builds(lambda x, y: Compound("\\/", (x, y)), sub, sub)
    | st.builds(lambda x: Compound("fld", (const("head"), x)), sub),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(safe_terms)
def test_parse_inverts_print(t):
    assert parse_term(term_text(t)) == t


@settings(max_examples=100, deadline=None)
@given(safe_terms)
def test_parse_inverts_nested_list_print(t):
    assert parse_term(term_text(t, nested_lists=True)) == t


def test_clause_and_goal_text():
    c = parse_program("p(X) :- q(X), r.").clauses[0]
    assert clause_text(c) == "p(X) :- q(X), r."
    g = parse_goal("p(X), r")
    assert goal_text(g) == "?- p(X), r."
    assert atom_text(Atom("r")) == "r"


def _nest(n, leaf, wrap):
    t = leaf
    for _ in range(n):
        t = wrap(t)
    return t


def test_parse_term_reads_any_depth():
    n = 10 ** 4
    a = const("a")
    cases = [
        ("s(" * n + "0" + ")" * n,
         _nest(n, const("0"), lambda t: Compound("s", (t,)))),
        ("[" * n + "a" + "]" * n, _nest(n, a, lambda t: mklist([t]))),
        ("(" * n + "a" + ")" * n, a),
        (" \\/ ".join(["a"] * (n + 1)),
         _nest(n, a, lambda t: Compound("\\/", (a, t)))),
        ("f(x:" * n + "y" + ")" * n,
         _nest(n, const("y"),
               lambda t: Compound("f", (Compound("fld", (const("x"), t)),)))),
    ]
    for text, want in cases:
        assert parse_term(text) == want
    deepest = parse_term("s(" * n + "X" + ")" * n)
    for _ in range(n):
        deepest = deepest.args[0]
    assert (deepest.span.column, deepest.span.length) == (2 * n + 1, 1)


@settings(max_examples=30, deadline=None)
@given(safe_terms, st.integers(0, 3000), names)
def test_parse_inverts_print_at_any_depth(t, depth, name):
    deep = _nest(depth, t, lambda x: Compound(name, (x, const("a"))))
    assert parse_term(term_text(deep)) == deep
    assert parse_term(term_text(deep, nested_lists=True)) == deep

import pytest

from hornlog.minioo import (
    BinOp,
    BoolLit,
    FieldAcc,
    If,
    IntLit,
    Invoke,
    MooError,
    New,
    Null,
    This,
    Var,
    class_table_text,
    expr_text,
    parse_classes,
    parse_expr,
)
from hornlog.syntax import ParseError

LISTS_SRC = """
class EList extends Object {
    EList() {
        super();
    }
    addLast(elem) {
        new NEList(elem, this)
    }
}

class NEList extends Object {
    head;
    tail;
    NEList(head, tail) {
        super();
        this.head = head;
        this.tail = tail;
    }
    addLast(elem) {
        new NEList(this.head, this.tail.addLast(elem))
    }
}
"""

LISTFACT_SRC = """
class ListFact extends Object {
    ListFact() { super(); }
    replicate(n, x) {
        if (n <= 0) new EList()
        else new NEList(x, this.replicate(n-1, x))
    }
    buildList(n, acc) {
        if (n <= 0) acc
        else this.buildList(n-1, new NEList(n, acc))
    }
}
"""


def test_parse_linked_lists():
    ct = parse_classes(LISTS_SRC)
    assert list(ct.classes) == ["elist", "nelist"]
    nelist = ct.classes["nelist"]
    assert nelist.fields == ("head", "tail")
    assert nelist.parent == "object"
    assert nelist.ctor.params == ("head", "tail")
    assert nelist.ctor.super_args == ()
    assert nelist.ctor.assigns == (("head", Var("head")), ("tail", Var("tail")))
    assert list(nelist.methods) == ["addlast"]


def test_elist_addlast_body():
    ct = parse_classes(LISTS_SRC)
    body = ct.classes["elist"].methods["addlast"].body
    assert body == New("nelist", (Var("elem"), This()))


def test_nelist_addlast_body():
    ct = parse_classes(LISTS_SRC)
    body = ct.classes["nelist"].methods["addlast"].body
    assert body == New("nelist", (
        FieldAcc(This(), "head"),
        Invoke(FieldAcc(This(), "tail"), "addlast", (Var("elem"),)),
    ))


def test_parse_replicate_if():
    ct = parse_classes(LISTFACT_SRC)
    body = ct.classes["listfact"].methods["replicate"].body
    assert body == If(
        BinOp("<=", Var("n"), IntLit(0)),
        New("elist", ()),
        New("nelist", (Var("x"), Invoke(This(), "replicate",
                                        (BinOp("-", Var("n"), IntLit(1)),
                                         Var("x"))))),
    )


def test_parse_expr_examples():
    assert parse_expr("new EList().addLast(42)") == \
        Invoke(New("elist", ()), "addlast", (IntLit(42),))
    assert parse_expr("x.addLast(y)") == \
        Invoke(Var("x"), "addlast", (Var("y"),))
    assert parse_expr("this") == This()
    assert parse_expr("null") == Null()
    assert parse_expr("true") == BoolLit(True)


def test_minus_is_left_associative():
    assert parse_expr("n - 1 - 2") == \
        BinOp("-", BinOp("-", Var("n"), IntLit(1)), IntLit(2))


def test_fields_of_follows_inheritance():
    ct = parse_classes(LISTS_SRC + """
class Cons extends NEList {
    extra;
    Cons(h, t, e) {
        super(h, t);
        this.extra = e;
    }
}
""")
    assert ct.fields_of("cons") == ("head", "tail", "extra")
    assert ct.classes["cons"].ctor.super_args == (Var("h"), Var("t"))


def test_empty_input_yields_empty_table():
    assert parse_classes("").classes == {}


def test_roundtrip_through_printer():
    for src in (LISTS_SRC, LISTFACT_SRC):
        ct = parse_classes(src)
        assert parse_classes(class_table_text(ct)) == ct
    e = parse_expr("if (n <= 0) acc else this.buildList(n-1, new NEList(n, acc))")
    assert parse_expr(expr_text(e)) == e


@pytest.mark.parametrize("expr", [
    object(),
    New("a", (IntLit(1), object())),
    BinOp("-", Var("x"), object()),
])
def test_expr_text_refuses_a_foreign_node(expr):
    with pytest.raises(TypeError, match="not an expression node"):
        expr_text(expr)


def test_printed_comparisons_parse_back():
    a, b, c = Var("a"), Var("b"), Var("c")
    for e, text in (
            (BinOp("<=", BinOp("<=", a, b), c), "(a <= b) <= c"),
            (BinOp("<=", a, BinOp("<=", b, c)), "a <= (b <= c)"),
            (BinOp("-", BinOp("-", a, b), c), "a - b - c"),
            (BinOp("-", a, BinOp("-", b, c)), "a - (b - c)"),
            (BinOp("<=", BinOp("-", a, b), BinOp("-", b, c)), "a - b <= b - c"),
            (BinOp("-", BinOp("<=", a, b), c), "(a <= b) - c")):
        assert expr_text(e) == text
        assert parse_expr(text) == e


@pytest.mark.parametrize("src, message", [
    ("class A extends A { A() { super(); } }", "inheritance cycle"),
    ("class A extends B {} class B extends A {}", "inheritance cycle"),
    ("class A {} class A {}", "duplicate class"),
    ("class Object {}", "reserved"),
    ("class A { f; A() { super(); } }", "never assigned"),
    ("class A { f; g; A(x) { super(); this.g = x; this.f = x; } }",
     "out of declaration order"),
    ("class A { f; A(x) { super(); this.f = x; this.f = x; } }",
     "more than once"),
    ("class A { A(x) { super(); this.f = x; } }", "undeclared field"),
    ("class A { m(x, x) { x } }", "duplicate parameter"),
    ("class A { m(x) { x } m(y) { y } }", "duplicate method"),
    ("class A { f; f; A() { super(); } }", "duplicate field"),
    ("class A { A() { super(); } A() { super(); } }", "duplicate constructor"),
])
def test_table_validation_errors(src, message):
    with pytest.raises(MooError, match=message):
        parse_classes(src)


def test_errors_carry_spans_in_bounds():
    src = "class A {\n  m() { 1 +++ 2 }\n}"
    with pytest.raises(MooError) as exc:
        parse_classes(src)
    span = exc.value.span
    assert span is not None
    lines = src.split("\n")
    assert 1 <= span.line <= len(lines)
    assert 1 <= span.column <= len(lines[span.line - 1]) + 1


def test_unknown_parent_is_allowed():
    ct = parse_classes("class A extends Mystery { A() { super(); } }")
    assert ct.classes["a"].parent == "mystery"
    assert ct.fields_of("a") == ()


def test_comments_and_case_folding():
    ct = parse_classes("""
// heterogeneous container
class Box {  // no explicit parent: object is implied
    Item;
    BOX(item) { super(); this.ITEM = item; }
}
""")
    assert ct.classes["box"].fields == ("item",)
    assert ct.classes["box"].parent == "object"


# ---------------------------------------------------------------------------
# Depth: the parser keeps its open constructs on a stack.  The results are
# checked by walking them in a loop, since dataclass ``==`` on the AST
# recurses.

DEEP = 10_000


def _spine(e, step) -> list:
    """``e`` and the nodes reached from it by ``step`` until it gives None."""
    out = [e]
    while (e := step(e)) is not None:
        out.append(e)
    return out


def test_parse_expr_nested_parentheses_at_any_depth():
    e = parse_expr("(" * DEEP + "new EList()" + ")" * DEEP)
    assert e == New("elist", ())
    assert (e.span.line, e.span.column) == (1, DEEP + 1)


def test_parse_expr_nested_new_arguments_at_any_depth():
    e = parse_expr("new NEList(1, " * DEEP + "new EList()" + ")" * DEEP)
    spine = _spine(e, lambda x: x.args[1] if x.args else None)
    assert len(spine) == DEEP + 1
    assert all(x.cls == "nelist" and x.args[0] == IntLit(1)
               for x in spine[:-1])
    assert spine[-1] == New("elist", ())
    assert spine[-1].span.column == len("new NEList(1, ") * DEEP + 1


def test_parse_expr_if_nested_in_else_at_any_depth():
    e = parse_expr("if (c) 1 else " * DEEP + "0")
    spine = _spine(e, lambda x: x.orelse if isinstance(x, If) else None)
    assert len(spine) == DEEP + 1
    assert all(x.cond == Var("c") and x.then == IntLit(1)
               for x in spine[:-1])
    assert spine[-1] == IntLit(0)
    assert spine[1].span.column == len("if (c) 1 else ") + 1


def test_parse_expr_minus_chain_at_any_depth():
    e = parse_expr("n" + " - x.f" * DEEP)
    spine = _spine(e, lambda x: x.lhs if isinstance(x, BinOp) else None)
    assert len(spine) == DEEP + 1
    assert all(x.op == "-" and x.rhs == FieldAcc(Var("x"), "f")
               for x in spine[:-1])
    assert spine[-1] == Var("n")
    assert spine[0].span.column == len("n") + len(" - x.f") * (DEEP - 1) + 2


def test_parse_expr_method_call_chain_at_any_depth():
    e = parse_expr("new EList()" + ".addLast(1)" * DEEP)
    spine = _spine(e, lambda x: x.target if isinstance(x, Invoke) else None)
    assert len(spine) == DEEP + 1
    assert all(x.method == "addlast" and x.args == (IntLit(1),)
               for x in spine[:-1])
    assert spine[-1] == New("elist", ())


def test_parse_expr_nested_call_arguments_at_any_depth():
    e = parse_expr("x.m(" * DEEP + "y" + ")" * DEEP)
    spine = _spine(e, lambda x: x.args[0] if isinstance(x, Invoke) else None)
    assert len(spine) == DEEP + 1
    assert all(x.target == Var("x") and x.method == "m" and len(x.args) == 1
               for x in spine[:-1])
    assert spine[-1] == Var("y")


@pytest.mark.parametrize("text", [
    "x" + ".f" * DEEP,
    "new elist()" + ".addlast(1)" * DEEP,
    "x.m(" * DEEP + "y" + ")" * DEEP,
    "if (c) 1 else " * DEEP + "0",
    "n" + " - x.f" * DEEP,
    "a - (" * DEEP + "a - b" + ")" * DEEP,
], ids=["fields", "calls", "arguments", "else", "minus", "parentheses"])
def test_expr_text_prints_any_depth(text):
    # The printer gives back the text it parsed, so what it prints parses
    # back equal.
    assert expr_text(parse_expr(text)) == text


def test_parse_classes_reads_a_deep_method_body():
    body = "(" * DEEP + "this.m()" + ")" * DEEP
    ct = parse_classes(f"class A {{ m() {{ {body} }} }}")
    assert ct.classes["a"].methods["m"].body == Invoke(This(), "m", ())


def test_if_is_only_a_full_expression():
    for text in ("1 - if (a) b else c", "x <= if (a) b else c"):
        with pytest.raises(MooError, match="expected an expression, "
                                           "found 'if'"):
            parse_expr(text)
    assert parse_expr("1 - (if (a) b else c)") == BinOp(
        "-", IntLit(1), If(Var("a"), Var("b"), Var("c")))
    assert parse_expr("x.m(if (a) b else c)") == Invoke(
        Var("x"), "m", (If(Var("a"), Var("b"), Var("c")),))


def test_moo_error_is_a_parse_error():
    with pytest.raises(ParseError) as exc:
        parse_expr("x <= y <= z")
    assert type(exc.value) is MooError
    assert str(exc.value) == "<expr>:1:8: unexpected '<=' after expression"

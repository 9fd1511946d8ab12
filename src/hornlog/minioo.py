"""Parser and AST for the untyped class-based mini-language (``.moo`` files).

The surface syntax is Java-like but carries no type annotations::

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

A class declares fields, one constructor (whose body is a ``super(...)``
call followed by ``this.f = e;`` assignments covering each declared field
exactly once, in declaration order), and methods whose bodies are single
expressions.  ``//`` starts a line comment.

Identifiers are case-insensitive and are stored lowercased, which is also
how they end up in compiled logic programs (``EList`` becomes the constant
``elist``).  ``object`` is the implicit inheritance root and cannot be
declared.  Parents that are neither declared nor ``object`` are allowed;
resolution against them simply fails at query time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from hornlog.syntax import ParseError, _Cursor, _Token, _tokenize
from hornlog.terms import SourceSpan


class MooError(ParseError):
    """Syntax or well-formedness error in mini-language source."""


# ---------------------------------------------------------------------------
# Expressions
#
# The ``span`` field never takes part in equality, so two parses of the same
# source compare equal even though their positions differ.

@dataclass(frozen=True)
class Var:
    name: str
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class IntLit:
    value: int
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class BoolLit:
    value: bool
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class Null:
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class This:
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class New:
    cls: str
    args: tuple
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class FieldAcc:
    target: "Expr"
    fld: str
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class Invoke:
    target: "Expr"
    method: str
    args: tuple
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class If:
    cond: "Expr"
    then: "Expr"
    orelse: "Expr"
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # "<=" or "-"
    lhs: "Expr"
    rhs: "Expr"
    span: Optional[SourceSpan] = field(default=None, compare=False)


Expr = Var | IntLit | BoolLit | Null | This | New | FieldAcc | Invoke | If | BinOp


# ---------------------------------------------------------------------------
# Declarations

@dataclass(frozen=True)
class Constructor:
    params: tuple
    super_args: tuple
    assigns: tuple  # ((field name, Expr), ...) in source order
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class MethodDecl:
    name: str
    params: tuple
    body: Expr
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class ClassDecl:
    name: str
    parent: str
    fields: tuple
    ctor: Constructor
    methods: dict  # name -> MethodDecl, declaration order
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class ClassTable:
    classes: dict  # name -> ClassDecl, declaration order

    def decl(self, name: str) -> ClassDecl:
        return self.classes[name]

    def fields_of(self, name: str) -> tuple:
        """All fields of ``name`` including inherited ones, root first.

        The chain stops at ``object`` or at an undeclared parent, which
        contributes no fields.
        """
        chain = []
        cur = name
        while cur in self.classes:
            chain.append(self.classes[cur])
            cur = chain[-1].parent
        out: list = []
        for decl in reversed(chain):
            out.extend(decl.fields)
        return tuple(out)


# ---------------------------------------------------------------------------
# Tokenizer

_KEYWORDS = frozenset(
    ["class", "extends", "new", "this", "super", "if", "else",
     "true", "false", "null"])

# One match per lexeme, as ``syntax._TOKEN_RE``: skip whitespace and
# comments, then the lexeme, ``eof`` or one ``bad`` character.
_MOO_TOKEN_RE = re.compile(
    r"""(?:\s+|//[^\n]*)*
    (?: (?P<int>\d+)
      | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
      | (?P<punct><=|[{}();,.=\-])
      | (?P<eof>\Z)
      | (?P<bad>.) )
    """,
    re.VERBOSE,
)


def _parser(text: str, filename: str) -> "_MooParser":
    """A parser over ``text``, identifiers lowercased and keywords marked."""
    toks = _tokenize(text, filename, _MOO_TOKEN_RE, MooError)
    for t in toks:
        if t.kind == "ident":
            t.text = t.text.lower()  # ASCII, so a span's length stays
            t.kind = "keyword" if t.text in _KEYWORDS else "ident"
    return _MooParser(toks)


# ---------------------------------------------------------------------------
# Parser

class _MooParser(_Cursor):
    error = MooError

    def ident(self, what: str) -> _Token:
        t = self.next()
        if t.kind != "ident":
            raise MooError(
                f"expected {what}, found {t.text or 'end of input'!r}", t.span)
        return t

    # -- expressions --------------------------------------------------------

    def expr(self) -> Expr:
        """One expression, of any depth: ``stack`` holds the open constructs,
        innermost last, each waiting for its next finished piece.

        * ``("if", token, parts)``: the condition and branches of an ``if``;
        * ``("(",)``: a parenthesised expression;
        * ``(",", make, args)``: the arguments of ``new C(`` or ``.m(``,
          from which ``make`` builds the node;
        * ``("-", left, op)``: the right operand of ``-``, a postfix
          expression, so that ``-`` is left-associative;
        * ``("<=", left, op)``: the right operand of ``<=``, an additive one.

        ``if`` starts an expression only where a full one is expected.
        """
        stack: list = []
        while True:
            # A primary: a leaf, or the opening of a construct.
            t = self.next()
            if t.text == "if" and not (stack and stack[-1][0] in ("-", "<=")):
                self.expect("(")
                stack.append(("if", t, []))
                continue
            if t.kind == "int":
                done = IntLit(int(t.text), t.span)
            elif t.text == "true" or t.text == "false":
                done = BoolLit(t.text == "true", t.span)
            elif t.text == "null":
                done = Null(t.span)
            elif t.text == "this":
                done = This(t.span)
            elif t.text == "new":
                cls = self.ident("class name")
                self.expect("(")
                stack.append((",", partial(New, cls.text, span=t.span), []))
                continue
            elif t.kind == "ident":
                done = Var(t.text, t.span)
            elif t.text == "(":
                stack.append(("(",))
                continue
            elif (t.text == ")" and stack and stack[-1][0] == ","
                  and not stack[-1][2]):  # ``new C()`` or ``.m()``
                done = stack.pop()[1](())
            else:
                raise MooError(
                    f"expected an expression, found {t.text or 'end of input'!r}",
                    t.span)
            while True:
                # ``done`` is a primary, or a postfix expression so far.
                if self.peek().text == ".":
                    self.next()
                    name = self.ident("field or method name")
                    if self.peek().text != "(":
                        done = FieldAcc(done, name.text, name.span)
                        continue
                    self.next()
                    stack.append((",", partial(Invoke, done, name.text,
                                               span=name.span), []))
                    break
                # ``done`` is a finished postfix expression.
                if stack and stack[-1][0] == "-":
                    _, left, op = stack.pop()
                    done = BinOp("-", left, done, op.span)
                if self.peek().text == "-":
                    stack.append(("-", done, self.next()))
                    break
                # ``done`` is a finished additive expression.
                if stack and stack[-1][0] == "<=":
                    _, left, op = stack.pop()
                    done = BinOp("<=", left, done, op.span)
                elif self.peek().text == "<=":
                    stack.append(("<=", done, self.next()))
                    break
                # ``done`` is a finished expression.
                while stack and stack[-1][0] == "if" and len(stack[-1][2]) == 2:
                    _, tok, parts = stack.pop()
                    done = If(*parts, done, tok.span)
                if not stack:
                    return done
                kind = stack[-1][0]
                if kind == "if":
                    parts = stack[-1][2]
                    parts.append(done)
                    self.expect(")" if len(parts) == 1 else "else")
                    break
                if kind == "(":
                    stack.pop()
                    self.expect(")")
                    continue
                args = stack[-1][2]
                args.append(done)
                if self.peek().text == ",":
                    self.next()
                    break
                self.expect(")")
                done = stack.pop()[1](tuple(args))

    def comma_list(self, item) -> list:
        """``item()`` for each entry of a comma-separated list that ends in
        ``)``, which is consumed."""
        if self.peek().text == ")":
            self.next()
            return []
        out = [item()]
        while self.peek().text == ",":
            self.next()
            out.append(item())
        self.expect(")")
        return out

    def param_list(self) -> tuple:
        self.expect("(")
        names = self.comma_list(lambda: self.ident("parameter name"))
        seen = set()
        for tok in names:
            if tok.text in seen:
                raise MooError(f"duplicate parameter {tok.text!r}", tok.span)
            seen.add(tok.text)
        return tuple(tok.text for tok in names)

    # -- declarations -------------------------------------------------------

    def class_decl(self) -> ClassDecl:
        start = self.expect("class")
        name = self.ident("class name")
        if name.text == "object":
            raise MooError("class name 'object' is reserved (implicit root)",
                           name.span)
        parent = "object"
        if self.peek().text == "extends":
            self.next()
            parent = self.ident("parent class name").text
        self.expect("{")
        fields: list = []
        ctor: Optional[Constructor] = None
        methods: dict = {}
        while self.peek().text != "}":
            tok = self.ident("member declaration")
            if self.peek().text == ";":  # field
                self.next()
                if tok.text in fields:
                    raise MooError(f"duplicate field {tok.text!r}", tok.span)
                fields.append(tok.text)
            elif tok.text == name.text:  # constructor
                if ctor is not None:
                    raise MooError("duplicate constructor", tok.span)
                ctor = self.constructor(tok)
            else:  # method
                params = self.param_list()
                self.expect("{")
                body = self.expr()
                self.expect("}")
                if tok.text in methods:
                    raise MooError(f"duplicate method {tok.text!r}", tok.span)
                methods[tok.text] = MethodDecl(tok.text, params, body, tok.span)
        self.expect("}")
        if ctor is None:
            ctor = Constructor((), (), (), name.span)
        _check_assignments(tuple(fields), ctor, name)
        return ClassDecl(name.text, parent, tuple(fields), ctor, methods,
                         start.span)

    def constructor(self, name_tok: _Token) -> Constructor:
        params = self.param_list()
        self.expect("{")
        self.expect("super")
        self.expect("(")
        super_args = tuple(self.comma_list(self.expr))
        self.expect(";")
        assigns = []
        while self.peek().text == "this":
            self.next()
            self.expect(".")
            fld_tok = self.ident("field name")
            self.expect("=")
            rhs = self.expr()
            self.expect(";")
            assigns.append((fld_tok.text, rhs))
        self.expect("}")
        return Constructor(params, super_args, tuple(assigns), name_tok.span)

    def class_table(self) -> ClassTable:
        classes: dict = {}
        while self.peek().kind != "eof":
            decl = self.class_decl()
            if decl.name in classes:
                raise MooError(f"duplicate class {decl.name!r}", decl.span)
            classes[decl.name] = decl
        table = ClassTable(classes)
        _check_cycles(table)
        return table


def _check_assignments(fields: tuple, ctor: Constructor, name_tok: _Token):
    """The constructor must assign each declared field exactly once, in
    declaration order."""
    assigned = [f for f, _ in ctor.assigns]
    for f in assigned:
        if f not in fields:
            raise MooError(f"constructor assigns undeclared field {f!r}",
                           ctor.span)
    if len(set(assigned)) != len(assigned):
        dup = next(f for i, f in enumerate(assigned) if f in assigned[:i])
        raise MooError(f"field {dup!r} assigned more than once", ctor.span)
    for f in fields:
        if f not in assigned:
            raise MooError(
                f"field {f!r} of class {name_tok.text!r} is never assigned",
                ctor.span)
    if list(fields) != assigned:
        raise MooError("constructor assignments out of declaration order",
                       ctor.span)


def _check_cycles(table: ClassTable):
    for name, decl in table.classes.items():
        seen = {name}
        cur = decl.parent
        while cur in table.classes:
            if cur in seen:
                raise MooError(f"inheritance cycle through class {name!r}",
                               decl.span)
            seen.add(cur)
            cur = table.classes[cur].parent


def parse_classes(text: str, filename: str = "<moo>") -> ClassTable:
    return _parser(text, filename).class_table()


def parse_expr(text: str, filename: str = "<expr>") -> Expr:
    p = _parser(text, filename)
    e = p.expr()
    t = p.peek()
    if t.kind != "eof":
        raise MooError(f"unexpected {t.text!r} after expression", t.span)
    return e


# ---------------------------------------------------------------------------
# Printing
#
# Precedence levels for parenthesization: if (0) < <= (1) < - (2) < postfix.

def expr_text(e: Expr) -> str:
    """Render an expression, of any depth: an explicit stack holds the text
    still to come, as in ``syntax.term_text``."""
    pieces: list = []
    stack: list = [(e, 0)]  # text pieces and (expr, precedence) items
    while stack:
        x = stack.pop()
        if x.__class__ is str:
            pieces.append(x)
            continue
        e, prec = x
        if isinstance(e, Var):
            pieces.append(e.name)
        elif isinstance(e, IntLit):
            pieces.append(str(e.value))
        elif isinstance(e, BoolLit):
            pieces.append("true" if e.value else "false")
        elif isinstance(e, Null):
            pieces.append("null")
        elif isinstance(e, This):
            pieces.append("this")
        elif isinstance(e, FieldAcc):
            stack.extend(reversed([(e.target, 3), "." + e.fld]))
        elif isinstance(e, (New, Invoke)):
            todo = ([f"new {e.cls}("] if isinstance(e, New)
                    else [(e.target, 3), f".{e.method}("])
            for arg in e.args:
                todo += [(arg, 0), ", "]
            if e.args:
                todo.pop()
            stack.extend(reversed(todo + [")"]))
        elif isinstance(e, If):
            todo = ["if (", (e.cond, 0), ") ", (e.then, 1), " else ",
                    (e.orelse, 0)]
            stack.extend(reversed(["(", *todo, ")"] if prec > 0 else todo))
        elif isinstance(e, BinOp):
            # A left operand prints at ``-``'s level: ``-`` is left
            # associative, and ``<=`` does not chain.
            mine = 1 if e.op == "<=" else 2
            todo = [(e.lhs, 2), f" {e.op} ", (e.rhs, mine + 1)]
            stack.extend(reversed(["(", *todo, ")"] if prec > mine else todo))
        else:
            raise TypeError(f"not an expression node: {e!r}")
    return "".join(pieces)


def class_table_text(ct: ClassTable) -> str:
    out = []
    for decl in ct.classes.values():
        out.append(f"class {decl.name} extends {decl.parent} {{")
        for f in decl.fields:
            out.append(f"    {f};")
        c = decl.ctor
        args = ", ".join(expr_text(a) for a in c.super_args)
        out.append(f"    {decl.name}({', '.join(c.params)}) {{")
        out.append(f"        super({args});")
        for f, rhs in c.assigns:
            out.append(f"        this.{f} = {expr_text(rhs)};")
        out.append("    }")
        for m in decl.methods.values():
            out.append(f"    {m.name}({', '.join(m.params)}) {{")
            out.append(f"        {expr_text(m.body)}")
            out.append("    }")
        out.append("}")
    return "\n".join(out) + ("\n" if out else "")

"""Concrete syntax: program/goal parsing and answer printing.

The clause format is Prolog-like::

    from(X, [X|Y]) :- from(s(X), Y).   % bracket lists are '.'/2 pairs
    subclass(X, object) :- class(X).

plus two infix operators: ``\\/`` (union, right-associative) and ``:``
(field-record entry, binding tighter than union, internal functor ``fld``).
``%`` starts a comment.  Every parsed node carries a 1-based source span.

The tokenizer makes one regex match per lexeme: the match skips the
whitespace and comments before it, and lines are counted in what it
skipped.  A token holds its position, not a span: its ``span`` is built
when a parser reads it, so punctuation that no node keeps builds none.
``minioo`` tokenizes with the same loop and its own regex.
"""

from __future__ import annotations

import re
from typing import Optional

from hornlog.terms import (
    Atom,
    BindingEnv,
    Clause,
    Compound,
    FIELD_FUNCTOR,
    Goal,
    LIST_FUNCTOR,
    NIL,
    Program,
    SourceSpan,
    Term,
    UNION_FUNCTOR,
    Var,
    _walk,
    mklist,
    resolve,
    to_mu,
)


class ParseError(Exception):
    def __init__(self, message: str, span: Optional[SourceSpan] = None):
        self.span = span
        super().__init__(f"{span}: {message}" if span else message)


class PrintError(Exception):
    """Raised when an answer cannot be rendered in the requested style."""


# ---------------------------------------------------------------------------
# Tokenizer

# A prefix skips whitespace and comments; then ``eof`` matches at the end
# of the input and ``bad`` at a character that starts no lexeme.
_TOKEN_RE = re.compile(
    r"""(?:\s+|%[^\n]*)*
    (?: (?P<turnstile>:-)
      | (?P<query>\?-)
      | (?P<union>\\/)
      | (?P<int>\d+)
      | (?P<name>[a-z][A-Za-z0-9_$]*)
      | (?P<var>[A-Z_][A-Za-z0-9_$]*)
      | (?P<punct>[()\[\],|.:])
      | (?P<eof>\Z)
      | (?P<bad>.) )
    """,
    re.VERBOSE,
)


class _Token:
    """A lexeme: its kind, its text and where it starts.  ``span`` is built
    when a parser reads it, so a token that no node keeps builds none."""

    __slots__ = ("kind", "text", "file", "line", "column")

    def __init__(self, kind: str, text: str, file: str, line: int,
                 column: int):
        self.kind = kind
        self.text = text
        self.file = file
        self.line = line
        self.column = column

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.file, self.line, self.column, len(self.text))


def _tokenize(text: str, filename: str, token_re=_TOKEN_RE,
              error=ParseError) -> list:
    """The tokens of ``text`` under ``token_re``, ending with ``eof``;
    ``error`` at a ``bad`` character.  ``minioo`` passes its own regex and
    error class.  A lexeme holds no newline, so lines are counted in the
    skipped prefixes alone."""
    out = []
    line, line_start, pos = 1, 0, 0  # line_start: offset of the line's start
    for m in token_re.finditer(text):
        kind = m.lastgroup
        start, end = m.span(kind)
        if start != pos:
            newlines = text.count("\n", pos, start)
            if newlines:
                line += newlines
                line_start = text.rfind("\n", pos, start) + 1
        if kind == "bad":
            raise error(f"unexpected character {text[start]!r}",
                        SourceSpan(filename, line, start - line_start + 1, 1))
        out.append(_Token(kind, text[start:end], filename, line,
                          start - line_start + 1))
        if kind == "eof":  # else an empty ``eof`` follows one after a prefix
            break
        pos = end
    return out


class _Cursor:
    """A position in a token list, for both front ends; ``error`` is the
    class of the errors it raises."""

    error = ParseError

    def __init__(self, toks: list):
        self.toks = toks
        self.i = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def next(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> _Token:
        t = self.next()
        if t.text != text:
            raise self.error(
                f"expected {text!r}, found {t.text or 'end of input'!r}", t.span)
        return t


class _Parser(_Cursor):
    def __init__(self, text: str, filename: str):
        super().__init__(_tokenize(text, filename))
        used = {t.text for t in self.toks if t.kind == "var"}
        self._anon = self._anon_names(used)

    @staticmethod
    def _anon_names(used):
        i = 0
        while True:
            name = f"_A{i}"
            if name not in used:
                yield name
            i += 1

    # -- terms --------------------------------------------------------------

    def term(self) -> Term:
        """One term, of any depth: ``stack`` holds the open constructs,
        innermost last, each waiting for its next finished piece.

        * ``("(", name, args)``: the arguments of ``name(``;
        * ``("[", opener, items)``: the items of a bracket list;
        * ``("|", opener, items)``: the tail of a bracket list;
        * ``(")",)``: a parenthesised term;
        * ``(":", left, op)``: the right operand of ``:``, a primary;
        * ``("\\/", left, op)``: the right operand of ``\\/``, a term, so
          that union is right-associative and binds looser than ``:``.
        """
        stack: list = []
        while True:
            # A primary: a leaf, or the opening of a construct.
            t = self.next()
            if t.kind == "var":
                name = next(self._anon) if t.text == "_" else t.text
                done = Var(name, t.span)
            elif t.kind == "int" or (t.kind == "name"
                                     and self.peek().text != "("):
                done = Compound(t.text, (), t.span)
            elif t.kind == "name":
                self.next()
                stack.append(("(", t, []))
                continue
            elif t.text == "[" and self.peek().text == "]":
                self.next()
                done = Compound("[]", (), t.span)
            elif t.text == "[":
                stack.append(("[", t, []))
                continue
            elif t.text == "(":
                stack.append((")",))
                continue
            else:
                raise ParseError(
                    f"expected a term, found {t.text or 'end of input'!r}",
                    t.span)
            while True:
                # ``done`` is a finished primary.
                if stack and stack[-1][0] == ":":
                    _, left, op = stack.pop()
                    done = Compound(FIELD_FUNCTOR, (left, done), op.span)
                elif self.peek().text == ":":
                    stack.append((":", done, self.next()))
                    break
                # ``done`` is a finished field term.
                if self.peek().kind == "union":
                    stack.append(("\\/", done, self.next()))
                    break
                while stack and stack[-1][0] == "\\/":
                    _, left, op = stack.pop()
                    done = Compound(UNION_FUNCTOR, (left, done), op.span)
                # ``done`` is a finished term.
                if not stack:
                    return done
                kind = stack[-1][0]
                if kind == ")":
                    stack.pop()
                    self.expect(")")
                    continue
                if kind == "|":
                    _, opener, items = stack.pop()
                    self.expect("]")
                    done = mklist(items, done, opener.span)
                    continue
                stack[-1][2].append(done)
                if self.peek().text == ",":
                    self.next()
                    break
                _, opener, items = stack.pop()
                if kind == "(":
                    self.expect(")")
                    done = Compound(opener.text, tuple(items), opener.span)
                elif self.peek().text == "|":
                    self.next()
                    stack.append(("|", opener, items))
                    break
                else:
                    self.expect("]")
                    done = mklist(items, NIL, opener.span)

    # -- clauses ------------------------------------------------------------

    def atom(self) -> Atom:
        t = self.peek()
        term = self.term()
        if isinstance(term, Var):
            raise ParseError("a goal atom cannot be a variable", t.span)
        # atom_text would print either as a functor that no parser reads
        # back: .(a, b) or \/(a, b)
        if term.functor == LIST_FUNCTOR:
            raise ParseError("an atom cannot be a bracket list", term.span)
        if term.functor == UNION_FUNCTOR:
            raise ParseError("an atom cannot be a \\/ union", term.span)
        return Atom(term.functor, term.args, term.span or t.span)

    def clause(self, idx: int) -> Clause:
        start = self.peek().span
        head = self.atom()
        body: tuple = ()
        if self.peek().kind == "turnstile":
            self.next()
            atoms = [self.atom()]
            while self.peek().text == ",":
                self.next()
                atoms.append(self.atom())
            body = tuple(atoms)
        self.expect(".")
        return Clause(head, body, idx, start)

    def program(self) -> Program:
        clauses = []
        while self.peek().kind != "eof":
            clauses.append(self.clause(len(clauses) + 1))
        return Program(tuple(clauses))

    def goal(self) -> Goal:
        if self.peek().kind == "query":
            self.next()
        if self.peek().kind == "eof":
            raise ParseError("empty goal", self.peek().span)
        atoms = [self.atom()]
        while self.peek().text == ",":
            self.next()
            atoms.append(self.atom())
        if self.peek().text == ".":
            self.next()
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"unexpected {t.text!r} after goal", t.span)
        return Goal(tuple(atoms))


def parse_program(text: str, filename: str = "<string>") -> Program:
    return _Parser(text, filename).program()


def parse_goal(text: str, filename: str = "<goal>") -> Goal:
    return _Parser(text, filename).goal()


def parse_term(text: str, filename: str = "<term>") -> Term:
    p = _Parser(text, filename)
    t = p.term()
    if p.peek().kind != "eof":
        raise ParseError(f"unexpected {p.peek().text!r} after term", p.peek().span)
    return t


# ---------------------------------------------------------------------------
# Printing

_UNION_PRIO = 500
_FIELD_PRIO = 200
_BACK_EDGE = "a cycle closes through the bindings: the term is rational"


def term_text(t: Term, max_prio: int = 1200, nested_lists: bool = False,
              marked: bool = False, env: Optional[BindingEnv] = None) -> str:
    """Render a term, of any depth, read through ``env``'s bindings: an
    explicit stack holds the text still to come, and each variable is
    walked where it is met.

    ``nested_lists`` prints cons cells one pair at a time (``[a|[b|T]]``),
    which is how incremental answers are displayed; otherwise lists print
    compactly (``[a, b|T]``).  With ``marked`` every variable gets a
    trailing ``?``.

    ``t`` may share subterms: a compound met again at a priority it was
    printed at reuses that text, so a shared subterm is printed once.  The
    compounds on the current path are marked, the cells of a compact list
    included, and one met again while open is a back edge: the term is
    rational, and :class:`PrintError` is raised.  A term read without an
    environment is a finite tree and has none.
    """
    bindings = env._b if env is not None else None
    pieces: list = []
    done: dict = {}  # (id, priority) -> its slice of pieces, then its text
    path: set = set()  # ids of the open compounds
    # Text pieces, ``[key, start]`` and cell-id exit markers, (term,
    # priority) items, and (term, None) for the rest of a compact list.
    stack: list = [(t, max_prio)]
    while stack:
        x = stack.pop()
        if x.__class__ is str:
            pieces.append(x)
            continue
        if x.__class__ is list:  # [key, start]: that compound is printed
            key = x[0]
            done[key] = (x[1], len(pieces))
            path.discard(key[0])
            continue
        if x.__class__ is int:  # the id of a compact list's cell, done
            path.discard(x)
            continue
        t, prio = x
        if t.__class__ is Var and bindings:
            t = _walk(bindings, t)
        if prio is None:  # after a compact list's item: its tail
            if (t.__class__ is Var or t.functor != LIST_FUNCTOR
                    or len(t.args) != 2):
                if t.__class__ is Var or t.functor != "[]" or t.args:
                    stack += ["]", (t, 999), "|"]
                else:
                    pieces.append("]")
                continue
            if id(t) in path:
                raise PrintError(_BACK_EDGE)
            path.add(id(t))
            stack += [id(t), (t.args[1], None), (t.args[0], 999), ", "]
            continue
        if t.__class__ is Var:
            pieces.append(t.name + "?" if marked else t.name)
            continue
        if not t.args:
            pieces.append(t.functor)
            continue
        key = (id(t), prio)
        text = done.get(key)
        if text is not None:
            if text.__class__ is tuple:
                text = done[key] = "".join(pieces[text[0]:text[1]])
            pieces.append(text)
            continue
        if key[0] in path:
            raise PrintError(_BACK_EDGE)
        path.add(key[0])
        stack.append([key, len(pieces)])
        # What is still to come, last piece first.
        if t.functor == LIST_FUNCTOR and len(t.args) == 2:
            if nested_lists:
                stack += ["]", (t.args[1], 999), "|", (t.args[0], 999), "["]
            else:
                stack += [(t.args[1], None), (t.args[0], 999), "["]
        elif t.functor == UNION_FUNCTOR and len(t.args) == 2:
            todo = [(t.args[1], _UNION_PRIO), " \\/ ", (t.args[0], _UNION_PRIO - 1)]
            stack += [")", *todo, "("] if _UNION_PRIO > prio else todo
        elif t.functor == FIELD_FUNCTOR and len(t.args) == 2:
            todo = [(t.args[1], _FIELD_PRIO - 1), ":", (t.args[0], _FIELD_PRIO - 1)]
            stack += [")", *todo, "("] if _FIELD_PRIO > prio else todo
        else:
            stack.append(")")
            for a in reversed(t.args):
                stack += [(a, 999), ", "]
            stack[-1] = t.functor + "("
    return "".join(pieces)


def atom_text(a: Atom) -> str:
    if not a.args:
        return a.pred
    return f"{a.pred}(" + ", ".join(term_text(x, 999) for x in a.args) + ")"


def clause_text(c: Clause) -> str:
    if not c.body:
        return atom_text(c.head) + "."
    return atom_text(c.head) + " :- " + ", ".join(atom_text(a) for a in c.body) + "."


def program_text(p: Program) -> str:
    return "\n".join(clause_text(c) for c in p.clauses) + "\n"


def goal_text(g: Goal) -> str:
    return "?- " + ", ".join(atom_text(a) for a in g.atoms) + "."


def print_answer(answer, style: str = "flat", unfold: int = 3) -> str:
    """Render an answer's bindings.

    * ``flat``: substitute fully; raises :class:`PrintError` on cyclic
      bindings (use ``mu`` or ``lazy`` for those).
    * ``mu``: one equation per cycle entry, e.g. ``X = cons(0, X)``.
    * ``lazy``: unfold cycles ``unfold`` times, print cons cells pairwise, and
      mark every remaining variable with a trailing ``?``.

    ``flat`` and ``lazy`` print each goal variable in one ``term_text``
    walk through the bindings, which marks the compounds on its path.  A
    compound met again on that path is a back edge: the binding is
    rational.  There ``flat`` raises, and ``lazy`` prints instead the
    finite tree that ``resolve`` unfolds to ``unfold`` levels.  So an
    acyclic answer reads the same under every ``unfold``.
    """
    if style not in ("flat", "mu", "lazy"):
        raise ValueError(f"unknown style {style!r}")
    env: BindingEnv = answer.bindings
    lazy = style == "lazy"
    parts = []
    for name in answer.goal_vars:
        v = Var(name)
        walked = env.walk(v)
        if isinstance(walked, Var) and walked.name == name:
            continue  # unconstrained
        if style == "mu":
            m = to_mu(env, v)
            eqs = dict(m.equations)
            root = eqs.pop(name) if m.root == v and name in eqs else m.root
            parts.append(f"{name} = {term_text(root)}")
            parts.extend(f"{n} = {term_text(rhs)}" for n, rhs in sorted(eqs.items()))
            continue
        try:
            text = term_text(walked, 1200, lazy, lazy, env)
        except PrintError:
            if not lazy:
                raise PrintError(
                    f"{name} is bound to a rational term; "
                    "the flat style cannot print it (use mu or lazy)") from None
            text = term_text(resolve(env, v, unfold), 1200, True, True)
        parts.append(f"{name} = {text}")
    return ", ".join(parts) if parts else "true"


# ---------------------------------------------------------------------------
# Trace lines

_TRACE_RE = re.compile(
    r"#(?P<n>\d+) (?P<kind>sld|hyp|rw|su) clause (?P<clause>\d+) "
    r"atom (?P<atom>\d+) σ=\{(?P<subst>.*)\}$")


def trace_line(n: int, kind: str, clause_id: int, atom_index: int, bindings) -> str:
    """One ``--trace`` line.  On a ``hyp`` line ``clause_id`` is the ancestor
    distance, not a clause index: the ancestor was selected that many steps
    earlier on the branch (1 is the previous step)."""
    subst = ", ".join(f"{name}={term_text(t)}" for name, t in bindings)
    return f"#{n} {kind} clause {clause_id} atom {atom_index} σ={{{subst}}}"


def parse_trace_line(line: str) -> dict:
    """Fields of a ``trace_line``; for a ``hyp`` line the ``clause`` entry
    holds the ancestor distance."""
    m = _TRACE_RE.match(line)
    if m is None:
        raise ParseError(f"bad trace line: {line!r}")
    subst = []
    body = m.group("subst")
    if body:
        for part in _split_top(body):
            name, _, rhs = part.partition("=")
            subst.append((name.strip(), parse_term(rhs.strip())))
    return {
        "n": int(m.group("n")),
        "kind": m.group("kind"),
        "clause": int(m.group("clause")),
        "atom": int(m.group("atom")),
        "subst": subst,
    }


def _split_top(s: str) -> list:
    out, depth, start = [], 0, 0
    for i, ch in enumerate(s):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            out.append(s[start:i])
            start = i + 1
    out.append(s[start:])
    return [p for p in (x.strip() for x in out) if p]

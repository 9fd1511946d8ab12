"""Reference checking for printed answers, independent of hornlog.

Printed answer lines (``X = f(a), Y = [b|T]  % partial``) are read by a small
parser of their own into plain trees, and compared with reference trees
written by hand or computed from the input.  Nothing here imports hornlog, so
a fault in its parser or printer cannot hide itself.

Trees are tuples:

* ``("var", name)``: a variable printed by the program, or a variable the
  reference requires literally;
* ``("pat", name)``: a reference-only pattern variable, written ``@Name``;
  it matches any subtree, consistently across one answer line;
* ``("hole",)``: an unresolved position of a partial answer, printed
  ``Name?``; a reference may demand one at a position (``V?``);
* ``(functor, args)``: a compound; constants have ``args == ()``.

Lists are normalised to cons cells ``(".", (head, tail))`` ending in
``("[]", ())``, so ``[a, b]`` and the cell-by-cell ``[a|[b|[]]]`` of the lazy
style read the same.  ``name:type`` reads as ``("fld", ...)`` and
``a \\/ b`` as ``("\\/", ...)``, right-nested.
"""

from __future__ import annotations

import re

_TOKEN = re.compile(r"\s*(?:(\\/)|([A-Za-z0-9_$]+\??)|(@[A-Za-z0-9_]+)|(.))")

NIL = ("[]", ())


class AnswerSyntaxError(ValueError):
    pass


def _tokens(text: str) -> list:
    out = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        pos = m.end()
        tok = m.group(m.lastindex)
        out.append(tok)
    out.append("")
    return out


class _Reader:
    """Recursive descent over one answer line; terms are shallow here (a few
    dozen levels at most), so recursion is safe."""

    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.i = 0

    def peek(self) -> str:
        return self.toks[self.i]

    def next(self) -> str:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise AnswerSyntaxError(f"expected {tok!r}, got {got!r}")

    def term(self):
        left = self.field()
        if self.peek() == "\\/":
            self.next()
            return ("\\/", (left, self.term()))
        return left

    def field(self):
        left = self.primary()
        if self.peek() == ":":
            self.next()
            return ("fld", (left, self.primary()))
        return left

    def primary(self):
        tok = self.next()
        if tok == "(":
            inner = self.term()
            self.expect(")")
            return inner
        if tok == "[":
            return self.list_rest()
        if tok.startswith("@"):
            return ("pat", tok[1:])
        if not tok or not re.match(r"[A-Za-z0-9_$]", tok):
            raise AnswerSyntaxError(f"unexpected {tok!r}")
        if tok.endswith("?"):
            return ("hole",)
        if tok[0].isupper() or tok[0] == "_":
            return ("var", tok)
        if self.peek() == "(":
            self.next()
            args = [self.term()]
            while self.peek() == ",":
                self.next()
                args.append(self.term())
            self.expect(")")
            return (tok, tuple(args))
        return (tok, ())

    def list_rest(self):
        if self.peek() == "]":
            self.next()
            return NIL
        items = [self.term()]
        while self.peek() == ",":
            self.next()
            items.append(self.term())
        tail = NIL
        if self.peek() == "|":
            self.next()
            tail = self.term()
        self.expect("]")
        for item in reversed(items):
            tail = (".", (item, tail))
        return tail


def parse_answer(line: str) -> tuple:
    """``(bindings, partial)`` for one printed answer line, where bindings is
    a dict from variable name to tree.  ``true`` has no bindings."""
    partial = False
    body = line
    if body.rstrip().endswith("% partial"):
        partial = True
        body = body.rstrip()[:-len("% partial")]
    body = body.strip()
    if body == "true":
        return {}, partial
    r = _Reader(body)
    bindings = {}
    while True:
        name = r.next()
        if not name or not (name[0].isupper() or name[0] == "_"):
            raise AnswerSyntaxError(f"expected a variable name in {line!r}")
        r.expect("=")
        bindings[name] = r.term()
        if r.peek() != ",":
            break
        r.next()
    if r.peek():
        raise AnswerSyntaxError(f"trailing {r.peek()!r} in {line!r}")
    return bindings, partial


def matches(ref, out, pats: dict, prefix: bool) -> bool:
    """Does printed tree ``out`` agree with reference tree ``ref``?

    A hole in ``out`` matches a hole in ``ref``; with ``prefix`` it also
    stands for any reference subtree, so a partial answer may stop early."""
    stack = [(ref, out)]
    while stack:
        r, o = stack.pop()
        if o[0] == "hole":
            if r[0] != "hole" and not prefix:
                return False
            continue
        if r[0] == "hole":
            return False
        if r[0] == "pat":
            bound = pats.get(r[1])
            if bound is None:
                pats[r[1]] = o
            elif bound != o:
                return False
            continue
        if r[0] == "var" or o[0] == "var":
            if r != o:
                return False
            continue
        if r[0] != o[0] or len(r[1]) != len(o[1]):
            return False
        stack.extend(zip(r[1], o[1]))
    return True


def check_answer(ref: dict, line: str, partial=None, prefix: bool = False):
    """Check one printed answer line against reference bindings; returns an
    empty string when it agrees, else the reason.

    The answer must bind exactly the reference's names, unless it is partial
    and ``prefix`` is set: then it may omit names and stop early at holes,
    but whatever it prints must be a prefix of the reference.  ``partial``,
    when not None, is whether the line must carry the partial tag."""
    try:
        got, is_partial = parse_answer(line)
    except AnswerSyntaxError as exc:
        return f"unreadable answer {line!r}: {exc}"
    if partial is not None and is_partial != partial:
        return f"partial tag is {is_partial}, want {partial}: {line!r}"
    loose = prefix and is_partial
    if not set(got) <= set(ref) or (not loose and set(got) != set(ref)):
        return f"binds {sorted(got)}, want {sorted(ref)}: {line!r}"
    pats: dict = {}
    for name in sorted(got):
        if not matches(ref[name], got[name], pats, loose):
            return f"{name} disagrees with the reference: {line!r}"
    return ""


def ref_answer(text: str) -> dict:
    """Reference bindings written as an answer line, e.g.
    ``"X = obj(elist, @A), T = obj(nelist, [head:Y, tail:obj(elist, @A)])"``."""
    bindings, _ = parse_answer(text)
    return bindings


TRACE_LINE = re.compile(r"#(\d+) (sld|hyp|rw|su) clause \d+ atom \d+ σ=\{.*\}$")


def split_traced(stdout: str) -> list:
    """Group ``--trace`` output into ``(trace_lines, answer_line)`` pairs.

    Returns None when a trace block is malformed: numbering must run 1, 2,
    ... within each block."""
    groups = []
    block: list = []
    for line in stdout.splitlines():
        m = TRACE_LINE.match(line)
        if m:
            if int(m.group(1)) != len(block) + 1:
                return None
            block.append(line)
            continue
        groups.append((block, line))
        block = []
    if block:
        return None
    return groups

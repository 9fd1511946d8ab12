"""The tokenizer against its one-match-per-character-run reference.

``_reference_tokenize`` and the two ``_REFERENCE_*`` regexes below are the
tokenizer as it was before it matched one lexeme at a time: one regex match
per whitespace run, per comment and per lexeme, and a span built for every
token.  The tokenizer in ``hornlog.syntax`` must give the same tokens, each
with the same kind, text and span, and the same error, with the same
message and span, on every input.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

import pytest

from hornlog import minioo, syntax
from hornlog.minioo import MooError
from hornlog.syntax import ParseError, parse_goal
from hornlog.terms import SourceSpan

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

# ---------------------------------------------------------------------------
# Reference: the tokenizer and both regexes as they were, verbatim.

_REFERENCE_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>%[^\n]*)
      | (?P<turnstile>:-)
      | (?P<query>\?-)
      | (?P<union>\\/)
      | (?P<int>\d+)
      | (?P<name>[a-z][A-Za-z0-9_$]*)
      | (?P<var>[A-Z_][A-Za-z0-9_$]*)
      | (?P<punct>[()\[\],|.:])
    """,
    re.VERBOSE,
)

_REFERENCE_MOO_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>//[^\n]*)
      | (?P<int>\d+)
      | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
      | (?P<punct><=|[{}();,.=\-])
    """,
    re.VERBOSE,
)


@dataclass
class _Token:
    kind: str
    text: str
    span: SourceSpan


def _reference_tokenize(text: str, filename: str,
                        token_re=_REFERENCE_TOKEN_RE, error=ParseError) -> list:
    """The tokens of ``text`` under ``token_re``, then ``eof``; ``error`` on an
    unknown character.  ``minioo`` passes its own regex and error class."""
    out = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = token_re.match(text, pos)
        if m is None:
            raise error(f"unexpected character {text[pos]!r}",
                        SourceSpan(filename, line, col, 1))
        kind, tok = m.lastgroup, m.group()
        if kind not in ("ws", "comment"):
            out.append(_Token(kind, tok, SourceSpan(filename, line, col, len(tok))))
        newlines = tok.count("\n")
        if newlines:
            line += newlines
            col = len(tok) - tok.rfind("\n")
        else:
            col += len(tok)
        pos = m.end()
    out.append(_Token("eof", "", SourceSpan(filename, line, col, 0)))
    return out


# ---------------------------------------------------------------------------
# The two front ends: (reference regex, regex, error class).

_FRONT_ENDS = {
    "lp": (_REFERENCE_TOKEN_RE, syntax._TOKEN_RE, ParseError),
    "moo": (_REFERENCE_MOO_TOKEN_RE, minioo._MOO_TOKEN_RE, MooError),
}


def _outcome(tokenize, text: str, token_re, error) -> tuple:
    """Every token's kind, text and span fields, or the error's class,
    message and span fields."""
    try:
        toks = tokenize(text, "in.txt", token_re, error)
    except ParseError as exc:
        s = exc.span
        return ("error", type(exc).__name__, str(exc),
                (s.file, s.line, s.column, s.length))
    return ("tokens", [(t.kind, t.text, t.span.file, t.span.line,
                        t.span.column, t.span.length) for t in toks])


def _assert_same(text: str, front_end: str) -> tuple:
    reference_re, token_re, error = _FRONT_ENDS[front_end]
    want = _outcome(_reference_tokenize, text, reference_re, error)
    got = _outcome(syntax._tokenize, text, token_re, error)
    assert got == want, f"{front_end} tokens of {text!r} differ"
    return got


@pytest.mark.parametrize("front_end", sorted(_FRONT_ENDS))
def test_every_sample_tokenizes_as_the_reference_does(front_end):
    # Each sample under both alphabets: the other one's lexemes are errors.
    outcomes = [_assert_same(path.read_text(), front_end)
                for path in sorted(SAMPLES.iterdir())]
    assert any(o[0] == "tokens" and len(o[1]) > 50 for o in outcomes)


# Pieces of random inputs: lexemes of each alphabet, whitespace that ``\s``
# matches (only ``\n`` starts a line), comments of both front ends, and
# characters that start no lexeme of one alphabet or of both.
_LEXEMES = {
    "lp": [":-", "?-", "\\/", "0", "42", "\u0663", "p", "from", "x$1", "X",
           "_", "_A0", "Tail", "(", ")", "[", "]", ",", "|", ".", ":"],
    "moo": ["0", "17", "x", "EList", "addLast", "a_1", "class", "<=", "{",
            "}", "(", ")", ";", ",", ".", "=", "-"],
}
_SPACES = [" ", "  ", "\t", "\n", "\r\n", "\n\n", "\f", "\v", "\x85",
           "\xa0", "\u2028", "\u3000", " \t\r\n "]
_COMMENTS = ["% note", "%", "%%\t", "// note", "//", "/", "% a\r"]
_BAD = ["#", "?", "$", "\xe9", "@", "+", "<", "!", "\x00", "\\", "'"]


def _random_text(rng: random.Random, front_end: str) -> str:
    pieces = []
    for _ in range(rng.randrange(40)):
        r = rng.random()
        if r < 0.5:
            pieces.append(rng.choice(_LEXEMES[front_end]))
        elif r < 0.8:
            pieces.append(rng.choice(_SPACES))
        elif r < 0.95:
            pieces.append(rng.choice(_COMMENTS))
            if rng.random() < 0.7:
                pieces.append(rng.choice(["\n", "\r\n"]))
        else:
            pieces.append(rng.choice(_BAD))
    return "".join(pieces)


@pytest.mark.parametrize("front_end", sorted(_FRONT_ENDS))
def test_random_text_tokenizes_as_the_reference_does(front_end):
    rng = random.Random(20290)
    kinds = {"tokens": 0, "error": 0}
    for _ in range(4000):
        kinds[_assert_same(_random_text(rng, front_end), front_end)[0]] += 1
    # Both outcomes are common, so both paths are compared.
    assert min(kinds.values()) > 500, kinds


@pytest.mark.parametrize("text", [
    "", "\n", "% only", "p. % no newline", "p.\r\n", "\n\n\t#", "a\n\n",
    "// only", "x // no newline", " \n #", "p(\xe9)", "\t\x85?",
])
def test_edges_tokenize_as_the_reference_does(text):
    for front_end in _FRONT_ENDS:
        _assert_same(text, front_end)


@pytest.mark.parametrize("n", [250, 2000])
def test_a_goal_builds_a_span_per_node_not_per_token(monkeypatch, n):
    # ``len([a, ..., a], N)`` has 2n + 7 tokens, eof included, and n + 3
    # spans that nodes keep: len's, the opening bracket's (shared by every
    # list cell), each a's and N's.  Punctuation that no node keeps builds
    # no span.
    built = []

    def counting(*args):
        built.append(None)
        return SourceSpan(*args)

    monkeypatch.setattr(syntax, "SourceSpan", counting)
    parse_goal("len([" + ", ".join(["a"] * n) + "], N)")
    assert len(built) <= n + 8

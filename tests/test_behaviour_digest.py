"""Behaviour digest: one SHA-256 per case of what hornlog computes.

The golden file ``tests/golden/behaviour.json`` maps each case name to the
SHA-256 of the case's rendered text.  A refactor that means to change no
behaviour must leave every digest as it is.  On a mismatch the test prints
the first differing case, with its input and its current output.

Cases:

* ``term/<i>``: seeded random rational terms (six variables, each bound to
  a random term, to a variable, or left free) and a few hand-built deep,
  shared and cyclic ones.  Each records ``has_cycle``; ``to_mu`` (root and
  equations, in order); ``resolve`` at depths 0, 1 and 2, as a structure
  and printed flat, nested and marked; and the ``canon_key`` partition:
  the index of the first case whose key equals this term's key, and that
  of its ``from_mu(to_mu(...))`` copy.  So the shape of a key is not
  pinned, only which terms it equates.
* ``program/<i>``: seeded ``genprog`` programs and goals.  ``sld`` and
  ``colp`` run traced with certificates, ``sres`` runs traced; every
  answer is printed in all three styles; and ``productivity_report``.
* ``oracle/<sample>/<mode>/<flags>``: ``hornlog oracle`` up, down and
  lemmas on every ``.lp`` sample, exit code and both streams.

No case reads ``Compound.fp`` or anything else that depends on ``hash``
salting.  A change that means to alter behaviour regenerates the file with

    PYTHONPATH=src python tests/test_behaviour_digest.py --regenerate

and lists every changed case.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

from genprog import (
    random_atom,
    random_program,
    random_terminating_program,
    random_terminating_query,
)

from hornlog.cli import main
from hornlog.engine import (
    Budget,
    colp_solve,
    productivity_report,
    sld_solve,
    sres_solve,
)
from hornlog.syntax import PrintError, atom_text, print_answer, term_text
from hornlog.terms import (
    EMPTY_ENV,
    BindingEnv,
    Compound,
    Goal,
    Var,
    canon_key,
    const,
    from_mu,
    has_cycle,
    mklist,
    resolve,
    term_vars,
    to_mu,
)

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "behaviour.json"
SAMPLES = HERE.parent / "samples"

RANDOM_TERMS = 1500
RANDOM_PROGRAMS = 150
TERMINATING_PROGRAMS = 50
BUDGET = Budget(max_steps=150, max_depth=25, max_rewrite_steps=60,
                max_subst_steps=40, max_answers=4)

# ---------------------------------------------------------------------------
# Rational terms

_VARS = [f"X{i}" for i in range(6)]
_FUNCS = [("f", 1), ("g", 2), (".", 2), ("\\/", 2), ("fld", 2)]
_CONSTS = ["a", "b", "[]"]


def _random_term(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Var(rng.choice(_VARS))
        return const(rng.choice(_CONSTS))
    name, arity = rng.choice(_FUNCS)
    return Compound(name, tuple(_random_term(rng, depth - 1)
                                for _ in range(arity)))


def _random_rational(rng: random.Random):
    bindings = {}
    for name in _VARS:
        r = rng.random()
        if r < 0.5:
            bindings[name] = _random_term(rng, 3)
        elif r < 0.6:
            bindings[name] = Var(rng.choice(_VARS))
    return BindingEnv(bindings), _random_term(rng, 3)


def _built_terms():
    """Deep, shared and cyclic terms that random draws rarely reach."""
    s = const("0")
    for _ in range(60):
        s = Compound("s", (s,))
    dag = const("a")
    for _ in range(6):
        dag = Compound("f", (dag, dag))
    ring = {f"R{i}": Compound("n", (const(str(i % 3)), Var(f"R{i + 1}")))
            for i in range(39)}
    ring["R39"] = Compound("n", (const("0"), Var("R0")))
    return [
        (EMPTY_ENV, mklist([const("a")] * 80)),
        (EMPTY_ENV, mklist([const(str(i)) for i in range(80)], Var("T"))),
        (EMPTY_ENV, s),
        (EMPTY_ENV, dag),
        (BindingEnv(ring), Var("R0")),
        (BindingEnv(ring), Compound("pair", (Var("R0"), Var("R7")))),
        (BindingEnv({"X": Compound("cons", (const("0"), Var("X")))}),
         mklist([Var("X"), Var("X")])),
        (BindingEnv({"U": Compound("f", (Var("W"),)),
                     "W": Compound("g", (Var("U"),))}),
         Compound("pair", (Var("U"), Var("W")))),
    ]


def _bindings_text(env: BindingEnv) -> str:
    return ", ".join(f"{n} = {term_text(t)}"
                     for n, t in sorted(env.bindings.items()))


def term_cases() -> dict:
    rng = random.Random(20171)
    inputs = [_random_rational(rng) for _ in range(RANDOM_TERMS)]
    inputs += _built_terms()
    first_with_key: dict = {}
    cases = {}
    for i, (env, t) in enumerate(inputs):
        lines = [f"input {term_text(t)} under {{{_bindings_text(env)}}}",
                 f"has_cycle {has_cycle(env, t)}"]
        m = to_mu(env, t)
        lines.append(f"to_mu {m!r}")
        for depth in (0, 1, 2):
            r = resolve(env, t, depth)
            marked = {v.name for v in term_vars(r)}
            lines += [f"resolve {depth} {r!r}",
                      f"  flat {term_text(r)}",
                      f"  nested {term_text(r, nested_lists=True)}",
                      f"  marked {term_text(r, nested_lists=True, marked=marked)}"]
        copy, copy_env = from_mu(m, EMPTY_ENV)
        classes = [first_with_key.setdefault(canon_key(x, e), i)
                   for x, e in ((t, env), (copy, copy_env))]
        lines.append(f"canon_key class {classes}")
        cases[f"term/{i}"] = "\n".join(lines)
    return cases


# ---------------------------------------------------------------------------
# Programs


def _answer_text(answer) -> list:
    lines = [f"answer {answer.kind} after {answer.steps_used} steps"]
    lines += [f"  {line}" for line in answer.trace or ()]
    for style in ("flat", "mu", "lazy"):
        try:
            text = print_answer(answer, style, 2)
        except PrintError as exc:
            text = f"PrintError: {exc}"
        lines.append(f"  {style}: {text}")
    if answer.selected is not None:
        lines.append("  selected " + "; ".join(atom_text(a)
                                             for a in answer.selected))
        lines.append(f"  full_env {{{_bindings_text(answer.full_env)}}}")
    return lines


def _verdict_text(name: str, verdict) -> list:
    lines = [f"{name} {verdict.kind} after {verdict.steps_used} steps"]
    lines += [f"  witness {line}" for line in verdict.witness or ()]
    for answer in verdict.answers:
        lines += _answer_text(answer)
    return lines


def _program_text(program, goal) -> str:
    lines = [f"program {atom_text(c.head)} :- "
             + ", ".join(atom_text(a) for a in c.body)
             for c in program.clauses]
    lines.append("goal " + ", ".join(atom_text(a) for a in goal.atoms))
    lines += _verdict_text("sld", sld_solve(goal, program, BUDGET, trace=True,
                                            certificate=True))
    lines += _verdict_text("colp", colp_solve(goal, program, BUDGET,
                                              trace=True, certificate=True))
    lines += _verdict_text("sres", sres_solve(goal, program, BUDGET, lazy_k=2,
                                              trace=True))
    report = productivity_report(goal, program, BUDGET)
    lines.append(f"productivity {report.observable} {report.liveness} "
                 f"{sorted(report.produced.items())}")
    lines += [f"  witness {line}" for line in report.witness or ()]
    return "\n".join(lines)


def program_cases() -> dict:
    rng = random.Random(20172)
    pairs = [(random_program(rng), Goal((random_atom(rng),)))
             for _ in range(RANDOM_PROGRAMS)]
    for _ in range(TERMINATING_PROGRAMS):
        p = random_terminating_program(rng)
        pairs.append((p, random_terminating_query(rng, p)))
    return {f"program/{i}": _program_text(p, g)
            for i, (p, g) in enumerate(pairs)}


# ---------------------------------------------------------------------------
# The oracle command

# The defaults on from.lp take several seconds, so it runs only the small
# fragments.
_ORACLE_FLAGS = [(), ("-n", "3", "-d", "1", "-c", "1"),
                 ("-n", "3", "-d", "2", "-c", "0")]


def oracle_cases() -> dict:
    cases = {}
    for sample in sorted(SAMPLES.glob("*.lp")):
        for flags in _ORACLE_FLAGS:
            if not flags and sample.stem == "from":
                continue
            for mode in ("up", "down", "lemmas"):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = main(["oracle", str(sample), mode, *flags])
                name = f"oracle/{sample.stem}/{mode}/{' '.join(flags)}"
                cases[name] = (f"exit {code}\n-- stdout\n{out.getvalue()}"
                               f"-- stderr\n{err.getvalue()}")
    return cases


# ---------------------------------------------------------------------------


def all_cases() -> dict:
    return {**term_cases(), **program_cases(), **oracle_cases()}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_behaviour_digest():
    golden = json.loads(GOLDEN.read_text())
    cases = all_cases()
    assert list(cases) == list(golden), "the set of cases changed"
    for name, text in cases.items():
        if _digest(text) != golden[name]:
            raise AssertionError(
                f"first differing case: {name}\n-- now --\n{text}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    GOLDEN.parent.mkdir(exist_ok=True)
    digests = {name: _digest(text) for name, text in all_cases().items()}
    GOLDEN.write_text(json.dumps(digests, indent=0) + "\n")
    print(f"wrote {len(digests)} cases to {GOLDEN}")

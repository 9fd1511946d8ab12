"""End-to-end tests through the console entry point.

Everything runs in-process via ``main(argv)`` so exit codes and both output
streams stay observable.  The golden outputs here are part of the
interface: scripts are expected to parse them.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hornlog import cli, fixpoint
from hornlog.cli import main
from hornlog.syntax import parse_program, parse_trace_line

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

ZEROS = str(SAMPLES / "zeros.lp")
FROM = str(SAMPLES / "from.lp")
EX3 = str(SAMPLES / "ex3.lp")
SUBCLASS = str(SAMPLES / "subclass.lp")
LISTS = str(SAMPLES / "lists.moo")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# solve


def test_solve_colp_zeros_golden(capsys):
    code, out, err = run(capsys, "solve", ZEROS, "?- zeros(X).",
                         "--engine", "colp")
    assert code == 0
    assert out == "X = cons(0, X)\n"


def test_solve_sld_zeros_exhausts(capsys):
    code, out, err = run(capsys, "solve", ZEROS, "?- zeros(X).")
    assert code == 2
    assert out == ""
    assert "budget exhausted" in err


def test_solve_sres_q_not_observable(capsys):
    code, out, err = run(capsys, "solve", EX3, "?- q(X).", "--engine", "sres")
    assert code == 2
    assert "not universally observable" in err


def test_solve_sres_from_partial(capsys):
    code, out, err = run(capsys, "solve", FROM, "?- from(0, X).",
                         "--engine", "sres")
    assert code == 0
    assert re.fullmatch(
        r"X = \[0\|\[s\(0\)\|\[s\(s\(0\)\)\|\w+\?\]\]\]  % partial\n", out)


def test_one_answer_verdict_prints_without_an_answer_key(capsys,
                                                          monkeypatch):
    # Keys only tell duplicates apart, and a lone answer has none.
    def no_key(*args):
        raise AssertionError("canon_key called")

    monkeypatch.setattr(cli, "canon_key", no_key)
    code, out, err = run(capsys, "solve", FROM, "from(0, X)",
                         "--engine", "sres", "--lazy-k", "3")
    assert code == 0
    assert out == "X = [0|[s(0)|[s(s(0))|V9?]]]  % partial\n"


def test_a_usage_error_leaves_the_next_command_working(capsys):
    # main builds its argument parser once per process and reuses it
    assert run(capsys, "solve", ZEROS, "zeros(X)", "--engine", "bogus")[0] == 3
    assert run(capsys, "check", ZEROS, "zeros(X)", "--max-steps", "0")[0] == 3
    code, out, err = run(capsys, "solve", ZEROS, "zeros(X)",
                         "--engine", "colp")
    assert (code, out, err) == (0, "X = cons(0, X)\n", "")
    assert cli._build_parser() is cli._build_parser()


def test_solve_failed_goal(capsys):
    code, out, err = run(capsys, "solve", SUBCLASS, "?- subclass(b, a).")
    assert code == 1
    assert out == "no.\n"


def test_solve_enumerates_distinct_answers(capsys):
    code, out, err = run(capsys, "solve", SUBCLASS, "?- subclass(X, object).")
    assert code == 0
    assert out.splitlines() == ["X = object", "X = a"]


def test_solve_trace_lines_reparse(capsys):
    code, out, err = run(capsys, "solve", SUBCLASS, "?- subclass(a, object).",
                         "--trace", "--max-answers", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "true"
    assert len(lines) > 1
    for line in lines[:-1]:
        parsed = parse_trace_line(line)
        assert parsed["kind"] in ("sld", "hyp", "rw", "su")


def test_solve_sres_trace_lines_reparse(capsys):
    # A ground goal rewrites to success outright; a goal variable forces
    # substitution steps into the trace.
    code, out, err = run(capsys, "solve", SUBCLASS, "?- subclass(X, object).",
                         "--engine", "sres", "--trace", "--max-answers", "1")
    assert code == 0
    kinds = [parse_trace_line(l)["kind"] for l in out.splitlines()[:-1]]
    assert set(kinds) <= {"rw", "su"}
    assert "su" in kinds


def test_solve_transform_recovers_subclass_answers(capsys):
    code, out, err = run(capsys, "solve", SUBCLASS, "?- subclass(X, object).",
                         "--engine", "sres", "--transform", "--style", "flat")
    assert code == 0
    assert "X = object" in out and "X = a" in out


def test_solve_style_lazy_unfolds_cycles(capsys):
    code, out, err = run(capsys, "solve", ZEROS, "?- zeros(X).",
                         "--engine", "colp", "--style", "lazy",
                         "--unfold", "2")
    assert code == 0
    assert out == "X = cons(0, cons(0, X?))\n"


def test_solve_flat_style_rejects_rational_answer(capsys):
    code, out, err = run(capsys, "solve", ZEROS, "?- zeros(X).",
                         "--engine", "colp", "--style", "flat")
    assert code == 3
    assert "flat" in err


def test_solve_occurs_check_note_for_colp(capsys):
    code, out, err = run(capsys, "solve", ZEROS, "?- zeros(X).",
                         "--engine", "colp", "--occurs-check", "on")
    assert code == 0
    assert "fixed off" in err


@pytest.mark.parametrize("argv, flag, engine", [
    (["solve", FROM, "from(0, X)", "--engine", "sres", "--lazy-k", "3"],
     "--max-depth", "sres"),
    (["solve", ZEROS, "zeros(X)", "--engine", "colp"],
     "--max-subst-steps", "colp"),
    (["solve", ZEROS, "zeros(X)", "--engine", "colp"], "--lazy-k", "colp"),
    (["infer", LISTS, "new EList().addLast(i)", "--assume", "i=int"],
     "--max-depth", "sres"),
    (["infer", LISTS, "new EList().addLast(i)", "--assume", "i=int",
      "--engine", "sld"], "--max-rewrite-steps", "sld"),
    (["infer", LISTS, "new EList().addLast(i)", "--assume", "i=int",
      "--engine", "sld"], "--lazy-k", "sld"),
], ids=["solve-sres", "solve-colp", "solve-colp-lazy-k", "infer-sres",
        "infer-sld", "infer-sld-lazy-k"])
def test_a_cap_the_engine_ignores_is_noted(capsys, argv, flag, engine):
    # the cap changes nothing: same answers and exit code, one note
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert run(capsys, *argv, flag, "1") == (
        code, out, f"note: {flag} does not bind {engine}\n")


def test_a_fragment_over_its_cap_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(fixpoint, "CAP", 3)
    assert run(capsys, "oracle", ZEROS, "up", "-d", "2", "-c", "1") == (
        2, "", "error: fragment cap 3 exceeded\n")


def test_a_universe_built_under_another_cap_is_not_reused(capsys,
                                                          monkeypatch):
    # The universe of zeros.lp at (2, 1) is built under the default cap
    # first; under a cap of 3 the oracle must build, and refuse, its own.
    program = parse_program(Path(ZEROS).read_text())
    assert len(fixpoint.build_fragment(program, 2, 1).universe) > 3
    monkeypatch.setattr(fixpoint, "CAP", 3)
    assert run(capsys, "oracle", ZEROS, "up", "-d", "2", "-c", "1") == (
        2, "", "error: fragment cap 3 exceeded\n")


def test_solve_prints_a_deep_answer(capsys, tmp_path):
    program = tmp_path / "len.lp"
    program.write_text("len([], z).\nlen([_|T], s(N)) :- len(T, N).\n")
    n = 1000
    goal = f"?- len([{', '.join('a' * n)}], N)."
    code, out, err = run(capsys, "solve", str(program), goal,
                         "--max-depth", "2000", "--max-answers", "1")
    assert code == 0, err
    assert out == "N = " + "s(" * n + "z" + ")" * n + "\n"


# Exact text of ``solve --trace`` and of a divergence witness.  Scripts parse
# these lines, so they are interface, not incidental formatting.  colp on
# ``from`` gets a small depth cap: the goal never closes, and the full
# default-budget search takes most of a minute.
GOLDEN = [
    (("solve", ZEROS, "zeros(X)", "--engine", "sld", "--trace"),
     2, "",
     "budget exhausted after 500 steps, no answers\n"),
    (("solve", ZEROS, "zeros(X)", "--engine", "sld", "--trace", "--transform"),
     2, "",
     "budget exhausted after 500 steps, no answers\n"),
    (("solve", ZEROS, "zeros(X)", "--engine", "colp", "--trace"),
     0, "#1 sld clause 1 atom 0 σ={X=cons(0, V0)}\n"
     "#2 hyp clause 1 atom 0 σ={V0=cons(0, cons(0, V0))}\n"
     "X = cons(0, X)\n",
     ""),
    (("solve", ZEROS, "zeros(X)", "--engine", "colp", "--trace", "--transform"),
     0, "#1 sld clause 1 atom 0 σ={K$1=k$1(V1), X=cons(0, V0)}\n"
     "#2 hyp clause 1 atom 0 σ={V0=cons(0, cons(0, V0)), V1=k$1(k$1(V1))}\n"
     "X = cons(0, X)\n",
     ""),
    (("solve", ZEROS, "zeros(X)", "--engine", "sres", "--trace"),
     0, "#1 su clause 1 atom 0 σ={X=cons(0, V0)}\n"
     "#2 rw clause 1 atom 0 σ={V1=V0}\n"
     "#3 su clause 1 atom 0 σ={V0=cons(0, V2)}\n"
     "#4 rw clause 1 atom 0 σ={V3=V2}\n"
     "#5 su clause 1 atom 0 σ={V2=cons(0, V4)}\n"
     "#6 rw clause 1 atom 0 σ={V5=V4}\n"
     "X = cons(0, cons(0, cons(0, V4?)))  % partial\n",
     ""),
    (("solve", ZEROS, "zeros(X)", "--engine", "sres", "--trace", "--transform"),
     0, "#1 su clause 1 atom 0 σ={K$1=k$1(V1), X=cons(0, V0)}\n"
     "#2 rw clause 1 atom 0 σ={V2=V0, V3=V1}\n"
     "#3 su clause 1 atom 0 σ={V0=cons(0, V4), V1=k$1(V5)}\n"
     "#4 rw clause 1 atom 0 σ={V6=V4, V7=V5}\n"
     "#5 su clause 1 atom 0 σ={V4=cons(0, V8), V5=k$1(V9)}\n"
     "#6 rw clause 1 atom 0 σ={V10=V8, V11=V9}\n"
     "X = cons(0, cons(0, cons(0, V8?)))  % partial\n",
     ""),
    (("solve", FROM, "from(0, X)", "--engine", "sld", "--trace"),
     2, "",
     "budget exhausted after 500 steps, no answers\n"),
    (("solve", FROM, "from(0, X)", "--engine", "sld", "--trace", "--transform"),
     2, "",
     "budget exhausted after 500 steps, no answers\n"),
    (("solve", FROM, "from(0, X)", "--engine", "colp", "--trace", "--max-depth", "60"),
     2, "",
     "budget exhausted after 60 steps, no answers\n"),
    (("solve", FROM, "from(0, X)", "--engine", "colp", "--trace", "--transform", "--max-depth", "60"),
     2, "",
     "budget exhausted after 60 steps, no answers\n"),
    (("solve", FROM, "from(0, X)", "--engine", "sres", "--trace"),
     0, "#1 su clause 1 atom 0 σ={V0=0, X=[0|V1]}\n"
     "#2 rw clause 1 atom 0 σ={V2=0, V3=V1}\n"
     "#3 su clause 1 atom 0 σ={V1=[s(0)|V5], V4=s(0)}\n"
     "#4 rw clause 1 atom 0 σ={V6=s(0), V7=V5}\n"
     "#5 su clause 1 atom 0 σ={V5=[s(s(0))|V9], V8=s(s(0))}\n"
     "#6 rw clause 1 atom 0 σ={V10=s(s(0)), V11=V9}\n"
     "X = [0|[s(0)|[s(s(0))|V9?]]]  % partial\n",
     ""),
    (("solve", FROM, "from(0, X)", "--engine", "sres", "--trace", "--transform"),
     0, "#1 su clause 1 atom 0 σ={K$1=k$1(V2), V0=0, X=[0|V1]}\n"
     "#2 rw clause 1 atom 0 σ={V3=0, V4=V1, V5=V2}\n"
     "#3 su clause 1 atom 0 σ={V1=[s(0)|V7], V2=k$1(V8), V6=s(0)}\n"
     "#4 rw clause 1 atom 0 σ={V10=V7, V11=V8, V9=s(0)}\n"
     "#5 su clause 1 atom 0 σ={V12=s(s(0)), V7=[s(s(0))|V13], V8=k$1(V14)}\n"
     "#6 rw clause 1 atom 0 σ={V15=s(s(0)), V16=V13, V17=V14}\n"
     "X = [0|[s(0)|[s(s(0))|V13?]]]  % partial\n",
     ""),
    (("solve", SUBCLASS, "subclass(X, object)", "--engine", "sld", "--trace"),
     0, "#1 sld clause 1 atom 0 σ={V0=object, X=object}\n"
     "#2 sld clause 4 atom 0 σ={}\n"
     "X = object\n"
     "#1 sld clause 2 atom 0 σ={V0=X}\n"
     "#2 sld clause 5 atom 0 σ={X=a}\n"
     "X = a\n",
     ""),
    (("solve", SUBCLASS, "subclass(X, object)", "--engine", "sld", "--trace", "--transform"),
     0, "#1 sld clause 1 atom 0 σ={K$1=k$1(V1), V0=object, X=object}\n"
     "#2 sld clause 4 atom 0 σ={V1=k$4}\n"
     "X = object\n"
     "#1 sld clause 2 atom 0 σ={K$1=k$2(V1), V0=X}\n"
     "#2 sld clause 5 atom 0 σ={V1=k$5, X=a}\n"
     "X = a\n",
     ""),
    (("solve", SUBCLASS, "subclass(X, object)", "--engine", "colp", "--trace"),
     0, "#1 sld clause 1 atom 0 σ={V0=object, X=object}\n"
     "#2 sld clause 4 atom 0 σ={}\n"
     "X = object\n"
     "#1 sld clause 2 atom 0 σ={V0=X}\n"
     "#2 sld clause 5 atom 0 σ={X=a}\n"
     "X = a\n",
     ""),
    (("solve", SUBCLASS, "subclass(X, object)", "--engine", "colp", "--trace", "--transform"),
     0, "#1 sld clause 1 atom 0 σ={K$1=k$1(V1), V0=object, X=object}\n"
     "#2 sld clause 4 atom 0 σ={V1=k$4}\n"
     "X = object\n"
     "#1 sld clause 2 atom 0 σ={K$1=k$2(V1), V0=X}\n"
     "#2 sld clause 5 atom 0 σ={V1=k$5, X=a}\n"
     "X = a\n",
     ""),
    (("solve", SUBCLASS, "subclass(X, object)", "--engine", "sres", "--trace"),
     0, "#1 rw clause 2 atom 0 σ={V0=X}\n"
     "#2 su clause 4 atom 0 σ={X=object}\n"
     "#3 rw clause 4 atom 0 σ={}\n"
     "X = object\n"
     "#1 rw clause 2 atom 0 σ={V0=X}\n"
     "#2 su clause 5 atom 0 σ={X=a}\n"
     "#3 rw clause 5 atom 0 σ={}\n"
     "X = a\n",
     ""),
    (("solve", SUBCLASS, "subclass(X, object)", "--engine", "sres", "--trace", "--transform"),
     0, "#1 su clause 1 atom 0 σ={K$1=k$1(V1), V0=object, X=object}\n"
     "#2 rw clause 1 atom 0 σ={V2=object, V3=V1}\n"
     "#3 su clause 4 atom 0 σ={V1=k$4}\n"
     "#4 rw clause 4 atom 0 σ={}\n"
     "X = object\n"
     "#1 su clause 2 atom 0 σ={K$1=k$2(V1), V0=X}\n"
     "#2 rw clause 2 atom 0 σ={V2=X, V3=V1}\n"
     "#3 su clause 5 atom 0 σ={V1=k$5, X=a}\n"
     "#4 rw clause 5 atom 0 σ={}\n"
     "X = a\n"
     "#1 su clause 3 atom 0 σ={K$1=k$3(V2, V3), V0=X, V1=object}\n"
     "#2 rw clause 3 atom 0 σ={V5=X, V6=object, V7=V2, V8=V3}\n"
     "#3 su clause 6 atom 0 σ={V2=k$6, V9=object, X=a}\n"
     "#4 rw clause 6 atom 0 σ={}\n"
     "#5 su clause 1 atom 0 σ={V10=object, V3=k$1(V11)}\n"
     "#6 rw clause 1 atom 0 σ={V12=object, V13=V11}\n"
     "X = a  % partial\n",
     ""),
    (("solve", EX3, "p(X)", "--engine", "sld", "--trace"),
     2, "",
     "budget exhausted after 500 steps, no answers\n"),
    (("solve", EX3, "p(X)", "--engine", "sld", "--trace", "--transform"),
     2, "",
     "budget exhausted after 500 steps, no answers\n"),
    (("solve", EX3, "p(X)", "--engine", "colp", "--trace"),
     0, "#1 sld clause 1 atom 0 σ={X=f(V0)}\n"
     "#2 hyp clause 1 atom 0 σ={V0=f(f(V0))}\n"
     "X = f(X)\n",
     ""),
    (("solve", EX3, "p(X)", "--engine", "colp", "--trace", "--transform"),
     0, "#1 sld clause 1 atom 0 σ={K$1=k$1(V1), X=f(V0)}\n"
     "#2 hyp clause 1 atom 0 σ={V0=f(f(V0)), V1=k$1(k$1(V1))}\n"
     "X = f(X)\n",
     ""),
    (("solve", EX3, "p(X)", "--engine", "sres", "--trace"),
     0, "#1 su clause 1 atom 0 σ={X=f(V0)}\n"
     "#2 rw clause 1 atom 0 σ={V1=V0}\n"
     "#3 su clause 1 atom 0 σ={V0=f(V2)}\n"
     "#4 rw clause 1 atom 0 σ={V3=V2}\n"
     "#5 su clause 1 atom 0 σ={V2=f(V4)}\n"
     "#6 rw clause 1 atom 0 σ={V5=V4}\n"
     "X = f(f(f(V4?)))  % partial\n",
     ""),
    (("solve", EX3, "p(X)", "--engine", "sres", "--trace", "--transform"),
     0, "#1 su clause 1 atom 0 σ={K$1=k$1(V1), X=f(V0)}\n"
     "#2 rw clause 1 atom 0 σ={V2=V0, V3=V1}\n"
     "#3 su clause 1 atom 0 σ={V0=f(V4), V1=k$1(V5)}\n"
     "#4 rw clause 1 atom 0 σ={V6=V4, V7=V5}\n"
     "#5 su clause 1 atom 0 σ={V4=f(V8), V5=k$1(V9)}\n"
     "#6 rw clause 1 atom 0 σ={V10=V8, V11=V9}\n"
     "X = f(f(f(V8?)))  % partial\n",
     ""),
    (("solve", EX3, "q(X)", "--engine", "sld", "--trace"),
     2, "",
     "budget exhausted after 500 steps, no answers\n"),
    (("solve", EX3, "q(X)", "--engine", "sld", "--trace", "--transform"),
     2, "",
     "budget exhausted after 500 steps, no answers\n"),
    (("solve", EX3, "q(X)", "--engine", "colp", "--trace"),
     0, "#1 sld clause 2 atom 0 σ={V0=X}\n"
     "#2 hyp clause 1 atom 0 σ={}\n"
     "true\n",
     ""),
    (("solve", EX3, "q(X)", "--engine", "colp", "--trace", "--transform"),
     0, "#1 sld clause 2 atom 0 σ={K$1=k$2(V1), V0=X}\n"
     "#2 hyp clause 1 atom 0 σ={V1=k$2(k$2(V1))}\n"
     "true\n",
     ""),
    (("solve", EX3, "q(X)", "--engine", "sres", "--trace"),
     2, "",
     "not universally observable: a rewriting phase diverged\n"
     + "q(X)\n" * 9),
    (("solve", EX3, "q(X)", "--engine", "sres", "--trace", "--transform"),
     0, "#1 su clause 2 atom 0 σ={K$1=k$2(V1), V0=X}\n"
     "#2 rw clause 2 atom 0 σ={V2=X, V3=V1}\n"
     "#3 su clause 2 atom 0 σ={V1=k$2(V5), V4=X}\n"
     "#4 rw clause 2 atom 0 σ={V6=X, V7=V5}\n"
     "#5 su clause 2 atom 0 σ={V5=k$2(V9), V8=X}\n"
     "#6 rw clause 2 atom 0 σ={V10=X, V11=V9}\n"
     "true  % partial\n",
     ""),
    (("solve", SUBCLASS, "subclass(a, object)", "--engine", "sres", "--trace"),
     0, "#1 rw clause 2 atom 0 σ={V0=a}\n"
     "#2 rw clause 5 atom 0 σ={}\n"
     "true\n",
     ""),
    (("solve", EX3, "q(X)", "--engine", "sres", "--max-rewrite-steps", "40"),
     2, "",
     "not universally observable: a rewriting phase diverged\n"
     + "q(X)\n" * 9),
]


def _golden_id(argv):
    return "-".join(a.lstrip("-") for a in argv[2:]
                    if a not in ("--engine", "--trace"))


@pytest.mark.parametrize("argv, code, out, err", GOLDEN,
                         ids=[_golden_id(case[0]) for case in GOLDEN])
def test_solve_golden_text(capsys, argv, code, out, err):
    assert run(capsys, *argv) == (code, out, err)


# ---------------------------------------------------------------------------
# compile / infer


def test_compile_output_reparses(capsys):
    code, out, err = run(capsys, "compile", LISTS)
    assert code == 0
    program = parse_program(out)
    assert "% provenance: runtime" in out
    assert re.search(r"% provenance: .*lists\.moo:\d+:\d+", out)
    assert any(c.head.pred == "hasmeth" for c in program.clauses)


def test_compile_to_file(tmp_path, capsys):
    target = tmp_path / "lists.lp"
    code, out, err = run(capsys, "compile", LISTS, "-o", str(target))
    assert code == 0 and out == ""
    assert any(c.head.pred == "ctor"
               for c in parse_program(target.read_text()).clauses)


def test_infer_addlast_golden(capsys):
    code, out, err = run(capsys, "infer", LISTS, "new EList().addLast(i)",
                         "--engine", "sld", "--assume", "i=int",
                         "--max-answers", "1")
    assert code == 0
    assert out == ("R = obj(elist, []), "
                   "T = obj(nelist, [head:int, tail:obj(elist, [])])\n")


def test_infer_heterogeneous_field_access(capsys):
    code, out, err = run(capsys, "infer", LISTS,
                         "new EList().addLast(42).addLast(false).head",
                         "--engine", "sld", "--max-answers", "1")
    assert code == 0
    assert out.splitlines()[0].endswith("F = int")


def test_infer_replicate_colp_rational(capsys):
    code, out, err = run(capsys, "infer", LISTS,
                         "new ListFact().replicate(n, x)",
                         "--engine", "colp", "--assume", "n=int",
                         "--assume", "x=int", "--max-answers", "1")
    assert code == 0
    assert ("T = obj(elist, []) \\/ obj(nelist, [head:int, tail:T])"
            in out)


def test_colp_keys_one_answer_environment_once(capsys, monkeypatch):
    # The 8-call chain under colp ends in ten equal answers, nine of them
    # on one branch whose last atom closes on several ancestors binding
    # nothing; the CLI keyed all ten to print one.
    calls = 0
    real = cli.canon_key

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(cli, "canon_key", counting)
    code, out, err = run(capsys, "infer", LISTS,
                         "new EList()" + ".addLast(1)" * 8,
                         "--engine", "colp")
    types = ["obj(elist, [])"]
    for _ in range(8):
        types.append(f"obj(nelist, [head:int, tail:{types[-1]}])")
    names = ["R", "T"] + [f"T{i}" for i in range(2, 9)]
    assert (code, err) == (0, "")
    assert out == ", ".join(f"{n} = {t}" for n, t in zip(names, types)) + "\n"
    assert calls <= 3


def test_infer_default_engine_is_sres(capsys):
    code, out, err = run(capsys, "infer", LISTS, "new EList().addLast(i)",
                         "--assume", "i=int", "--lazy-k", "64",
                         "--max-answers", "1")
    assert code == 0
    assert "T = obj(nelist, [head:int, tail:obj(elist, [])])" in out


def test_infer_bad_assumption_is_usage_error(capsys):
    code, out, err = run(capsys, "infer", LISTS, "new EList()",
                         "--assume", "noequals")
    assert code == 3
    assert "NAME=TYPE" in err


def test_infer_reads_a_deep_expression(capsys):
    n = 300
    code, out, err = run(capsys, "infer", LISTS,
                         "(" * n + "new EList()" + ")" * n)
    assert code == 0, err
    assert out == "R = obj(elist, [])\n"


def test_infer_compiles_a_long_call_chain(capsys):
    code, out, err = run(capsys, "infer", LISTS,
                         "new EList()" + ".addLast(1)" * 1200,
                         "--engine", "sld")
    assert code in (0, 1, 2), err
    assert "Traceback" not in out + err and "internal error" not in err


def test_infer_moo_parse_error_has_span(capsys, tmp_path):
    bad = tmp_path / "bad.moo"
    bad.write_text("class C extends Object { 42 }")
    code, out, err = run(capsys, "infer", str(bad), "new C()")
    assert code == 3
    assert "bad.moo:1:" in err


# ---------------------------------------------------------------------------
# transform / check


def test_transform_stdout_has_kappa_table(capsys):
    code, out, err = run(capsys, "transform", EX3)
    assert code == 0
    assert "p(f(X), k$1(X$1)) :- p(X, X$1)." in out
    assert "k$1 -> p(f(X))" in out
    assert "k$2 -> q(X)" in out


def test_transform_to_file_writes_sidecar(tmp_path, capsys):
    target = tmp_path / "out.lp"
    code, out, err = run(capsys, "transform", EX3, "-o", str(target))
    assert code == 0 and out == ""
    program = parse_program(target.read_text())
    assert all(len(c.head.args) == 2 for c in program.clauses)
    sidecar = (tmp_path / "out.kappa").read_text().splitlines()
    assert sidecar == ["k$1 -> p(f(X))", "k$2 -> q(X)"]


def test_transform_twice_is_an_error(tmp_path, capsys):
    target = tmp_path / "once.lp"
    assert run(capsys, "transform", EX3, "-o", str(target))[0] == 0
    code, out, err = run(capsys, "transform", str(target))
    assert code == 3
    assert "k$" in err


def test_check_zeros_is_productive(capsys):
    code, out, err = run(capsys, "check", ZEROS, "?- zeros(X).")
    assert code == 0
    assert "universally observable: yes" in out
    assert re.search(r"liveness: \d+ substitution steps", out)
    assert "cons" in out


def test_check_from_deep_stream_is_productive(capsys):
    # Each substitution step adds a cell to the stream, so after 1000 of
    # them the goal is far deeper than the interpreter's recursion limit;
    # the check renders goals only for a divergence witness.
    code, out, err = run(capsys, "check", FROM, "from(0, X)")
    assert (code, out, err) == (
        0,
        "universally observable: yes\n"
        "liveness: 1000 substitution steps witnessed\n"
        "produced constructors: .:1000\n",
        "")


def test_check_q_fails_with_witness(capsys):
    code, out, err = run(capsys, "check", EX3, "?- q(X).")
    assert code == 1
    assert "universally observable: no" in out
    assert "q(X)" in err


@pytest.mark.parametrize("flag", ["--max-depth", "--max-answers"])
def test_check_refuses_the_caps_it_would_ignore(capsys, flag):
    # productivity_report explores without a depth or an answer cap
    code, out, err = run(capsys, "check", ZEROS, "zeros(X)", flag, "1")
    assert code == 3
    assert out == ""
    assert f"unrecognized arguments: {flag} 1" in err


# ---------------------------------------------------------------------------
# oracle


def test_oracle_up_zeros_all_empty(capsys):
    code, out, err = run(capsys, "oracle", ZEROS, "up", "-n", "2",
                         "-d", "1", "-c", "0")
    assert code == 0
    assert out.splitlines() == ["-- n=0", "-- n=1", "-- n=2"]
    assert "fixed point reached" in err


def test_oracle_down_zeros_singleton_limit(capsys):
    code, out, err = run(capsys, "oracle", ZEROS, "down", "-n", "3",
                         "-d", "2", "-c", "1")
    assert code == 0
    sections = out.split("-- n=")
    last = [l for l in sections[-1].splitlines()[1:] if l]
    assert len(last) == 1
    assert re.fullmatch(r"zeros\((\w+)\)  where \1 = cons\(0, \1\)", last[0])


def test_oracle_lemmas_subclass_holds(capsys):
    code, out, err = run(capsys, "oracle", SUBCLASS, "lemmas", "-n", "4",
                         "-d", "1", "-c", "1")
    assert code == 0
    assert out.startswith("holds (stages=4")


# ---------------------------------------------------------------------------
# plumbing


def test_missing_file_is_usage_error(capsys):
    code, out, err = run(capsys, "solve", "nowhere.lp", "?- a.")
    assert code == 3
    assert "cannot read" in err


@pytest.mark.parametrize("argv", [["compile", LISTS], ["transform", EX3]],
                         ids=["compile", "transform"])
def test_output_into_a_missing_directory_is_usage_error(capsys, tmp_path,
                                                        argv):
    target = tmp_path / "missing" / "out.lp"
    code, out, err = run(capsys, *argv, "-o", str(target))
    assert code == 3 and out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.parent.exists()


def test_lp_parse_error_reports_span(capsys, tmp_path):
    bad = tmp_path / "bad.lp"
    bad.write_text("p(X :- q.")
    code, out, err = run(capsys, "solve", str(bad), "?- p(X).")
    assert code == 3
    assert "bad.lp:1:" in err


@pytest.mark.parametrize("argv", [
    ("solve", "x.lp", "?- a.", "--engine", "prolog"),
    ("oracle", "x.lp", "sideways"),
    ("frobnicate",),
    ("solve", "x.lp", "?- a.", "--max-steps", "-3"),
    (),
    ("oracle", ZEROS, "up", "-d", "-1"),
    ("oracle", ZEROS, "up", "-c", "-1"),
])
def test_bad_usage_exits_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert err


def test_internal_error_exits_4(capsys, monkeypatch):
    def crash(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("hornlog.cli.sld_solve", crash)
    code, out, err = run(capsys, "solve", ZEROS, "?- zeros(X).")
    assert code == 4
    assert out == ""
    assert err.splitlines() == [
        "error: internal error: RecursionError: "
        "maximum recursion depth exceeded"]


def test_an_internal_value_error_exits_4(capsys, monkeypatch):
    # No command-line input reaches a ValueError inside hornlog, so one that
    # escapes is hornlog's own failure, not a usage error.
    def crash(*args, **kwargs):
        raise ValueError("x")

    monkeypatch.setattr("hornlog.cli.sld_solve", crash)
    code, out, err = run(capsys, "solve", ZEROS, "?- zeros(X).")
    assert (code, out) == (4, "")
    assert err.splitlines() == ["error: internal error: ValueError: x"]


def test_a_nul_byte_in_a_path_is_a_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "solve", ZEROS + "\0", "zeros(X)")
    assert (code, out) == (3, "")
    assert err.startswith(f"error: cannot read {ZEROS}\\x00: ")
    assert "\0" not in err
    code, out, err = run(capsys, "transform", ZEROS,
                         "-o", str(tmp_path / "out.lp") + "\0")
    assert (code, out) == (3, "")
    assert err.startswith(f"error: cannot write {tmp_path}/out.lp\\x00: ")
    assert "\0" not in err


def test_solve_reads_a_deep_goal(capsys, tmp_path):
    program = tmp_path / "len.lp"
    program.write_text("len([], z).\nlen([_|T], s(N)) :- len(T, N).\n")
    n = 1000
    goal = "?- len(L, " + "s(" * n + "z" + ")" * n + ")."
    code, out, err = run(capsys, "solve", str(program), goal,
                         "--max-depth", "2000", "--max-answers", "1")
    assert code == 0, err
    assert out.startswith("L = [") and out.count(",") == n - 1


def _solve_traced_zeros(encoding: str) -> subprocess.CompletedProcess:
    """``hornlog solve zeros.lp "zeros(X)" --engine colp --trace`` in a
    child process whose standard streams use ``encoding``."""
    root = SAMPLES.parent
    env = {**os.environ, "PYTHONIOENCODING": encoding,
           "PYTHONPATH": os.pathsep.join(filter(None, [
               str(root / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "hornlog.cli", "solve", ZEROS, "zeros(X)",
         "--engine", "colp", "--trace"],
        env=env, capture_output=True, timeout=60)


def test_a_trace_escapes_what_the_output_encoding_lacks():
    # latin-1 has no sigma: it is written as a backslash escape, not a crash.
    done = _solve_traced_zeros("latin-1")
    assert (done.returncode, done.stderr) == (0, b"")
    lines = done.stdout.decode("latin-1").splitlines()
    assert lines[0] == "#1 sld clause 1 atom 0 \\u03c3={X=cons(0, V0)}"
    assert lines[-1] == "X = cons(0, X)"
    # UTF-8 output is what it was.
    done = _solve_traced_zeros("utf-8")
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (
        "#1 sld clause 1 atom 0 σ={X=cons(0, V0)}\n"
        "#2 hyp clause 1 atom 0 σ={V0=cons(0, cons(0, V0))}\n"
        "X = cons(0, X)\n").encode("utf-8")

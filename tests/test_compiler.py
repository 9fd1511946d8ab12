import pytest

from hornlog.compiler import (
    compile_class_table,
    compile_expr,
    infer,
    runtime_clauses,
)
from hornlog.engine import Budget
from hornlog.minioo import BinOp, IntLit, New, parse_classes, parse_expr
from hornlog.syntax import clause_text, parse_goal, parse_program, parse_term
from hornlog.terms import (
    Compound,
    EMPTY_ENV,
    UNION_FUNCTOR,
    Var,
    rational_equal,
    resolve,
)

from test_minioo import LISTFACT_SRC, LISTS_SRC

BUILDLIST_SRC = LISTS_SRC + LISTFACT_SRC


def alpha_equal(c1, c2) -> bool:
    """Clause equality modulo a bijective renaming of variables."""
    fwd: dict = {}
    bwd: dict = {}

    def walk(a, b) -> bool:
        if isinstance(a, Var) or isinstance(b, Var):
            if not (isinstance(a, Var) and isinstance(b, Var)):
                return False
            if fwd.setdefault(a.name, b.name) != b.name:
                return False
            return bwd.setdefault(b.name, a.name) == a.name
        return (a.functor == b.functor and len(a.args) == len(b.args)
                and all(walk(x, y) for x, y in zip(a.args, b.args)))

    def atoms_eq(a, b) -> bool:
        return (a.pred == b.pred and len(a.args) == len(b.args)
                and all(walk(x, y) for x, y in zip(a.args, b.args)))

    return (atoms_eq(c1.head, c2.head) and len(c1.body) == len(c2.body)
            and all(atoms_eq(x, y) for x, y in zip(c1.body, c2.body)))


def find_clause(program, text):
    """The unique program clause alpha-equal to ``text``, or None."""
    want = parse_program(text).clauses[0]
    hits = [c for c in program.clauses if alpha_equal(c, want)]
    return hits[0] if len(hits) == 1 else None


# ---------------------------------------------------------------------------
# Runtime clauses


def test_runtime_has_object_invoke_clause():
    assert find_clause(runtime_clauses(),
                       "invoke(obj(C, F), M, A, R) :- "
                       "hasmeth(C, M, [obj(C, F)|A], R).")


def test_runtime_has_subclass_clauses():
    rt = runtime_clauses()
    assert find_clause(rt, "subclass(X, object) :- class(X).")
    assert find_clause(rt, "subclass(X, X) :- class(X).")
    assert find_clause(rt, "subclass(X, Z) :- extends(X, Y), subclass(Y, Z).")


def test_runtime_union_and_inheritance_clauses():
    rt = runtime_clauses()
    assert find_clause(rt, "invoke(T1 \\/ T2, M, A, R1 \\/ R2) :- "
                           "invoke(T1, M, A, R1), invoke(T2, M, A, R2).")
    assert find_clause(rt, "hasmeth(C, M, A, R) :- extends(C, D), "
                           "hasmeth(D, M, A, R).")
    assert find_clause(rt, "leq(int, int, bool).")
    assert find_clause(rt, "sub(int, int, int).")


# ---------------------------------------------------------------------------
# Class-table compilation


def test_elist_addlast_clause():
    unit = compile_class_table(parse_classes(LISTS_SRC))
    assert find_clause(unit.program,
                       "hasmeth(elist, addlast, [This, Elem], R) :- "
                       "new(nelist, [Elem, This], R).")


def test_nelist_addlast_clause():
    unit = compile_class_table(parse_classes(LISTS_SRC))
    assert find_clause(unit.program,
                       "hasmeth(nelist, addlast, [This, Elem], R) :- "
                       "fieldacc(This, head, H), fieldacc(This, tail, T), "
                       "invoke(T, addlast, [Elem], N), new(nelist, [H, N], R).")


def test_replicate_clause_unsimplified():
    unit = compile_class_table(parse_classes(BUILDLIST_SRC))
    assert find_clause(unit.program,
                       "hasmeth(listfact, replicate, [This, N, X], E \\/ NE) :- "
                       "leq(N, int, B), eq(B, bool), new(elist, [], E), "
                       "sub(N, int, S), invoke(This, replicate, [S, X], R), "
                       "new(nelist, [X, R], NE).")


def test_buildlist_clause_unsimplified():
    unit = compile_class_table(parse_classes(BUILDLIST_SRC))
    assert find_clause(unit.program,
                       "hasmeth(listfact, buildlist, [This, N, A], A \\/ R) :- "
                       "leq(N, int, B), eq(B, bool), sub(N, int, S), "
                       "new(nelist, [N, A], A2), "
                       "invoke(This, buildlist, [S, A2], R).")


def test_ctor_and_facts():
    unit = compile_class_table(parse_classes(LISTS_SRC))
    assert find_clause(unit.program, "class(nelist).")
    assert find_clause(unit.program, "extends(nelist, object).")
    assert find_clause(unit.program,
                       "ctor(nelist, [Head, Tail], [head:Head, tail:Tail]) :- "
                       "ctor(object, [], []).")
    assert find_clause(unit.program, "ctor(elist, [], []) :- ctor(object, [], []).")


def test_one_hasmeth_clause_per_method():
    ct = parse_classes(BUILDLIST_SRC)
    unit = compile_class_table(ct)
    n_runtime = len(runtime_clauses().clauses)
    generated = [c for c in unit.program.clauses[n_runtime:]
                 if c.head.pred == "hasmeth"]
    assert len(generated) == sum(len(d.methods) for d in ct.classes.values())


def test_runtime_clauses_precede_generated():
    unit = compile_class_table(parse_classes(LISTS_SRC))
    n_runtime = len(runtime_clauses().clauses)
    assert unit.program.clauses[:n_runtime] == runtime_clauses().clauses
    spans = [c.span for c in unit.program.clauses[n_runtime:]]
    assert all(s.file != "<runtime>" and s.line >= 1 for s in spans)


def test_inherited_fields_flow_through_super_record():
    src = LISTS_SRC + """
class Tagged extends NEList {
    tag;
    Tagged(h, t, g) {
        super(h, t);
        this.tag = g;
    }
}
"""
    unit = compile_class_table(parse_classes(src))
    assert find_clause(unit.program,
                       "ctor(tagged, [H, T, G], [head:Head, tag:G, tail:Tail]) :- "
                       "ctor(nelist, [H, T], [head:Head, tail:Tail]).")
    verdict = infer(parse_classes(src),
                    parse_expr("new Tagged(1, null, true)"), engine="sld")
    assert verdict.answers[0].binding("R") == \
        parse_term("obj(tagged, [head:int, tag:bool, tail:null])")


# ---------------------------------------------------------------------------
# Expression compilation


def test_compile_expr_typecheck_goal():
    goal, result = compile_expr(parse_expr("new EList().addLast(i)"),
                                {"i": Compound("int")})
    assert goal == parse_goal("new(elist, [], R), invoke(R, addlast, [int], T)")
    assert result == Var("T")


def test_compile_expr_inference_goal():
    env = {}
    goal, result = compile_expr(parse_expr("x.addLast(y)"), env)
    assert goal == parse_goal("invoke(X, addlast, [Y], T)")
    assert result == Var("T")
    assert env == {"x": Var("X"), "y": Var("Y")}


def test_compile_literal_has_empty_goal():
    goal, result = compile_expr(parse_expr("42"))
    assert goal.atoms == ()
    assert result == Compound("int")


@pytest.mark.parametrize("expr", [
    parse_term("a"),
    New("a", (IntLit(1), parse_term("a"))),
    BinOp("<=", IntLit(1), object()),
])
def test_compile_expr_refuses_a_foreign_node(expr):
    with pytest.raises(TypeError, match="not an expression node"):
        compile_expr(expr)


def test_if_results_are_unions():
    goal, result = compile_expr(parse_expr("if (true) 1 else null"))
    assert result == parse_term("int \\/ null")
    assert goal == parse_goal("eq(bool, bool)")


def test_repeated_variable_shares_one_logic_var():
    goal, _ = compile_expr(parse_expr("x.combine(x)"))
    invoke = goal.atoms[0]
    assert invoke.args[0] == Var("X")
    assert invoke.args[2] == parse_term("[X]")


def test_result_names_skip_every_claimed_name():
    goal, result = compile_expr(parse_expr("t2.m(t, new A(), new A()).n()"))
    assert goal == parse_goal("new(a, [], R), new(a, [], R2), "
                              "invoke(T2, m, [T, R, R2], T3), "
                              "invoke(T3, n, [], T4)")
    assert result == Var("T4")


def test_compile_expr_of_a_deep_call_chain():
    n = 10_000
    goal, result = compile_expr(parse_expr("new EList()" + ".addLast(1)" * n))
    names = ["R", "T"] + [f"T{k}" for k in range(2, n + 1)]
    assert goal.atoms[0] == parse_goal("new(elist, [], R)").atoms[0]
    assert len(goal.atoms) == n + 1
    for k, atom in enumerate(goal.atoms[1:]):
        assert atom.pred == "invoke"
        assert atom.args[0] == Var(names[k])
        assert atom.args[3] == Var(names[k + 1])
    assert result == Var(f"T{n}")


def test_compile_expr_of_a_deep_if_chain():
    n = 10_000
    goal, result = compile_expr(parse_expr("if (c) 1 else " * n + "0"))
    assert goal.atoms == (parse_goal("eq(C, bool)").atoms[0],) * n
    for _ in range(n):
        assert result.functor == UNION_FUNCTOR
        assert result.args[0] == Compound("int")
        result = result.args[1]
    assert result == Compound("int")


# ---------------------------------------------------------------------------
# End-to-end inference


def test_typecheck_addlast_on_empty_list():
    verdict = infer(parse_classes(LISTS_SRC), parse_expr("new EList().addLast(i)"),
                    engine="sld", assumptions={"i": Compound("int")})
    assert verdict.answers, verdict.kind
    first = verdict.answers[0]
    assert first.binding("R") == parse_term("obj(elist, [])")
    assert first.binding("T") == \
        parse_term("obj(nelist, [head:int, tail:obj(elist, [])])")


def test_heterogeneous_chain_infers_plain_int():
    verdict = infer(parse_classes(LISTS_SRC),
                    parse_expr("new EList().addLast(42).addLast(false).head"),
                    engine="sld", budget=Budget(max_answers=1))
    first = verdict.answers[0]
    assert first.binding("F") == Compound("int")


def test_replicate_type_is_rational_under_colp():
    verdict = infer(parse_classes(BUILDLIST_SRC),
                    parse_expr("new ListFact().replicate(10, 42)"),
                    engine="colp", budget=Budget(max_answers=1))
    first = verdict.answers[0]
    assert first.kind == "rational"
    expected_env = EMPTY_ENV.bind(
        "T", parse_term("obj(elist, []) \\/ obj(nelist, [head:int, tail:T])"))
    assert rational_equal(Var("T"), Var("T"), first.bindings, expected_env)


def test_infer_via_sres_strips_proof_arguments():
    verdict = infer(parse_classes(LISTS_SRC), parse_expr("new EList().addLast(i)"),
                    engine="sres", assumptions={"i": Compound("int")},
                    budget=Budget(max_answers=1), lazy_k=64)
    first = verdict.answers[0]
    assert sorted(first.goal_vars) == ["R", "T"]
    assert first.binding("T") == \
        parse_term("obj(nelist, [head:int, tail:obj(elist, [])])")


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        infer(parse_classes(""), parse_expr("42"), engine="prolog")

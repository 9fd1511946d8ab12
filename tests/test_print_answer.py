"""``print_answer`` against a reference: the printer as it stood when it
substituted each answer with ``resolve`` and asked ``has_cycle`` first,
kept here verbatim with the ``term_text`` it called.  Every style must give
the same string, or raise ``PrintError`` with the same message, on seeded
environments of every shape a printer meets and on every answer of the
random programs under each engine."""

from __future__ import annotations

import random
import signal
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

import pytest

from test_replay import ENGINES, _cases
from test_syntax import answer_of

from hornlog import syntax, terms
from hornlog.engine import Budget, sld_solve, sres_solve
from hornlog.syntax import PrintError, parse_goal, parse_program, print_answer
from hornlog.terms import (
    EMPTY_ENV,
    FIELD_FUNCTOR,
    LIST_FUNCTOR,
    NIL,
    UNION_FUNCTOR,
    BindingEnv,
    Compound,
    Term,
    Var,
    const,
    has_cycle,
    mklist,
    resolve,
    subterms,
    to_mu,
)

# ---------------------------------------------------------------------------
# The reference, verbatim

_UNION_PRIO = 500
_FIELD_PRIO = 200


def reference_term_text(t: Term, max_prio: int = 1200,
                        nested_lists: bool = False,
                        marked: Optional[set] = None) -> str:
    pieces: list = []
    done: dict = {}  # (id, priority) -> its slice of pieces, then its text
    stack: list = [(t, max_prio)]  # text pieces and (term, priority) items
    while stack:
        x = stack.pop()
        if x.__class__ is str:
            pieces.append(x)
            continue
        if x.__class__ is list:  # [key, start]: that compound is printed
            done[x[0]] = (x[1], len(pieces))
            continue
        t, prio = x
        if isinstance(t, Var):
            pieces.append(t.name + ("?" if marked and t.name in marked else ""))
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
        stack.append([key, len(pieces)])
        if t.functor == LIST_FUNCTOR and len(t.args) == 2:
            if nested_lists:
                todo = ["[", (t.args[0], 999), "|", (t.args[1], 999), "]"]
            else:
                todo = []
                cur: Term = t
                while (isinstance(cur, Compound) and cur.functor == LIST_FUNCTOR
                       and len(cur.args) == 2):
                    todo += [", ", (cur.args[0], 999)]
                    cur = cur.args[1]
                todo[0] = "["
                if isinstance(cur, Compound) and cur.functor == "[]" and not cur.args:
                    todo.append("]")
                else:
                    todo += ["|", (cur, 999), "]"]
        elif t.functor == UNION_FUNCTOR and len(t.args) == 2:
            todo = [(t.args[0], _UNION_PRIO - 1), " \\/ ", (t.args[1], _UNION_PRIO)]
            if _UNION_PRIO > prio:
                todo = ["(", *todo, ")"]
        elif t.functor == FIELD_FUNCTOR and len(t.args) == 2:
            todo = [(t.args[0], _FIELD_PRIO - 1), ":", (t.args[1], _FIELD_PRIO - 1)]
            if _FIELD_PRIO > prio:
                todo = ["(", *todo, ")"]
        else:
            todo = []
            for a in t.args:
                todo += [", ", (a, 999)]
            todo[0] = t.functor + "("
            todo.append(")")
        stack.extend(reversed(todo))
    return "".join(pieces)


def reference_print_answer(answer, style: str = "flat", unfold: int = 3) -> str:
    term_text = reference_term_text
    if style not in ("flat", "mu", "lazy"):
        raise ValueError(f"unknown style {style!r}")
    env: BindingEnv = answer.bindings
    parts = []
    for name in answer.goal_vars:
        v = Var(name)
        walked = env.walk(v)
        if isinstance(walked, Var) and walked.name == name:
            continue  # unconstrained
        if style == "flat":
            if has_cycle(env, v):
                raise PrintError(
                    f"{name} is bound to a rational term; "
                    "the flat style cannot print it (use mu or lazy)")
            parts.append(f"{name} = {term_text(resolve(env, v, 1))}")
        elif style == "mu":
            m = to_mu(env, v)
            eqs = dict(m.equations)
            root = eqs.pop(name) if m.root == v and name in eqs else m.root
            parts.append(f"{name} = {term_text(root)}")
            parts.extend(f"{n} = {term_text(rhs)}" for n, rhs in sorted(eqs.items()))
        elif style == "lazy":
            t = resolve(env, v, unfold)
            marked = {x.name for x in subterms((t,), EMPTY_ENV)
                      if x.__class__ is Var}
            parts.append(f"{name} = {term_text(t, nested_lists=True, marked=marked)}")
    return ", ".join(parts) if parts else "true"


# ---------------------------------------------------------------------------
# Comparing


STYLES = [("flat", 3), ("mu", 3)] + [("lazy", k) for k in range(4)]


@contextmanager
def _within(seconds):
    """Fail with ``TimeoutError`` if the block runs longer than ``seconds``:
    a printer that loops on a cycle stops there, before its stack grows
    without bound."""
    def expire(signum, frame):
        raise TimeoutError(f"still printing after {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _outcome(printer, answer, style, unfold):
    try:
        return printer(answer, style, unfold)
    except PrintError as exc:
        return PrintError, str(exc)


def assert_prints_as_reference(answer) -> dict:
    """Compare every style; return the reference's outcome per style."""
    out = {}
    for style, unfold in STYLES:
        want = _outcome(reference_print_answer, answer, style, unfold)
        with _within(5):
            got = _outcome(print_answer, answer, style, unfold)
        assert got == want, (style, unfold, answer.bindings, answer.goal_vars)
        out[style, unfold] = want
    return out


# ---------------------------------------------------------------------------
# Seeded environments

NAMES = ["X", "Y", "Z", "T", "U", "W", "_A0", "_A1"]
LEAVES = [const("a"), const("0"), const("int"), NIL]
FUNCTORS = [("f", 1), ("g", 2), ("h", 3), (LIST_FUNCTOR, 2),
            (UNION_FUNCTOR, 2), (FIELD_FUNCTOR, 2)]


def _dag(rng, names, size):
    """Compounds over ``LEAVES`` and the variables ``names``, each built
    from earlier ones, so that subterms are often shared."""
    made = list(LEAVES) + [Var(n) for n in names]
    for _ in range(size):
        name, arity = rng.choice(FUNCTORS)
        made.append(Compound(name, tuple(rng.choice(made)
                                         for _ in range(arity))))
    return made[len(LEAVES) + len(names):] or [Compound("f", (LEAVES[0],))]


def env_dag(rng):
    """Acyclic: each variable is bound only to compounds over the variables
    after it, with shared subterms."""
    b = {}
    for i, n in enumerate(NAMES):
        if rng.random() < 0.7:
            b[n] = rng.choice(_dag(rng, NAMES[i + 1:], rng.randrange(1, 9)))
    return b


def env_cycle_through_var(rng):
    """A cycle that closes through variables: X -> f(.. Y ..),
    Y -> g(.. X ..), with random parts around it."""
    b = env_dag(rng)
    ring = rng.sample(NAMES, rng.randrange(1, 4))
    for i, n in enumerate(ring):
        nxt = Var(ring[(i + 1) % len(ring)])
        name, arity = rng.choice(FUNCTORS)
        args = [rng.choice(LEAVES) for _ in range(arity)]
        args[rng.randrange(arity)] = nxt
        b[n] = Compound(name, tuple(args))
    return b


def env_cycle_below_shared(rng):
    """A shared node N (reached twice from the root) with a cycle below
    it: N = k(C), C -> m(.., N-or-C ..)."""
    b = env_dag(rng)
    root, c = rng.sample(NAMES, 2)
    n = Compound("k", (Var(c), rng.choice(LEAVES)))
    back = n if rng.random() < 0.5 else Var(c)
    b[c] = Compound(rng.choice(["m", UNION_FUNCTOR, LIST_FUNCTOR]),
                    (rng.choice(LEAVES), back))
    shape = rng.randrange(3)
    if shape == 0:
        b[root] = Compound("g", (n, n))
    elif shape == 1:
        b[root] = mklist([n, const("a"), n], Var(rng.choice(NAMES)))
    else:
        b[root] = Compound(UNION_FUNCTOR, (Compound("f", (n,)), n))
    return b


def env_cyclic_spine(rng):
    """A list whose spine loops: X -> [a, b|Y], Y -> [c|X], or back into
    its own middle, or X -> [a|X]."""
    b = env_dag(rng)
    ring = rng.sample(NAMES, rng.randrange(1, 3))
    items = _dag(rng, NAMES, 4)
    for i, n in enumerate(ring):
        nxt = Var(ring[(i + 1) % len(ring)])
        b[n] = mklist([rng.choice(items + LEAVES)
                      for _ in range(rng.randrange(1, 4))], nxt)
    if rng.random() < 0.5:  # enter the loop from a list in front of it
        front = rng.choice([n for n in NAMES if n not in ring])
        b[front] = mklist([const("h")], Var(ring[0]))
    return b


def env_var_loop(rng):
    """Collapsed variable loops: X -> Y -> X (and X -> X), with other
    variables bound to them or to terms over them."""
    b = env_dag(rng)
    ring = rng.sample(NAMES, rng.randrange(1, 4))
    for i, n in enumerate(ring):
        b[n] = Var(ring[(i + 1) % len(ring)])
    for n in NAMES:
        if n not in ring and rng.random() < 0.4:
            b[n] = rng.choice([Var(rng.choice(ring)),
                               Compound("f", (Var(rng.choice(ring)),)),
                               mklist([Var(rng.choice(ring))],
                                     Var(rng.choice(ring)))])
    return b


def env_list_tails(rng):
    """Lists with open tails (unbound, or bound through a variable chain)
    and closed ones, nested in each other."""
    b = {}
    for i, n in enumerate(NAMES):
        if rng.random() < 0.75:
            later = NAMES[i + 1:]
            tail = rng.choice([NIL, NIL] + [Var(x) for x in later]
                              + [const("a")])
            items = [rng.choice(LEAVES + [Var(x) for x in later])
                     for _ in range(rng.randrange(0, 4))]
            if items and rng.random() < 0.3:
                items[0] = mklist(items[1:], NIL)
            b[n] = mklist(items, tail)
    return b


def env_union_field(rng):
    """Records and unions: ``obj(c, [head:T1, tail:T2])``, nested ``\\/``
    and ``:`` in both argument positions, where parentheses matter."""
    b = {}
    for i, n in enumerate(NAMES):
        if rng.random() < 0.8:
            later = [Var(x) for x in NAMES[i + 1:]]
            pool = LEAVES + later
            for _ in range(rng.randrange(1, 6)):
                op = rng.choice([UNION_FUNCTOR, FIELD_FUNCTOR, "obj", "."])
                pool.append(Compound(op, (rng.choice(pool), rng.choice(pool))))
            b[n] = pool[-1]
    return b


def env_random(rng):
    """Any variable bound to any compound or variable: cycles, loops and
    sharing as they fall."""
    made = _dag(rng, NAMES, rng.randrange(1, 12))
    b = {}
    for n in NAMES:
        r = rng.random()
        if r < 0.15:
            b[n] = Var(rng.choice(NAMES))
        elif r < 0.7:
            b[n] = rng.choice(made)
    return b


FAMILIES = [env_dag, env_cycle_through_var, env_cycle_below_shared,
            env_cyclic_spine, env_var_loop, env_list_tails, env_union_field,
            env_random]


def _goal_vars(rng):
    """Some of the names, in any order, with unbound and anonymous ones,
    and now and then a name no binding mentions."""
    gv = rng.sample(NAMES, rng.randrange(0, len(NAMES) + 1))
    if rng.random() < 0.2:
        gv.append("Fresh")
    return tuple(gv)


def seeded_answers(count=2000):
    rng = random.Random(33)
    for i in range(count):
        family = FAMILIES[i % len(FAMILIES)]
        yield family.__name__, answer_of(family(rng), _goal_vars(rng))


def test_print_answer_equals_the_reference_on_seeded_environments():
    seen: dict = {}  # family -> (answers, flat errors, lazy texts with ?)
    for family, answer in seeded_answers():
        out = assert_prints_as_reference(answer)
        n, errors, marks = seen.get(family, (0, 0, 0))
        seen[family] = (n + 1,
                        errors + (out["flat", 3].__class__ is tuple),
                        marks + ("?" in str(out["lazy", 3])))
    assert sum(n for n, _, _ in seen.values()) == 2000
    # Every cyclic family makes flat refuse, and the acyclic ones print.
    for family in ("env_cycle_through_var", "env_cycle_below_shared",
                   "env_cyclic_spine"):
        assert seen[family][1] >= 100, (family, seen[family])
    for family in ("env_dag", "env_list_tails", "env_union_field"):
        assert seen[family][1] == 0, (family, seen[family])
        assert seen[family][2] >= 100, (family, seen[family])
    assert 0 < seen["env_random"][1] < 250, seen["env_random"]


# ---------------------------------------------------------------------------
# Every answer of the random programs


@pytest.mark.parametrize("engine, options, kinds", [
    ("sld", {"occurs_check": True}, {"total"}),
    ("sld", {"occurs_check": False}, {"total", "rational"}),
    ("colp", {}, {"total", "rational"}),
    ("sres", {}, {"total", "rational", "partial"}),
])
def test_print_answer_equals_the_reference_on_random_program_answers(
        engine, options, kinds):
    """The random programs and budgets of ``test_replay``."""
    seen = set()
    for p, g, budget in _cases():
        for answer in ENGINES[engine](g, p, budget, **options).answers:
            assert_prints_as_reference(answer)
            seen.add(answer.kind)
    assert seen == kinds


# ---------------------------------------------------------------------------
# Work-count gate: one walk through the bindings, no copy, no second check

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
LEN = parse_program("len([], z).\nlen([_|T], s(N)) :- len(T, N).")
DEEP = Budget(max_steps=10 ** 8, max_depth=10 ** 7, max_rewrite_steps=10 ** 8,
              max_subst_steps=10 ** 8, max_answers=1)


def _printing_work(monkeypatch, answer, style):
    """Print ``answer``, counting the calls of ``resolve``, ``has_cycle``
    and ``subterms`` swapped in ``syntax``'s namespace, and every variable
    walk (``_walk`` in ``syntax``'s and ``terms``' namespaces)."""
    calls = dict.fromkeys(("resolve", "has_cycle", "subterms", "_walk"), 0)
    for name in calls:
        def counting(*args, _name=name, _real=getattr(terms, name), **kw):
            calls[_name] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(syntax, name, counting, raising=False)
        if name == "_walk":
            monkeypatch.setattr(terms, name, counting)
    try:
        return print_answer(answer, style), calls
    finally:
        monkeypatch.undo()


def _len_answer(n):
    goal = parse_goal("len([" + ", ".join(["a"] * n) + "], N)")
    [answer] = sld_solve(goal, LEN, DEEP).answers
    assert answer.kind == "total"
    return answer, "flat", "N = " + "s(" * n + "z" + ")" * n


def _from_answer(k):
    program = parse_program((SAMPLES / "from.lp").read_text())
    [answer] = sres_solve(parse_goal("from(0, X)"), program, DEEP,
                          lazy_k=k).answers
    assert answer.kind == "partial"
    return answer, "lazy", None


@pytest.mark.parametrize("make, sizes", [
    (_len_answer, (250, 2000)),
    (_from_answer, (50, 400)),
])
def test_printing_an_answer_walks_its_bindings_once(monkeypatch, make, sizes):
    per_cell = []
    for n in sizes:
        answer, style, want = make(n)
        text, calls = _printing_work(monkeypatch, answer, style)
        assert want is None or text == want
        assert calls["resolve"] == calls["has_cycle"] == calls["subterms"] \
            == 0, (n, calls)
        per_cell.append(calls["_walk"] / n)
    assert per_cell[1] <= 1.25 * per_cell[0], per_cell


# ---------------------------------------------------------------------------
# Cycle and depth guards

RATIONAL = ("{} is bound to a rational term; "
            "the flat style cannot print it (use mu or lazy)")


def _cyclic_answers(n):
    """Cycles n nodes long: a compact list whose spine closes on itself,
    the same spine through n variables, and a cycle entered below a node
    the root reaches twice."""
    items = [const(f"a{i % 7}") for i in range(n)]
    spine = answer_of({"X": mklist(items, Var("X"))}, ("X",))
    cells = {f"L{i}": Compound(LIST_FUNCTOR, (items[i], Var(f"L{(i + 1) % n}")))
             for i in range(n)}
    cells["X"] = mklist([const("h")], Var("L0"))
    linked = answer_of(cells, ("X",))
    shared = Compound("k", (Var("C"), const("a")))
    below = Var("D")
    for _ in range(n):
        below = Compound("s", (below,))
    under = answer_of({"R": Compound("g", (shared, shared)), "C": below,
                       "D": shared}, ("R",))
    return [("X", spine), ("X", linked), ("R", under)]


def test_flat_refuses_a_long_cycle_without_recursing():
    for name, answer in _cyclic_answers(20000):
        with _within(3), pytest.raises(PrintError) as exc:
            print_answer(answer, "flat")
        assert str(exc.value) == RATIONAL.format(name)


def test_lazy_prints_a_long_cycle_as_the_reference_does():
    for _, answer in _cyclic_answers(5000):
        for unfold in (0, 1, 3):
            with _within(3):
                text = print_answer(answer, "lazy", unfold)
            assert text == reference_print_answer(answer, "lazy", unfold)


def test_a_tail_that_only_looks_like_a_list_prints_as_a_tail():
    a, b = const("a"), const("b")
    for tail in (Compound("[]", (b,)), Compound(LIST_FUNCTOR, (b,)),
                 Compound(LIST_FUNCTOR, (a, b, NIL)), Var("T")):
        answer = answer_of({"X": mklist([a, a], Var("Y")), "Y": tail},
                           ("X", "Y"))
        out = assert_prints_as_reference(answer)
        assert "|" in out["flat", 3], out


def test_a_long_acyclic_answer_prints_in_both_styles():
    n = 10 ** 5
    cells = {f"L{i}": Compound(LIST_FUNCTOR, (const("a"), Var(f"L{i + 1}")))
             for i in range(n)}
    nat = {f"N{i}": Compound("s", (Var(f"N{i + 1}"),)) for i in range(n)}
    nat[f"N{n}"] = const("z")
    answer = answer_of({**cells, **nat}, ("L0", "N0"))
    s = "s(" * n + "z" + ")" * n
    assert print_answer(answer, "flat") == (
        "L0 = [" + ", ".join(["a"] * n) + f"|L{n}], N0 = {s}")
    assert print_answer(answer, "lazy") == (
        "L0 = " + "[a|" * n + f"L{n}?" + "]" * n + f", N0 = {s}")
    closed = answer_of({**cells, f"L{n}": NIL}, ("L0",))
    assert print_answer(closed, "flat") == "L0 = [" + ", ".join(["a"] * n) + "]"
    assert print_answer(closed, "lazy") == "L0 = " + "[a|" * n + "[]" + "]" * n

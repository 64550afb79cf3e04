"""The operator and builtin tables and the nesting cap, through parse, format, typecheck and evaluate."""

import itertools
import operator
import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from pillm.dsl import (
    MAX_DEPTH,
    MAX_NODES,
    BinOp,
    DslSyntaxError,
    FeatureRef,
    Unary,
    compile_rule,
    evaluate,
    format_rule,
    parse,
)
from pillm.dsl import interp
from pillm.dsl.interp import _UFUNCS
from pillm.dsl.nodes import BINARY_PREC, BUILTINS, COMPARISONS, NEG_PREC, NOT_PREC, RuleAst

from .conftest import make_table

A, B, C = FeatureRef("a"), FeatureRef("b"), FeatureRef("c")
OPS = sorted(BINARY_PREC)

PYTHON_OPS = {
    ">": operator.gt, "<": operator.lt, ">=": operator.ge,
    "<=": operator.le, "==": operator.eq, "!=": operator.ne,
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
}


def round_trips(expr) -> bool:
    ast = RuleAst(bindings=(), result=expr)
    return parse(format_rule(ast)) == ast


class TestOperatorTable:
    def test_levels_loosest_first(self):
        levels = [BINARY_PREC["or"], BINARY_PREC["and"], NOT_PREC, BINARY_PREC[">"],
                  BINARY_PREC["+"], BINARY_PREC["*"], NEG_PREC]
        assert levels == sorted(set(levels))
        assert COMPARISONS == {">", "<", ">=", "<=", "==", "!="}

    def test_interpreter_covers_every_elementwise_operator(self):
        assert set(_UFUNCS) == set(BINARY_PREC) - {"and", "or"}

    @pytest.mark.parametrize("outer,inner", list(itertools.product(OPS, OPS)))
    def test_every_pair_round_trips(self, outer, inner):
        assert round_trips(BinOp(outer, BinOp(inner, A, B), C))
        assert round_trips(BinOp(outer, A, BinOp(inner, B, C)))

    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("unary", ["not", "-"])
    def test_unary_around_every_operator_round_trips(self, unary, op):
        assert round_trips(Unary(unary, BinOp(op, A, B)))
        assert round_trips(BinOp(op, Unary(unary, A), B))
        assert round_trips(BinOp(op, A, Unary(unary, B)))

    @pytest.mark.parametrize("op", sorted(COMPARISONS))
    def test_comparisons_do_not_chain(self, op):
        with pytest.raises(DslSyntaxError, match="unexpected input"):
            parse(f"return $a {op} $b {op} $c")
        assert format_rule(parse(f"return ($a {op} $b) {op} $c")) == f"return ($a {op} $b) {op} $c"

    @pytest.mark.parametrize("op", sorted(PYTHON_OPS))
    def test_evaluates_like_python(self, op):
        xs = [-2.0, 0.0, 0.5, 1.0, 3.0, 1e-3]
        ys = [1.0, -4.0, 0.5, 2.0, 3.0, 7.0]
        table = make_table({"x": np.array(xs), "y": np.array(ys)})
        scores = evaluate(compile_rule(f"return $x {op} $y", table.feature_names), table)
        assert list(scores) == [float(PYTHON_OPS[op](x, y)) for x, y in zip(xs, ys)]


NAMES = sorted(BUILTINS)
WINDOWED = [name for name in NAMES if BUILTINS[name][2] == "window"]
GOOD_LITERAL = {"window": "7", "alpha": "0.5"}


def call(name: str, literal: str | None = None, arity: int | None = None) -> str:
    """`name` called with `$a` for each series argument and `literal` (or a good one) for its literal."""
    default_arity, literal_at, kind = BUILTINS[name]
    args = ["$a"] * (default_arity if arity is None else arity)
    if literal_at is not None and literal_at < len(args):
        args[literal_at] = GOOD_LITERAL[kind] if literal is None else literal
    return f"{name}({', '.join(args)})"


# (literal, diagnostic) for a bad window or lag, and for a bad smoothing factor.
BAD_WINDOWS = [
    ("k", "window for {}() must be an integer literal"),
    ("$b", "window for {}() must be an integer literal"),
    ("-3", "window for {}() must be an integer literal"),
    ("2.5", "window for {}() must be an integer literal"),
    ("0", "window for {}() out of range [1, 1024]"),
    ("1025", "window for {}() out of range [1, 1024]"),
]
BAD_ALPHAS = [
    ("k", "smoothing factor for ewma() must be a real literal"),
    ("$b", "smoothing factor for ewma() must be a real literal"),
    ("-0.5", "smoothing factor for ewma() must be a real literal"),
    ("0", "smoothing factor for ewma() must lie in (0, 1]"),
    ("1.5", "smoothing factor for ewma() must lie in (0, 1]"),
]


class TestBuiltinTable:
    def test_interpreter_covers_every_builtin(self):
        assert set(interp._KERNELS) == set(BUILTINS)
        assert interp._MEMOIZED <= set(BUILTINS)

    def test_literal_kinds(self):
        assert {kind for _, _, kind in BUILTINS.values()} == {None, "window", "alpha"}
        for arity, literal_at, kind in BUILTINS.values():
            assert (literal_at is None) == (kind is None)
            assert literal_at is None or 0 <= literal_at < arity

    @pytest.mark.parametrize("name", NAMES)
    def test_call_round_trips(self, name):
        ast = parse(f"return {call(name)} > 0")
        assert ast.result.left.name == name
        assert parse(format_rule(ast)) == ast

    @pytest.mark.parametrize("name", NAMES)
    def test_wrong_arity_is_reported_at_the_name(self, name):
        arity = BUILTINS[name][0]
        for wrong in (arity - 1, arity + 1):
            with pytest.raises(DslSyntaxError) as exc:
                parse(f"k = $a\nreturn {call(name, arity=wrong)} > 0")
            plural = "s" if arity != 1 else ""
            assert str(exc.value) == f"2:8: {name}() takes {arity} argument{plural}, got {wrong}"

    @pytest.mark.parametrize(
        "name,literal,message",
        [(name, literal, message.format(name)) for name in WINDOWED for literal, message in BAD_WINDOWS]
        + [("ewma", literal, message) for literal, message in BAD_ALPHAS],
    )
    def test_bad_literal_is_reported_at_the_literal(self, name, literal, message):
        with pytest.raises(DslSyntaxError) as exc:
            parse(f"k = $a\nreturn {call(name, literal)} > 0")
        col = len(f"return {name}(") + len("$a, ") * BUILTINS[name][1] + 1
        assert str(exc.value) == f"2:{col}: {message}"

    @pytest.mark.parametrize("name,literal", [(name, w) for name in WINDOWED for w in ("1", "1024")]
                             + [("ewma", alpha) for alpha in ("1", "1e-9")])
    def test_literal_bounds_are_inclusive_where_stated(self, name, literal):
        assert parse(f"return {call(name, literal)} > 0").result.left.name == name

    @pytest.mark.parametrize("name", NAMES)
    def test_max_window_counts_window_literals_only(self, name):
        rule = compile_rule(f"return {call(name)} > 0", ["a"])
        assert rule.ast.max_window == (7 if BUILTINS[name][2] == "window" else 1)
        both = compile_rule(f"return {call(name)} + mean($a, 3) > 0", ["a"])
        assert both.ast.max_window == (7 if BUILTINS[name][2] == "window" else 3)


def nested(depth: int, opening: str, inner: str) -> str:
    return opening * depth + inner + ")" * depth


class TestNestingCap:
    @pytest.mark.parametrize("opening", ["(", "-(", "abs(", "not ("])
    def test_one_level_past_the_cap(self, opening):
        parse(f"return {nested(MAX_DEPTH, opening, '$x > 1')}")
        with pytest.raises(DslSyntaxError, match=f"nesting deeper than {MAX_DEPTH}") as exc:
            parse(f"return {nested(MAX_DEPTH + 1, opening, '$x > 1')}")
        # Reported at the opening parenthesis that goes one level too deep.
        assert (exc.value.line, exc.value.col) == (1, len("return ") + len(opening) * (MAX_DEPTH + 1))

    def test_far_past_the_cap_is_a_syntax_error(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse(f"x = 1\nreturn {nested(10 * MAX_DEPTH, '(', '1')} > 0")
        assert re.match(r"^2:\d+: nesting deeper", str(exc.value))

    @pytest.mark.parametrize("builtin,window", [("abs", ""), ("mean", ", 2"), ("zscore", ", 3")])
    def test_deepest_rule_the_caps_allow(self, builtin, window):
        per_level = 2 if window else 1
        # MAX_DEPTH nested calls around a left-deep `+` chain, with `> 0`: at most MAX_NODES nodes.
        terms = (MAX_NODES - MAX_DEPTH * per_level - 2 + 1) // 2
        chain = " + ".join(["$x"] * terms)
        source = "return " + f"{builtin}(" * MAX_DEPTH + chain + f"{window})" * MAX_DEPTH + " > 0"
        rule = compile_rule(source, ["x"])
        assert MAX_NODES - 1 <= rule.ast.node_count <= MAX_NODES
        assert parse(format_rule(rule.ast)) == rule.ast
        table = make_table({"x": np.linspace(-1.0, 1.0, 16)})
        scores = evaluate(rule, table)
        with ThreadPoolExecutor(1) as pool:
            assert np.array_equal(pool.submit(evaluate, rule, table).result(), scores)
        if builtin == "abs":
            assert list(scores) == [float(v != 0.0) for v in table.column("x")]

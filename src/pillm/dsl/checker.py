"""Static type checking for parsed rules.

Every expression is classified as a numeric series or a boolean series.
Comparisons take numeric operands and produce booleans; `and/or/not` demand
booleans; arithmetic and all builtins stay numeric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import DslTypeError
from .nodes import COMPARISONS, BinOp, Call, Expr, FeatureRef, Num, RuleAst, Unary, VarRef

_NUM = "numeric-series"
_BOOL = "boolean-series"


@dataclass(frozen=True)
class TypedRule:
    """A rule that passed parsing and static checks against a feature set."""

    ast: RuleAst


def typecheck(ast: RuleAst, features: Iterable[str]) -> TypedRule:
    """Check `ast` against the table's feature names."""
    known = frozenset(features)
    env: dict[str, str] = {}

    def visit(expr: Expr) -> str:
        if isinstance(expr, Num):
            return _NUM
        if isinstance(expr, FeatureRef):
            if expr.name not in known:
                raise DslTypeError(f"unknown feature ${expr.name}", *expr.pos)
            return _NUM
        if isinstance(expr, VarRef):
            # The parser guarantees bound-before-use, so the name is present.
            return env[expr.name]
        if isinstance(expr, Unary):
            inner = visit(expr.operand)
            if expr.op == "-":
                _require(inner, _NUM, "unary '-'", expr)
                return _NUM
            _require(inner, _BOOL, "'not'", expr)
            return _BOOL
        if isinstance(expr, BinOp):
            left = visit(expr.left)
            right = visit(expr.right)
            if expr.op in ("and", "or"):
                _require(left, _BOOL, f"{expr.op!r}", expr)
                _require(right, _BOOL, f"{expr.op!r}", expr)
                return _BOOL
            if expr.op in COMPARISONS:
                _require(left, _NUM, f"comparison {expr.op!r}", expr)
                _require(right, _NUM, f"comparison {expr.op!r}", expr)
                return _BOOL
            _require(left, _NUM, f"operator {expr.op!r}", expr)
            _require(right, _NUM, f"operator {expr.op!r}", expr)
            if expr.op == "/" and isinstance(expr.right, Num) and expr.right.value == 0.0:
                raise DslTypeError("division by a literal 0", *expr.pos)
            return _NUM
        if isinstance(expr, Call):
            for arg in expr.args:
                _require(visit(arg), _NUM, f"argument of {expr.name}()", arg)
            return _NUM
        raise TypeError(f"not an expression node: {expr!r}")

    for name, expr in ast.bindings:
        env[name] = visit(expr)
    visit(ast.result)
    return TypedRule(ast)


def _require(actual: str, expected: str, where: str, expr: Expr) -> None:
    if actual != expected:
        pos = getattr(expr, "pos", (0, 0))
        raise DslTypeError(f"{where} requires a {expected}, got {actual}", *pos)

"""Sandboxed expression language for anomaly rules.

The public surface: `parse` source into an AST, `typecheck` it against a
table's feature names, `evaluate` it into per-row scores (sharing windowed
results between rules through an `EvalMemo`), binarize with `to_flags`, and
render canonically with `format_rule`. `compile_rule` chains parse and
typecheck for the common case.
"""

from __future__ import annotations

from typing import Iterable

from .checker import TypedRule, typecheck
from .errors import BudgetError, DslError, DslSyntaxError, DslTypeError
from .formatter import format_rule
from .interp import EVAL_BUDGET, EvalMemo, evaluate, to_flags
from .nodes import BUILTINS, MAX_WINDOW, BinOp, Call, Expr, FeatureRef, Num, RuleAst, Unary, VarRef
from .nodes import children, walk
from .parser import MAX_BINDINGS, MAX_DEPTH, MAX_NODES, parse

__all__ = [
    "BUILTINS",
    "BinOp",
    "BudgetError",
    "Call",
    "DslError",
    "DslSyntaxError",
    "DslTypeError",
    "EVAL_BUDGET",
    "EvalMemo",
    "Expr",
    "FeatureRef",
    "MAX_BINDINGS",
    "MAX_DEPTH",
    "MAX_NODES",
    "MAX_WINDOW",
    "Num",
    "RuleAst",
    "TypedRule",
    "Unary",
    "VarRef",
    "children",
    "compile_rule",
    "evaluate",
    "format_rule",
    "parse",
    "to_flags",
    "typecheck",
    "walk",
]


def compile_rule(source: str, features: Iterable[str]) -> TypedRule:
    """Parse and typecheck rule source in one step."""
    return typecheck(parse(source), features)

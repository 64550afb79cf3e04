"""Canonical pretty-printer for rule ASTs.

`parse(format_rule(ast))` is structurally equal to `ast` for every AST the
parser or the grammar sampler can produce. The printer inserts parentheses
exactly where precedence demands them, one binding per line, single spaces
around binary operators.
"""

from __future__ import annotations

from .nodes import BINARY_PREC, COMPARISONS, NEG_PREC, NOT_PREC, BinOp, Call, Expr, FeatureRef
from .nodes import Num, RuleAst, Unary, VarRef

_PRIMARY = NEG_PREC + 1


def _prec(expr: Expr) -> int:
    if isinstance(expr, BinOp):
        return BINARY_PREC[expr.op]
    if isinstance(expr, Unary):
        return NOT_PREC if expr.op == "not" else NEG_PREC
    return _PRIMARY


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _format_expr(expr: Expr, min_prec: int = 0) -> str:
    if isinstance(expr, Num):
        text = _format_number(expr.value)
    elif isinstance(expr, FeatureRef):
        text = f"${expr.name}"
    elif isinstance(expr, VarRef):
        text = expr.name
    elif isinstance(expr, Call):
        args = ", ".join(_format_expr(a) for a in expr.args)
        text = f"{expr.name}({args})"
    elif isinstance(expr, Unary):
        if expr.op == "not":
            text = f"not {_format_expr(expr.operand, NOT_PREC + 1)}"
        else:
            text = f"-{_format_expr(expr.operand, _PRIMARY)}"
    elif isinstance(expr, BinOp):
        own = BINARY_PREC[expr.op]
        # Comparisons do not chain, so their left operand binds tighter too.
        left = _format_expr(expr.left, own + 1 if expr.op in COMPARISONS else own)
        right = _format_expr(expr.right, own + 1)
        text = f"{left} {expr.op} {right}"
    else:
        raise TypeError(f"not an expression node: {expr!r}")
    if _prec(expr) < min_prec:
        return f"({text})"
    return text


def format_rule(ast: RuleAst) -> str:
    """Render an AST as canonical rule source."""
    lines = [f"{name} = {_format_expr(expr)}" for name, expr in ast.bindings]
    lines.append(f"return {_format_expr(ast.result)}")
    return "\n".join(lines)

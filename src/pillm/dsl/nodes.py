"""AST node types for the anomaly-rule DSL.

Nodes compare structurally: two parses of the same source are equal even if
their positions differ, which is what the canonical-format round-trip
guarantee is stated against. Positions are kept for diagnostics only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

Pos = tuple[int, int]

_NOWHERE: Pos = (0, 0)

# How tightly each binary operator binds; a higher level binds tighter. The
# parser, the printer, the checker and the interpreter all read this table.
BINARY_PREC: dict[str, int] = {
    "or": 1,
    "and": 2,
    ">": 4, "<": 4, ">=": 4, "<=": 4, "==": 4, "!=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6,
}
NOT_PREC = 3  # `not` binds looser than a comparison, tighter than `and`
NEG_PREC = 7  # unary `-` applies to a primary only
# Comparisons do not chain: `a < b < c` is a syntax error.
COMPARISONS = frozenset(op for op, prec in BINARY_PREC.items() if prec == BINARY_PREC["=="])

MIN_WINDOW = 1
MAX_WINDOW = 1024
# builtin -> (arity, index of its literal argument or None, the literal's kind).
# A "window" literal is an integer in [MIN_WINDOW, MAX_WINDOW] that counts
# toward a rule's max window (for `lag` and `delta`, the lag). An "alpha"
# literal is `ewma`'s smoothing factor, a real in (0, 1]. The parser,
# `RuleAst`, the interpreter and the offline sampler all read this table.
BUILTINS: dict[str, tuple[int, int | None, str | None]] = {
    "abs": (1, None, None),
    "clip": (3, None, None),
    "mean": (2, 1, "window"),
    "std": (2, 1, "window"),
    "rmin": (2, 1, "window"),
    "rmax": (2, 1, "window"),
    "lag": (2, 1, "window"),
    "delta": (2, 1, "window"),
    "ewma": (2, 1, "alpha"),
    "zscore": (2, 1, "window"),
}


@dataclass(frozen=True)
class Num:
    value: float
    pos: Pos = field(default=_NOWHERE, compare=False, repr=False)


@dataclass(frozen=True)
class FeatureRef:
    name: str
    pos: Pos = field(default=_NOWHERE, compare=False, repr=False)


@dataclass(frozen=True)
class VarRef:
    name: str
    pos: Pos = field(default=_NOWHERE, compare=False, repr=False)


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["Expr", ...]
    pos: Pos = field(default=_NOWHERE, compare=False, repr=False)


@dataclass(frozen=True)
class Unary:
    op: str  # "-" or "not"
    operand: "Expr"
    pos: Pos = field(default=_NOWHERE, compare=False, repr=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # arithmetic, comparison, "and" or "or"
    left: "Expr"
    right: "Expr"
    pos: Pos = field(default=_NOWHERE, compare=False, repr=False)


Expr = Union[Num, FeatureRef, VarRef, Call, Unary, BinOp]


@dataclass(frozen=True)
class RuleAst:
    """A parsed rule: ordered bindings followed by the result expression."""

    bindings: tuple[tuple[str, Expr], ...]
    result: Expr
    node_count: int = field(init=False)
    # The names of the features the rule reads, and its largest window: the
    # largest window literal (a `Num`, by the parser) of any call, else 1.
    # Derived, so not compared.
    features: frozenset[str] = field(init=False, compare=False, repr=False)
    max_window: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        nodes = list(walk(*self.roots))
        object.__setattr__(self, "node_count", len(nodes))
        object.__setattr__(self, "features", frozenset(n.name for n in nodes if isinstance(n, FeatureRef)))
        calls = [(n, *BUILTINS[n.name]) for n in nodes if isinstance(n, Call)]
        windows = [call.args[at].value for call, _, at, kind in calls if kind == "window"]
        object.__setattr__(self, "max_window", int(max(windows, default=1)))

    @property
    def roots(self) -> tuple[Expr, ...]:
        """The top-level expressions in source order: each binding's, then the result."""
        return (*(expr for _, expr in self.bindings), self.result)


def children(expr: Expr) -> tuple[Expr, ...]:
    """Direct sub-expressions of `expr`, left to right."""
    if isinstance(expr, (Num, FeatureRef, VarRef)):
        return ()
    if isinstance(expr, Call):
        return expr.args
    if isinstance(expr, Unary):
        return (expr.operand,)
    if isinstance(expr, BinOp):
        return (expr.left, expr.right)
    raise TypeError(f"not an expression node: {expr!r}")


def walk(*roots: Expr) -> Iterator[Expr]:
    """Every node under `roots`, in pre-order, left to right."""
    stack = list(reversed(roots))
    while stack:
        expr = stack.pop()
        yield expr
        stack.extend(reversed(children(expr)))

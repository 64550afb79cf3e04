"""Deterministic interpreter for typechecked rules.

Evaluation is columnar: every sub-expression produces a series of T values
plus a mask of MISSING positions. MISSING arises from `lag` before enough
history exists, from division by a runtime zero, and from non-finite
arithmetic results (overflow); it propagates through arithmetic and
comparisons, while `and`/`or` may still decide when one operand settles the
answer (false and anything is false, true or anything is true). Windowed
builtins are MISSING wherever their trailing window touches a MISSING input.
`ewma` pauses its state over MISSING inputs and resumes on the next datum.

Windowed builtins cost O(T) for any window: `rmin`/`rmax` use the van Herk /
Gil-Werman block scans, and `mean`/`std`/`zscore` use per-block prefix sums
with an error bound that sends the rare ill-conditioned window to an exact
two-pass sum. The evaluation budget still charges node_count x T x
max_window, a deliberately unchanged cap.

Windowed results are kept in an `EvalMemo` tied to one table, so a term
such as `zscore($zone_temp, 720)` that several rules share is computed once.
Only the windowed builtins (`mean`, `std`, `rmin`, `rmax`, `zscore`, `ewma`)
are kept: they cost 18-430 ns/row against 2-7 for elementwise nodes, and
keeping every node would hold six times the memory for little speed. A
memoized series is the one a fresh evaluation computes, bit for bit, so a
score never depends on what the memo holds.

Only the final result coerces MISSING to 0.0: a rule that cannot decide
does not alarm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..timeseries import TimeSeriesTable
from .checker import TypedRule
from .errors import BudgetError
from .nodes import COMPARISONS, BinOp, Call, Expr, FeatureRef, Num, Unary, VarRef

EVAL_BUDGET = 2**28
ZSCORE_EPS = 1e-9
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
# Windowed mean/std/zscore are within this of the exact value, absolute plus
# relative (a tenth of C04's 1e-9); windows whose error bound cannot promise
# it are recomputed by `_two_pass`, _CHUNK gathered values at a time.
_TOL = 1e-10
_CHUNK = 1 << 16
# The builtins whose results an `EvalMemo` keeps.
_MEMOIZED = frozenset({"mean", "std", "rmin", "rmax", "zscore", "ewma"})
# The binary operators that are one numpy ufunc; `/` also masks zero denominators.
_UFUNCS = {
    ">": np.greater, "<": np.less, ">=": np.greater_equal,
    "<=": np.less_equal, "==": np.equal, "!=": np.not_equal,
    "+": np.add, "-": np.subtract, "*": np.multiply,
}
# An `EvalMemo` holds at most this many bytes of series; inserting into a full
# memo evicts its oldest entries first.
MEMO_BYTES = 64 << 20


@dataclass(frozen=True)
class _Series:
    """A sub-expression's values and MISSING mask, both read-only.

    Read-only arrays let a series be shared without copies: a binding read
    by several `VarRef`s, or a mask passed through unchanged.
    """

    values: np.ndarray  # float64, finite at every position, 0.0 where missing
    missing: np.ndarray  # bool

    def __post_init__(self) -> None:
        self.values.setflags(write=False)
        self.missing.setflags(write=False)


def _const(value: float, length: int) -> _Series:
    return _Series(np.full(length, value, dtype=np.float64), np.zeros(length, dtype=bool))


def _clean_arith(values: np.ndarray, mask: np.ndarray) -> _Series:
    """Re-mask non-finite results so series values stay finite everywhere."""
    bad = ~np.isfinite(values)
    if bad.any():
        mask = mask | bad
    return _Series(np.where(mask, 0.0, values), mask)


def _blocks(x: np.ndarray, window: int, pad: float) -> np.ndarray:
    """`x` after window-1 leading `pad` values, padded to whole blocks of `window`.

    Row t sits at padded position t+window-1, so its trailing window is the
    prefix of its own block up to it plus the rest of the block before.
    """
    length = x.shape[0]
    padded = np.full(-(-(length + window - 1) // window) * window, pad)
    padded[window - 1 : window - 1 + length] = x
    return padded.reshape(-1, window)


def _rolling_extreme(x: np.ndarray, window: int, ufunc: np.ufunc, pad: float) -> np.ndarray:
    """Trailing min or max by the van Herk / Gil-Werman block scans.

    Each window combines one block suffix and one block prefix, so the cost
    is O(T) for any window. `pad` (+inf for min, -inf for max) fills the
    partial windows before row w-1.
    """
    length = x.shape[0]
    window = min(window, length)
    blocks = _blocks(x, window, pad)
    prefix = ufunc.accumulate(blocks, axis=1).ravel()
    suffix = ufunc.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    return ufunc(suffix[:length], prefix[window - 1 : window - 1 + length])


def _two_pass(padded: np.ndarray, rows: np.ndarray, window: int, count: np.ndarray):
    """Mean and population std of the trailing windows ending at `rows`.

    `padded` is the series in the `_blocks` layout with zero pads. Windows
    are gathered _CHUNK values at a time, so memory stays bounded.
    """
    mean = np.empty(rows.shape[0])
    std = np.empty(rows.shape[0])
    offsets = np.arange(window)
    step = max(1, _CHUNK // window)
    for lo in range(0, rows.shape[0], step):
        part = slice(lo, lo + step)
        positions = rows[part, None] + offsets
        values = padded[positions]
        mean[part] = values.sum(axis=1) / count[part]
        dev = np.where(positions >= window - 1, values - mean[part, None], 0.0)
        std[part] = np.sqrt(np.einsum("ij,ij->i", dev, dev) / count[part])
    return mean, std


def _window_sums(own: np.ndarray, before: np.ndarray) -> np.ndarray:
    """At (k, q): own[k, :q+1] summed plus before[k-1, q+1:] summed, each by a running sum."""
    sums = np.cumsum(own, axis=1)
    sums[1:, :-1] += np.cumsum(before[:, :0:-1], axis=1)[:, ::-1]
    return sums


def _rolling_moment(x: np.ndarray, window: int, name: str) -> np.ndarray:
    """Trailing-window `mean`, `std` (population) or `zscore` of `x` in O(T).

    Rows before w-1 use the available prefix. A window ending in block k is
    a prefix of block k plus a tail of block k-1, and both are summed as
    distances from block k's mean: that keeps E[x^2]-E[x]^2 free of the
    cancellation an offset like 22 degC causes. Where the worst-case
    rounding error could exceed _TOL (absolute plus relative), the window is
    recomputed by `_two_pass`. Constant windows are exact: mean x, std 0,
    zscore 0.
    """
    length = x.shape[0]
    window = min(window, length)
    if window == 1:
        return x if name == "mean" else np.zeros(length)
    blocks = _blocks(x, window, 0.0)
    starts = np.arange(blocks.shape[0]) * window
    real = np.minimum(starts + window, length + window - 1) - np.maximum(starts, window - 1)
    shift = blocks.sum(axis=1) / real
    own = blocks - shift[:, None]
    own.ravel()[: window - 1] = 0.0
    own.ravel()[window - 1 + length :] = 0.0
    before = blocks[:-1] - shift[1:, None]  # block k-1 measured from block k's shift
    before.ravel()[: window - 1] = 0.0

    count = np.full(blocks.shape, float(window))
    count.ravel()[window - 1 : 2 * window - 2] = np.arange(1, window)
    m = _window_sums(own, before) / count  # window mean minus block k's shift
    rows = slice(window - 1, window - 1 + length)
    # Worst-case relative rounding of sums of up to window+4 terms, with margin.
    gamma = 4.0 * (window + 4) * _UNIT_ROUNDOFF

    if name == "mean":
        out = (m + shift[:, None]).ravel()[rows]
        # The error is at most gamma times the window's largest distance from the shift.
        reach = np.abs(own).max(axis=1)
        reach[1:] = np.maximum(reach[1:], np.abs(before).max(axis=1))
        limit = np.repeat(reach * (2.0 * gamma / _TOL) - 1.0, window)[rows]
        bad = np.abs(out) < limit
    else:
        square = _window_sums(own * own, before * before) / count
        std = np.sqrt(np.maximum(square - m * m, 0.0)).ravel()[rows]
        err_var = (gamma * square).ravel()[rows]  # bounds the variance's rounding error
        if name == "std":
            out = std
            # |error of std| <= min(sqrt(err_var), err_var / std)
            bad = err_var > (0.5 * _TOL) * np.maximum(std * (1.0 + std), 0.5 * _TOL)
        else:
            den = std + ZSCORE_EPS
            out = (own - m).ravel()[rows] / den
            err_num = np.sqrt(gamma * err_var)  # gamma times the RMS distance from the shift
            bad = (err_num > (0.5 * _TOL) * den) | (err_var > (_TOL / 3.0) * std * den)
    # A window is constant when no row in it differs from the row before.
    change = np.zeros(length, dtype=bool)
    change[1:] = x[1:] != x[:-1]
    constant = ~_rolling_any(change, window - 1)
    redo = np.flatnonzero(bad & ~constant)
    if redo.size:
        exact_mean, exact_std = _two_pass(blocks.ravel(), redo, window, count.ravel()[rows][redo])
        if name == "mean":
            out[redo] = exact_mean
        elif name == "std":
            out[redo] = exact_std
        else:
            std[redo] = exact_std
            out[redo] = (x[redo] - exact_mean) / (exact_std + ZSCORE_EPS)
    if name == "zscore":
        # (x - mean) / inf is a finite 0: a window whose variance overflows has no z-score.
        out[~np.isfinite(std)] = np.nan
    return np.where(constant, x if name == "mean" else 0.0, out)


def _rolling_any(flags: np.ndarray, window: int) -> np.ndarray:
    """True where the trailing window holds a flagged row (exact integer counts)."""
    if not flags.any():
        return np.zeros(flags.shape[0], dtype=bool)
    seen = np.cumsum(flags, dtype=np.intp)
    hits = seen.copy()
    hits[window:] -= seen[:-window]
    return hits > 0


def _lag(x: _Series, k: int) -> _Series:
    length = x.values.shape[0]
    values = np.zeros(length, dtype=np.float64)
    mask = np.ones(length, dtype=bool)
    if k < length:
        values[k:] = x.values[: length - k]
        mask[k:] = x.missing[: length - k]
    return _Series(np.where(mask, 0.0, values), mask)


def _ewma(x: _Series, alpha: float) -> _Series:
    length = x.values.shape[0]
    values = np.zeros(length, dtype=np.float64)
    state: float | None = None
    for t in range(length):
        if x.missing[t]:
            continue
        xt = float(x.values[t])
        state = xt if state is None else alpha * xt + (1.0 - alpha) * state
        values[t] = state
    return _Series(values, x.missing)


def _windowed(x: _Series, window: int, name: str) -> _Series:
    mask = _rolling_any(x.missing, window)
    if name == "rmin":
        values = _rolling_extreme(x.values, window, np.minimum, np.inf)
    elif name == "rmax":
        values = _rolling_extreme(x.values, window, np.maximum, -np.inf)
    else:
        # Sums of squares can overflow on finite inputs; such windows are MISSING.
        with np.errstate(over="ignore", invalid="ignore"):
            values = _rolling_moment(x.values, window, name)
    return _clean_arith(values, mask)


def _nbytes(series: _Series) -> int:
    return series.values.nbytes + series.missing.nbytes


class EvalMemo:
    """The windowed sub-expression results of one table, shared by `evaluate` calls.

    A result's key is its node's structure with every `VarRef` replaced by
    the key of the expression bound to it, since one name may mean different
    things in different rules. At most `MEMO_BYTES` of series are kept; an
    insertion that would pass the bound evicts the oldest entries first. The
    memo takes no lock: use it from one thread at a time.
    """

    def __init__(self, table: TimeSeriesTable) -> None:
        self.table = table
        self._series: dict[tuple, _Series] = {}
        self.nbytes = 0

    def __len__(self) -> int:
        return len(self._series)

    def get(self, key: tuple) -> _Series | None:
        return self._series.get(key)

    def put(self, key: tuple, series: _Series) -> None:
        size = _nbytes(series)
        if size > MEMO_BYTES:
            return
        while self.nbytes + size > MEMO_BYTES:
            oldest = next(iter(self._series))
            self.nbytes -= _nbytes(self._series.pop(oldest))
        self._series[key] = series
        self.nbytes += size


class _Evaluator:
    def __init__(self, table: TimeSeriesTable, memo: EvalMemo | None = None) -> None:
        self._memo = EvalMemo(table) if memo is None else memo
        self._table = table
        self._length = table.num_rows
        self._env: dict[str, _Series] = {}
        self._keys: dict[str, tuple] = {}  # each binding's memo key

    def run(self, rule: TypedRule) -> np.ndarray:
        for name, expr in rule.ast.bindings:
            self._keys[name] = self._key(expr)
            self._env[name] = self._eval(expr)
        result = self._eval(rule.ast.result)
        # Final coercion: MISSING scores do not alarm.
        return np.where(result.missing, 0.0, result.values)

    def _eval(self, expr: Expr) -> _Series:
        if isinstance(expr, Num):
            return _const(expr.value, self._length)
        if isinstance(expr, FeatureRef):
            column = np.ascontiguousarray(self._table.column(expr.name))
            return _Series(column, np.zeros(self._length, dtype=bool))
        if isinstance(expr, VarRef):
            return self._env[expr.name]
        if isinstance(expr, Unary):
            operand = self._eval(expr.operand)
            if expr.op == "-":
                return _Series(
                    np.where(operand.missing, 0.0, -operand.values), operand.missing
                )
            # not: Kleene negation
            values = np.where(operand.values == 0.0, 1.0, 0.0)
            return _Series(np.where(operand.missing, 0.0, values), operand.missing)
        if isinstance(expr, BinOp):
            return self._eval_binop(expr)
        if isinstance(expr, Call):
            return self._eval_call(expr)
        raise TypeError(f"not an expression node: {expr!r}")

    def _eval_binop(self, expr: BinOp) -> _Series:
        left = self._eval(expr.left)
        right = self._eval(expr.right)
        op = expr.op
        if op == "and":
            known_false = (~left.missing & (left.values == 0.0)) | (
                ~right.missing & (right.values == 0.0)
            )
            mask = (left.missing | right.missing) & ~known_false
            values = ((left.values != 0.0) & (right.values != 0.0)).astype(np.float64)
            values[known_false] = 0.0
            return _Series(np.where(mask, 0.0, values), mask)
        if op == "or":
            known_true = (~left.missing & (left.values != 0.0)) | (
                ~right.missing & (right.values != 0.0)
            )
            mask = (left.missing | right.missing) & ~known_true
            values = ((left.values != 0.0) | (right.values != 0.0)).astype(np.float64)
            values[known_true] = 1.0
            return _Series(np.where(mask, 0.0, values), mask)
        mask = left.missing | right.missing
        if op in COMPARISONS:
            values = _UFUNCS[op](left.values, right.values).astype(np.float64)
            return _Series(np.where(mask, 0.0, values), mask)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if op == "/":  # a runtime zero denominator is MISSING at that row
                zero_den = ~right.missing & (right.values == 0.0)
                mask = mask | zero_den
                values = np.divide(
                    left.values,
                    right.values,
                    out=np.zeros(self._length, dtype=np.float64),
                    where=~mask,
                )
            else:
                values = _UFUNCS[op](left.values, right.values)
        return _clean_arith(values, mask)

    def _key(self, expr: Expr) -> tuple:
        """`expr`'s memo key: its structure, with bound names replaced by their keys."""
        if isinstance(expr, VarRef):
            return self._keys[expr.name]
        if isinstance(expr, Num):
            # hex() tells 0.0 from -0.0, which compare equal.
            return (Num, expr.value.hex())
        if isinstance(expr, FeatureRef):
            return (FeatureRef, expr.name)
        if isinstance(expr, Call):
            return (Call, expr.name, *map(self._key, expr.args))
        if isinstance(expr, Unary):
            return (Unary, expr.op, self._key(expr.operand))
        return (BinOp, expr.op, self._key(expr.left), self._key(expr.right))

    def _eval_call(self, expr: Call) -> _Series:
        if expr.name not in _MEMOIZED:
            return self._eval_builtin(expr)
        key = self._key(expr)
        series = self._memo.get(key)
        if series is None:
            series = self._eval_builtin(expr)
            self._memo.put(key, series)
        return series

    def _eval_builtin(self, expr: Call) -> _Series:
        name = expr.name
        if name == "abs":
            x = self._eval(expr.args[0])
            return _Series(np.where(x.missing, 0.0, np.abs(x.values)), x.missing)
        if name == "clip":
            x, lo, hi = (self._eval(a) for a in expr.args)
            mask = x.missing | lo.missing | hi.missing
            values = np.clip(x.values, lo.values, hi.values)
            return _Series(np.where(mask, 0.0, values), mask)
        if name in ("mean", "std", "rmin", "rmax", "zscore"):
            return _windowed(self._eval(expr.args[0]), self._literal_int(expr.args[1]), name)
        if name == "lag":
            return _lag(self._eval(expr.args[0]), self._literal_int(expr.args[1]))
        if name == "delta":
            x = self._eval(expr.args[0])
            lagged = _lag(x, self._literal_int(expr.args[1]))
            mask = x.missing | lagged.missing
            values = np.where(mask, 0.0, x.values - lagged.values)
            return _clean_arith(values, mask)
        if name == "ewma":
            arg = expr.args[1]
            assert isinstance(arg, Num)
            return _ewma(self._eval(expr.args[0]), arg.value)
        raise TypeError(f"unknown builtin {name!r}")

    @staticmethod
    def _literal_int(expr: Expr) -> int:
        assert isinstance(expr, Num)  # enforced by the parser
        return int(expr.value)


def evaluate(rule: TypedRule, table: TimeSeriesTable, memo: EvalMemo | None = None) -> np.ndarray:
    """Evaluate a typechecked rule over all rows, returning finite scores.

    Windowed results are looked up in, and added to, `memo`, which must
    belong to `table` (a `ValueError` otherwise); without one, the call
    makes its own, so repeats within the rule are still computed once. The
    scores are the same, bit for bit, whatever the memo holds.

    Every builtin, windowed or not, costs O(T) per node. Even so, the budget
    still charges node_count x T x max_window whether or not the memo holds
    a node, so the set of accepted rules stays what it was when windows cost
    O(T x w). Raises `BudgetError` when that exceeds the fixed evaluation
    budget, before any work; the caller is expected to mark such candidates
    invalid rather than retry.
    """
    if memo is not None and memo.table is not table:
        raise ValueError("the memo belongs to another table")
    cost = rule.node_count * table.num_rows * rule.max_window
    if cost > EVAL_BUDGET:
        raise BudgetError(
            f"evaluation budget exceeded: {rule.node_count} nodes x {table.num_rows} rows "
            f"x window {rule.max_window} = {cost} > {EVAL_BUDGET}"
        )
    return _Evaluator(table, memo).run(rule)


def to_flags(scores: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Binarize scores with a strict > comparison."""
    return (np.asarray(scores, dtype=np.float64) > threshold).astype(np.uint8)

"""Deterministic interpreter for typechecked rules.

Evaluation is columnar: every sub-expression produces one float64 array of
T values in which NaN marks MISSING. Nothing else can be NaN:
`TimeSeriesTable` rejects non-finite cells, and every result that turns
non-finite (an overflow, `x/0`, `0/0`) is made MISSING on the spot. Bindings
and memoized results are read-only, so they are shared without copies.

MISSING arises from `lag` before enough history exists, from division by a
runtime zero, and from non-finite results. IEEE arithmetic carries it
through `+ - * /`, unary `-`, `abs`, `clip`, `lag` and `delta`, and
comparisons re-mark the rows where an operand is MISSING. Only `and`/`or`/
`not` are Kleene: `and`/`or` may still decide when one operand settles the
answer (false and anything is false, true or anything is true). Windowed
builtins are MISSING wherever their trailing window touches a MISSING input.
`ewma` pauses its state over MISSING inputs and resumes on the next datum.

Each builtin is one kernel in `_KERNELS`, keyed by the names of
`nodes.BUILTINS`. A call evaluates its series arguments and passes them to the
kernel, then its literal, if it has one, converted by the literal's kind: a
window or lag as an int, `ewma`'s smoothing factor as a float.

Windowed builtins cost O(T) for any window: `rmin`/`rmax` use the van Herk /
Gil-Werman block scans, and `mean`/`std`/`zscore` use per-block prefix sums
with an error bound that sends the rare ill-conditioned window to an exact
two-pass sum. The evaluation budget charges the work done: node_count x T
before any work, plus the length of each window summed exactly, charged
before the sum is made. `EVAL_BUDGET` caps the total.

Windowed results are kept in an `EvalMemo` tied to one table, so a term
such as `zscore($zone_temp, 720)` that several rules share is computed once.
Only the windowed builtins (`mean`, `std`, `rmin`, `rmax`, `zscore`, `ewma`)
are kept: they cost 18-430 ns/row against 2-7 for elementwise nodes, and
keeping every node would hold six times the memory for little speed. An
entry holds the series a fresh evaluation computes, bit for bit, and the
charges made while computing it, which a hit replays one by one, so neither
a score nor the budget's verdict depends on what the memo holds.

Only the final result coerces MISSING to 0.0: a rule that cannot decide
does not alarm.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import fields

import numpy as np

from ..timeseries import TimeSeriesTable
from .checker import TypedRule
from .errors import BudgetError
from .nodes import BUILTINS, COMPARISONS, BinOp, Call, Expr, FeatureRef, Num, Unary, VarRef, children

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
# The binary operators that are one numpy ufunc.
_UFUNCS = {
    ">": np.greater, "<": np.less, ">=": np.greater_equal,
    "<=": np.less_equal, "==": np.equal, "!=": np.not_equal,
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
}
# An `EvalMemo` holds at most this many bytes of series; inserting into a full
# memo evicts its oldest entries first.
MEMO_BYTES = 64 << 20
# The evaluation that this thread's kernels charge; `_Evaluator.run` sets it.
_RUNNING: ContextVar[_Evaluator] = ContextVar("running evaluation")


def _missing(values: np.ndarray, mask: np.ndarray | bool = False) -> np.ndarray:
    """`values` with MISSING (NaN) where `mask` is set or a value is not finite."""
    return np.where(mask | ~np.isfinite(values), np.nan, values)


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
        # The one O(T x w) path: charged before any of its work is done.
        _RUNNING.get().charge(redo.size * window)
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


def _lag(x: np.ndarray, k: int) -> np.ndarray:
    length = x.shape[0]
    out = np.full(length, np.nan)
    out[k:] = x[: max(length - k, 0)]
    return out


def _delta(x: np.ndarray, k: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        return _missing(x - _lag(x, k))


def _ewma(x: np.ndarray, alpha: float) -> np.ndarray:
    out = []
    state: float | None = None
    for xt in x.tolist():
        if xt == xt:  # MISSING (NaN) rows pass through and leave the state as it was
            state = xt if state is None else alpha * xt + (1.0 - alpha) * state
            out.append(state)
        else:
            out.append(xt)
    return np.array(out, dtype=np.float64)


def _windowed(x: np.ndarray, window: int, name: str) -> np.ndarray:
    # The kernels take finite input: MISSING rows enter as 0.0, and every
    # window that touches one is MISSING.
    gaps = np.isnan(x)
    x = np.where(gaps, 0.0, x)
    if name == "rmin":
        values = _rolling_extreme(x, window, np.minimum, np.inf)
    elif name == "rmax":
        values = _rolling_extreme(x, window, np.maximum, -np.inf)
    else:
        # Sums of squares can overflow on finite inputs; such windows are MISSING.
        with np.errstate(over="ignore", invalid="ignore"):
            values = _rolling_moment(x, window, name)
    return _missing(values, _rolling_any(gaps, window))


# builtin -> its kernel, called with the evaluated series arguments and then the
# literal converted by its kind in `BUILTINS`. The windowed kernels look
# `_windowed` up when called, so that a patched `_windowed` sees every call.
_KERNELS = {
    "abs": np.abs,
    "clip": np.clip,
    **{
        name: lambda x, window, name=name: _windowed(x, window, name)
        for name in ("mean", "std", "rmin", "rmax", "zscore")
    },
    "lag": _lag,
    "delta": _delta,
    "ewma": _ewma,
}
_LITERAL_TYPES = {"window": int, "alpha": float}


class EvalMemo:
    """The windowed sub-expression results of one table, shared by `evaluate` calls.

    A result's key is its node's structure, with every `VarRef` keyed by the
    expression bound to it, since one name may mean different things in
    different rules. An entry holds the result's series and its charges: in
    order, the window values summed exactly by its kernel and by every call
    under it while it was computed. A hit replays those charges. At most
    `MEMO_BYTES` of series are kept; an insertion that would pass the bound
    evicts the oldest entries first, charges and all. The memo takes no
    lock: use it from one thread at a time.
    """

    def __init__(self, table: TimeSeriesTable) -> None:
        self.table = table
        self._entries: dict[tuple, tuple[np.ndarray, tuple[int, ...]]] = {}
        self.nbytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> tuple[np.ndarray, tuple[int, ...]] | None:
        return self._entries.get(key)

    def put(self, key: tuple, series: np.ndarray, charges: tuple[int, ...]) -> None:
        if series.nbytes > MEMO_BYTES:
            return
        while self.nbytes + series.nbytes > MEMO_BYTES:
            self.nbytes -= self._entries.pop(next(iter(self._entries)))[0].nbytes
        self._entries[key] = series, charges
        self.nbytes += series.nbytes


class _Evaluator:
    def __init__(self, table: TimeSeriesTable, memo: EvalMemo | None = None) -> None:
        self._memo = EvalMemo(table) if memo is None else memo
        self._table = table
        self._length = table.num_rows
        self._env: dict[str, tuple[np.ndarray, tuple]] = {}  # each binding's series and memo key
        self._nodes = 0
        self._exact = 0  # window values charged for exact sums so far
        self._charges: list[int] = []  # each of those charges, in order

    def run(self, rule: TypedRule) -> np.ndarray:
        self._nodes = rule.ast.node_count
        self.charge(0)  # node_count x T, before any work
        token = _RUNNING.set(self)
        try:
            for name, expr in rule.ast.bindings:
                series = self._eval(expr)
                # Read-only, so that every `VarRef` to it shares the one array.
                series.setflags(write=False)
                self._env[name] = series, (VarRef, self._key(expr))
            result = self._eval(rule.ast.result)
        finally:
            _RUNNING.reset(token)
        # Final coercion: MISSING scores do not alarm.
        return np.where(np.isnan(result), 0.0, result)

    def charge(self, values: int) -> None:
        """Charge `values` more window values summed exactly; `BudgetError` past `EVAL_BUDGET`."""
        self._charges.append(values)
        self._exact += values
        cost = self._nodes * self._length + self._exact
        if cost > EVAL_BUDGET:
            raise BudgetError(
                f"evaluation budget exceeded: {self._nodes} nodes x {self._length} rows "
                f"+ {self._exact} window values summed exactly = {cost} > {EVAL_BUDGET}"
            )

    def _eval(self, expr: Expr) -> np.ndarray:
        if isinstance(expr, Num):
            return np.full(self._length, expr.value)
        if isinstance(expr, FeatureRef):
            return np.ascontiguousarray(self._table.column(expr.name))
        if isinstance(expr, VarRef):
            return self._env[expr.name][0]
        if isinstance(expr, Unary):
            operand = self._eval(expr.operand)
            # `not` over 0/1 booleans; 1 - NaN keeps MISSING.
            return -operand if expr.op == "-" else 1.0 - operand
        if isinstance(expr, BinOp):
            return self._eval_binop(expr)
        if isinstance(expr, Call):
            return self._eval_call(expr)
        raise TypeError(f"not an expression node: {expr!r}")

    def _eval_binop(self, expr: BinOp) -> np.ndarray:
        left = self._eval(expr.left)
        right = self._eval(expr.right)
        op = expr.op
        # Kleene logic over the checker's 0/1/NaN booleans.
        if op == "and":  # a false operand decides; else 1*1 = 1 and NaN stays MISSING
            return np.where((left == 0.0) | (right == 0.0), 0.0, left * right)
        if op == "or":  # a true operand decides; else 0+0 = 0 and NaN stays MISSING
            return np.where((left == 1.0) | (right == 1.0), 1.0, left + right)
        if op in COMPARISONS:
            values = _UFUNCS[op](left, right).astype(np.float64)
            return np.where(np.isnan(left) | np.isnan(right), np.nan, values)
        # An overflow, x/0 or 0/0 is non-finite, so MISSING.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _missing(_UFUNCS[op](left, right))

    def _key(self, expr: Expr) -> tuple:
        """`expr`'s memo key: its structure, with each bound name keyed by its expression.

        A node's key is its type, its first field (a name or an operator) and
        its children's keys. A bound name's key is `VarRef` and its
        expression's key: its expression was charged where it was bound, so
        a call over the name charges less than the same call written out.
        """
        if isinstance(expr, VarRef):
            return self._env[expr.name][1]
        if isinstance(expr, Num):
            # hex() tells 0.0 from -0.0, which compare equal.
            return (Num, expr.value.hex())
        label = getattr(expr, fields(expr)[0].name)
        return (type(expr), label, *map(self._key, children(expr)))

    def _eval_call(self, expr: Call) -> np.ndarray:
        if expr.name not in _MEMOIZED:
            return _KERNELS[expr.name](*self._eval_args(expr))
        key = self._key(expr)
        entry = self._memo.get(key)
        if entry is not None:
            series, charges = entry
            for values in charges:
                self.charge(values)
            return series
        start = len(self._charges)
        series = _KERNELS[expr.name](*self._eval_args(expr))
        series.setflags(write=False)
        self._memo.put(key, series, tuple(self._charges[start:]))
        return series

    def _eval_args(self, expr: Call) -> list:
        """The kernel's arguments: the evaluated series, then the literal converted by its kind."""
        _, literal_at, kind = BUILTINS[expr.name]
        args = [self._eval(arg) for at, arg in enumerate(expr.args) if at != literal_at]
        if literal_at is not None:
            args.append(_LITERAL_TYPES[kind](expr.args[literal_at].value))  # a `Num`, by the parser
        return args


def evaluate(rule: TypedRule, table: TimeSeriesTable, memo: EvalMemo | None = None) -> np.ndarray:
    """Evaluate a typechecked rule over all rows, returning finite scores.

    Windowed results are looked up in, and added to, `memo`, which must
    belong to `table` (a `ValueError` otherwise); without one, the call
    makes its own, so repeats within the rule are still computed once. The
    scores are the same, bit for bit, whatever the memo holds.

    The budget charges node_count x T before any work, then the length of
    each window that `mean`, `std` or `zscore` sums exactly, before summing
    it. A memo entry holds its series and the charges made while computing
    it, and a hit replays those charges in order. Raises
    `BudgetError` as soon as the total exceeds `EVAL_BUDGET`, so the verdict
    depends only on the rule and the table; the caller is expected to mark
    such candidates invalid rather than retry.
    """
    if memo is not None and memo.table is not table:
        raise ValueError("the memo belongs to another table")
    return _Evaluator(table, memo).run(rule)


def to_flags(scores: np.ndarray, threshold: float) -> np.ndarray:
    """Binarize scores: a row is flagged when its score is strictly above `threshold`."""
    return (np.asarray(scores, dtype=np.float64) > threshold).astype(np.uint8)

"""Brute-force reference implementations the test suite scores against.

Everything here is written with plain loops, straight from the definitions,
and deliberately shares no code with the package. Slow is fine; independent
is the point.
"""

from __future__ import annotations

import csv
import io
import math


def incidents_brute(labels) -> list[tuple[int, int]]:
    """Maximal runs of consecutive 1s as inclusive (start, end) spans."""
    spans = []
    start = None
    for i, value in enumerate(labels):
        if value == 1 and start is None:
            start = i
        elif value == 0 and start is not None:
            spans.append((start, i - 1))
            start = None
    if start is not None:
        spans.append((start, len(labels) - 1))
    return spans


def confusion_brute(flags, labels) -> tuple[int, int, int, int]:
    tp = fp = fn = tn = 0
    for f, y in zip(flags, labels):
        if f == 1 and y == 1:
            tp += 1
        elif f == 1 and y == 0:
            fp += 1
        elif f == 0 and y == 1:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def prf_brute(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    if precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1 = 0.0
    return precision, recall, f1


def point_adjust_brute(flags, spans) -> list[int]:
    adjusted = list(flags)
    for start, end in spans:
        if any(adjusted[start : end + 1]):
            for i in range(start, end + 1):
                adjusted[i] = 1
    return adjusted


def event_f1_pa_brute(flags, labels) -> tuple[float, float, float]:
    """Literal enumeration of the event-PA definition."""
    spans = incidents_brute(labels)
    tp_events = 0
    for start, end in spans:
        if any(flags[i] == 1 for i in range(start, end + 1)):
            tp_events += 1
    fn_events = len(spans) - tp_events
    fp_points = sum(1 for f, y in zip(flags, labels) if f == 1 and y == 0)
    precision = tp_events / (tp_events + fp_points) if tp_events + fp_points > 0 else 0.0
    recall = tp_events / (tp_events + fn_events) if tp_events + fn_events > 0 else 0.0
    if precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1 = 0.0
    return precision, recall, f1


def _window(values, t: int, w: int) -> list[float]:
    return list(values[max(0, t - w + 1) : t + 1])


def rolling_mean_brute(values, w: int) -> list[float]:
    return [sum(_window(values, t, w)) / len(_window(values, t, w)) for t in range(len(values))]


def rolling_std_brute(values, w: int) -> list[float]:
    out = []
    for t in range(len(values)):
        win = _window(values, t, w)
        mu = sum(win) / len(win)
        out.append(math.sqrt(sum((x - mu) ** 2 for x in win) / len(win)))
    return out


def rolling_min_brute(values, w: int) -> list[float]:
    return [min(_window(values, t, w)) for t in range(len(values))]


def rolling_max_brute(values, w: int) -> list[float]:
    return [max(_window(values, t, w)) for t in range(len(values))]


def lag_brute(values, k: int, fill: float = 0.0) -> list[float]:
    """lag with the MISSING prefix already coerced to `fill`."""
    return [fill if t < k else values[t - k] for t in range(len(values))]


def ewma_brute(values, alpha: float) -> list[float]:
    out = []
    state = None
    for x in values:
        state = x if state is None else alpha * x + (1 - alpha) * state
        out.append(state)
    return out


def zscore_brute(values, w: int, eps: float = 1e-9) -> list[float]:
    means = rolling_mean_brute(values, w)
    stds = rolling_std_brute(values, w)
    return [(x - mu) / (sd + eps) for x, mu, sd in zip(values, means, stds)]


def window_brute(name: str, values, t: int, w: int, eps: float = 1e-9) -> float:
    """Row t of the rolling `name` (mean, std, rmin, rmax or zscore) above, from its window alone."""
    win = _window(values, t, w)
    mu = sum(win) / len(win)
    sd = math.sqrt(sum((x - mu) ** 2 for x in win) / len(win))
    return {
        "mean": mu,
        "std": sd,
        "rmin": min(win),
        "rmax": max(win),
        "zscore": (values[t] - mu) / (sd + eps),
    }[name]


def _finite(value: float) -> float | None:
    return value if math.isfinite(value) else None


def rule_brute(ast, columns: dict[str, list[float]], nudge: float = 0.0, eps: float = 1e-9) -> list:
    """A parsed rule's scores, row by row, with None for MISSING.

    `ast` is the rule as parsed; nodes are told apart by class name, so
    nothing here comes from the package. MISSING is `lag` before its
    history, a runtime zero denominator, any non-finite result, and every
    window that touches a MISSING row; it carries through arithmetic, `abs`,
    `clip` and comparisons. `ewma` skips MISSING rows and keeps its state.
    `and`/`or`/`not` are Kleene: a false (true) operand decides `and` (`or`)
    even when the other is MISSING. The interpreter scores a MISSING row 0.0.

    Every other operation rounds as IEEE arithmetic does, except `mean`,
    `std` and `zscore` over a window that is not constant, whose rounding
    depends on the summation. `nudge` moves each such result v of the k-th
    distinct call evaluated by nudge * (k + 1) * (1 + |v|), with the sign
    flipped on odd rows: a row whose score moves under a tiny nudge is
    decided by that rounding (a tie, a near-zero denominator, a
    near-constant window). Equal calls round alike, so they move alike.
    """
    bindings = dict(ast.bindings)
    length = len(next(iter(columns.values())))
    seen: dict[tuple[int, int], float | None] = {}
    order: dict = {}  # each distinct windowed call's k

    def at(expr, t: int) -> float | None:
        key = (id(expr), t)
        if key not in seen:
            seen[key] = row(expr, t)
        return seen[key]

    def row(expr, t: int) -> float | None:
        kind = type(expr).__name__
        if kind == "Num":
            return expr.value
        if kind == "FeatureRef":
            return columns[expr.name][t]
        if kind == "VarRef":
            return at(bindings[expr.name], t)
        if kind == "Unary":
            x = at(expr.operand, t)
            if x is None:
                return None
            return -x if expr.op == "-" else float(x == 0.0)
        if kind == "BinOp":
            return binop(expr.op, at(expr.left, t), at(expr.right, t))
        return call(expr, t)

    def binop(op: str, x: float | None, y: float | None) -> float | None:
        if op == "and":
            return 0.0 if 0.0 in (x, y) else None if None in (x, y) else 1.0
        if op == "or":
            return 1.0 if 1.0 in (x, y) else None if None in (x, y) else 0.0
        if x is None or y is None:
            return None
        if op in (">", "<", ">=", "<=", "==", "!="):
            return float({">": x > y, "<": x < y, ">=": x >= y, "<=": x <= y, "==": x == y, "!=": x != y}[op])
        if op == "/":
            return None if y == 0.0 else _finite(x / y)
        return _finite({"+": x + y, "-": x - y, "*": x * y}[op])

    def call(expr, t: int) -> float | None:
        name, args = expr.name, expr.args
        if name == "ewma":
            state = None
            for s in range(t + 1):
                x = at(args[0], s)
                if x is not None:
                    state = x if state is None else args[1].value * x + (1 - args[1].value) * state
            return None if at(args[0], t) is None else state
        if name == "clip":
            x, lo, hi = (at(arg, t) for arg in args)
            return None if None in (x, lo, hi) else min(max(x, lo), hi)
        x = at(args[0], t)
        if name == "abs":
            return None if x is None else abs(x)
        k = int(args[1].value)
        if name in ("lag", "delta"):
            before = at(args[0], t - k) if t >= k else None
            if name == "lag" or x is None or before is None:
                return before
            return _finite(x - before)
        window = [at(args[0], s) for s in range(max(0, t - k + 1), t + 1)]
        if any(v is None for v in window):
            return None
        if name in ("rmin", "rmax"):
            return min(window) if name == "rmin" else max(window)
        if min(window) == max(window):  # a constant window: the mean is exact, the spread 0
            return {"mean": x, "std": 0.0, "zscore": 0.0}[name]
        mu = sum(window) / len(window)
        sd = math.sqrt(sum((v - mu) * (v - mu) for v in window) / len(window))
        # A window whose spread overflows has no z-score.
        zscore = (x - mu) / (sd + eps) if math.isfinite(sd) else math.nan
        value = {"mean": mu, "std": sd, "zscore": zscore}[name]
        step = nudge * (order.setdefault(expr, len(order)) + 1) * (-1) ** t
        return _finite(value + step * (1.0 + abs(value)))

    return [at(ast.result, t) for t in range(length)]


def save_csv_brute(table) -> bytes:
    """A table as CSV, one cell at a time through `csv.writer`."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    header = ["timestamp", *table.feature_names]
    if table.labels is not None:
        header.append("label")
    writer.writerow(header)
    for i in range(table.num_rows):
        row = [str(int(table.timestamps[i]))]
        row.extend(repr(float(v)) for v in table.values[i])
        if table.labels is not None:
            row.append(str(int(table.labels[i])))
        writer.writerow(row)
    return out.getvalue().encode("utf-8")


def load_csv_brute(text: str, feature_names) -> tuple[list[int], list[list[float]], list[int] | None]:
    """Stamps, feature rows and labels of a CSV, one cell at a time through `csv.reader`.

    Reads the layout `save_csv` writes: integer stamps, no blank or short rows.
    """
    records = list(csv.reader(io.StringIO(text)))
    header = records[0]
    stamp_col = header.index("timestamp")
    feature_cols = [header.index(name) for name in feature_names]
    label_col = header.index("label") if "label" in header else None
    stamps, rows, labels = [], [], []
    for record in records[1:]:
        stamps.append(int(record[stamp_col]))
        rows.append([float(record[col]) for col in feature_cols])
        if label_col is not None:
            labels.append(int(record[label_col]))
    return stamps, rows, labels if label_col is not None else None

"""Detection metrics: pointwise, point-adjusted, and event-level scoring.

The event-level score treats every labeled incident as one detection target:
an incident counts as a true positive when at least one of its rows is
flagged, while false positives are still charged per flagged row outside any
incident. This rewards catching an incident anywhere in its span without
letting a rule spam alarms for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .timeseries import incidents_from_labels

METRIC_MODES = ("pointwise", "point_adjusted", "event_pa")


@dataclass(frozen=True)
class ConfusionCounts:
    """Confusion counts over aligned flag/label vectors.

    `tp` and `fn` count rows or incidents, as the scoring mode says; `fp`
    and `tn` always count rows.
    """

    tp: int
    fp: int
    fn: int
    tn: int


@dataclass(frozen=True)
class MetricReport:
    precision: float
    recall: float
    f1: float
    mode: str

    def __post_init__(self) -> None:
        if self.mode not in METRIC_MODES:
            raise ValueError(f"unknown metric mode {self.mode!r}")

    def line(self) -> str:
        """Render the single-line summary used by the CLI."""
        return (
            f"mode={self.mode} precision={self.precision:.6f} "
            f"recall={self.recall:.6f} f1={self.f1:.6f}"
        )


# No generated __eq__: `hits` is an array, which has no single truth value.
@dataclass(frozen=True, eq=False)
class Verdict:
    """One flag vector read against the incidents of its labels.

    `hits[i]` counts the flagged rows of `incidents[i]`, an inclusive
    (start, end) span; `false_alarms` counts the flagged rows outside every
    incident. Every scoring mode is a function of these.
    """

    rows: int
    incidents: tuple[tuple[int, int], ...]
    hits: np.ndarray
    false_alarms: int

    def counts(self, mode: str) -> ConfusionCounts:
        """Confusion counts of `mode`.

        A true positive is a flagged incident row in `pointwise`, a row of a
        caught incident in `point_adjusted`, and a caught incident in
        `event_pa`. An incident is caught when any of its rows is flagged.
        """
        sizes = np.array([end - start + 1 for start, end in self.incidents], dtype=np.int64)
        label_rows = int(sizes.sum())
        caught = self.hits > 0
        if mode == "pointwise":
            tp, positives = int(self.hits.sum()), label_rows
        elif mode == "point_adjusted":
            tp, positives = int(sizes[caught].sum()), label_rows
        elif mode == "event_pa":
            tp, positives = int(caught.sum()), len(self.incidents)
        else:
            raise ValueError(f"unknown metric mode {mode!r}")
        fp = self.false_alarms
        return ConfusionCounts(tp=tp, fp=fp, fn=positives - tp, tn=self.rows - label_rows - fp)


def _as_binary(vec: Sequence[int] | np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(vec)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be 1-D")
    if arr.size and not np.all((arr == 0) | (arr == 1)):
        raise ValueError(f"{what} must contain only 0 and 1")
    return arr.astype(np.uint8)


def verdict(flags: Sequence[int] | np.ndarray, labels: Sequence[int] | np.ndarray) -> Verdict:
    """Read a flag vector against the incidents of its labels, counting hits with one prefix sum."""
    f = _as_binary(flags, "flags")
    y = _as_binary(labels, "labels")
    if f.shape != y.shape:
        raise ValueError(f"flags ({f.size}) and labels ({y.size}) differ in length")
    incidents = incidents_from_labels(y)
    spans = np.array(incidents, dtype=np.intp).reshape(-1, 2)
    # flagged[i] counts the flagged rows before row i.
    flagged = np.concatenate(([0], np.cumsum(f, dtype=np.int64)))
    hits = flagged[spans[:, 1] + 1] - flagged[spans[:, 0]]
    return Verdict(
        rows=f.size,
        incidents=incidents,
        hits=hits,
        false_alarms=int(flagged[-1] - hits.sum()),
    )


def confusion(flags: Sequence[int] | np.ndarray, labels: Sequence[int] | np.ndarray) -> ConfusionCounts:
    """Count pointwise agreement between flags and ground-truth labels."""
    return verdict(flags, labels).counts("pointwise")


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _f1(precision: float, recall: float) -> float:
    return _ratio(2.0 * precision * recall, precision + recall)


def precision_recall_f1(counts: ConfusionCounts, mode: str = "pointwise") -> MetricReport:
    """Derive precision/recall/F1 from confusion counts; 0/0 ratios are 0."""
    precision = _ratio(counts.tp, counts.tp + counts.fp)
    recall = _ratio(counts.tp, counts.tp + counts.fn)
    return MetricReport(precision=precision, recall=recall, f1=_f1(precision, recall), mode=mode)


def pointwise_report(flags, labels) -> MetricReport:
    return precision_recall_f1(confusion(flags, labels), mode="pointwise")


def point_adjusted_report(flags, labels) -> MetricReport:
    """Pointwise scoring after a hit anywhere in an incident credits its whole span."""
    return precision_recall_f1(verdict(flags, labels).counts("point_adjusted"), mode="point_adjusted")


def event_f1_pa(flags, labels) -> MetricReport:
    """Event-level F1 with point adjustment.

    Incidents are maximal runs of label 1. An incident is a true positive
    when any of its rows is flagged, otherwise a false negative; every
    flagged row outside all incidents is one false positive. Hence
    recall = TP_e / (TP_e + FN_e) and precision = TP_e / (TP_e + FP_p),
    with empty denominators scoring 0.
    """
    return precision_recall_f1(verdict(flags, labels).counts("event_pa"), mode="event_pa")

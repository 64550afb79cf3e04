import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pillm.metrics import (
    ConfusionCounts,
    confusion,
    event_f1_pa,
    point_adjusted_report,
    pointwise_report,
    precision_recall_f1,
    verdict,
)
from pillm.timeseries import incidents_from_labels

from . import reference

binary_vec = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=20)


class TestConfusion:
    def test_hand_count(self):
        counts = confusion([1, 0, 1, 0], [1, 1, 0, 0])
        assert counts == ConfusionCounts(tp=1, fp=1, fn=1, tn=1)

    def test_identity(self):
        assert confusion([1, 1], [1, 1]) == ConfusionCounts(2, 0, 0, 0)

    def test_all_negative(self):
        assert confusion([0, 0], [0, 0]).tn == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([1], [1, 0])

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            confusion([2], [0])

    @given(st.tuples(binary_vec, binary_vec))
    def test_matches_reference(self, pair):
        flags, labels = pair
        n = min(len(flags), len(labels))
        flags, labels = flags[:n], labels[:n]
        counts = confusion(flags, labels)
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == reference.confusion_brute(
            flags, labels
        )
        assert counts.tp + counts.fp + counts.fn + counts.tn == n


class TestPrecisionRecallF1:
    def test_worked_example(self):
        report = precision_recall_f1(ConfusionCounts(tp=3, fp=1, fn=2, tn=0))
        assert report.precision == pytest.approx(0.75, abs=1e-9)
        assert report.recall == pytest.approx(0.6, abs=1e-9)
        assert report.f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35, abs=1e-9)
        assert report.f1 == pytest.approx(0.666667, abs=1e-6)

    def test_degenerate_zero_convention(self):
        report = precision_recall_f1(ConfusionCounts(0, 0, 0, 4))
        assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)

    def test_perfect(self):
        report = precision_recall_f1(ConfusionCounts(5, 0, 0, 0))
        assert report.f1 == 1.0

    def test_line_format(self):
        report = precision_recall_f1(ConfusionCounts(3, 1, 2, 0), mode="pointwise")
        assert (
            report.line()
            == "mode=pointwise precision=0.750000 recall=0.600000 f1=0.666667"
        )


def _runs(first: int, lengths: list[int]) -> list[int]:
    """A 0/1 vector of alternating runs of the given lengths, the first of value `first`."""
    return [(first + i) % 2 for i, length in enumerate(lengths) for _ in range(length)]


def _brute_reports(flags, labels) -> dict[str, tuple[float, float, float]]:
    adjusted = reference.point_adjust_brute(flags, reference.incidents_brute(labels))
    return {
        "pointwise": reference.prf_brute(*reference.confusion_brute(flags, labels)[:3]),
        "point_adjusted": reference.prf_brute(*reference.confusion_brute(adjusted, labels)[:3]),
        "event_pa": reference.event_f1_pa_brute(flags, labels),
    }


class TestPointAdjust:
    """Point adjustment marks every row of a caught incident as flagged.

    The point-adjusted counts of a verdict must equal the confusion counts of
    the adjusted flag vector, written out here or built by the brute oracle.
    """

    def test_hand_application(self):
        labels = [0, 0, 1, 1, 1, 0]
        counts = verdict([0, 0, 0, 1, 0, 0], labels).counts("point_adjusted")
        assert counts == confusion([0, 0, 1, 1, 1, 0], labels)

    def test_missed_incident_unchanged(self):
        flags, labels = [0, 0, 0, 0], [0, 1, 1, 0]
        assert verdict(flags, labels).counts("point_adjusted") == confusion(flags, labels)

    def test_stray_flag_preserved(self):
        flags, labels = [1, 0, 0, 1], [0, 1, 1, 0]
        counts = verdict(flags, labels).counts("point_adjusted")
        assert counts == confusion(flags, labels) == ConfusionCounts(tp=0, fp=2, fn=2, tn=0)

    @given(st.tuples(binary_vec, binary_vec))
    def test_idempotent_and_monotone(self, pair):
        flags, labels = pair
        n = min(len(flags), len(labels))
        flags, labels = flags[:n], labels[:n]
        adjusted = reference.point_adjust_brute(flags, reference.incidents_brute(labels))
        once = verdict(flags, labels).counts("point_adjusted")
        assert once == confusion(adjusted, labels)
        assert verdict(adjusted, labels).counts("point_adjusted") == once
        # PA never clears a flag: it gains true positives and keeps the false alarms.
        pointwise = confusion(flags, labels)
        assert once.tp >= pointwise.tp
        assert once.fp == pointwise.fp


class TestPointAdjustedReport:
    @given(st.tuples(binary_vec, binary_vec))
    def test_matches_reference(self, pair):
        flags, labels = pair
        n = min(len(flags), len(labels))
        flags, labels = flags[:n], labels[:n]
        expected = _brute_reports(flags, labels)["point_adjusted"]
        report = point_adjusted_report(flags, labels)
        assert (report.precision, report.recall, report.f1) == expected


class TestVerdict:
    # Label runs up to 2,000 rows put incidents at the first and last rows,
    # one row long, and all-ones or all-zero: the edges of the flag prefix sum.
    @given(
        first=st.integers(min_value=0, max_value=1),
        lengths=st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=100),
        density=st.sampled_from((0.0, 0.003, 0.05, 0.5, 1.0)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(first=1, lengths=[2000], density=0.5, seed=0)
    @example(first=0, lengths=[2000], density=0.5, seed=0)
    @example(first=1, lengths=[1, 1, 1, 1, 1], density=1.0, seed=0)
    @settings(max_examples=200, deadline=None)
    def test_all_modes_match_reference(self, first, lengths, density, seed):
        labels = _runs(first, lengths)
        flags = (np.random.default_rng(seed).random(len(labels)) < density).astype(int).tolist()
        reports = {
            "pointwise": pointwise_report(flags, labels),
            "point_adjusted": point_adjusted_report(flags, labels),
            "event_pa": event_f1_pa(flags, labels),
        }
        for mode, (p, r, f1) in _brute_reports(flags, labels).items():
            report = reports[mode]
            assert (report.mode, report.precision, report.recall, report.f1) == (mode, p, r, f1)
        tp, fp, fn, tn = reference.confusion_brute(flags, labels)
        assert confusion(flags, labels) == ConfusionCounts(tp, fp, fn, tn)

    def test_hits_and_false_alarms(self):
        result = verdict([1, 1, 0, 1, 0, 0, 1, 1], [1, 0, 0, 1, 1, 0, 0, 1])
        assert result.incidents == ((0, 0), (3, 4), (7, 7))
        assert result.hits.tolist() == [1, 1, 1]
        assert result.false_alarms == 2

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown metric mode"):
            verdict([0], [1]).counts("pa")


class TestEventF1PA:
    def test_worked_eight_point_example(self):
        labels = [0, 1, 1, 0, 0, 1, 1, 0]
        flags = [0, 0, 1, 0, 1, 0, 0, 0]
        report = event_f1_pa(flags, labels)
        assert report.precision == pytest.approx(0.5, abs=1e-9)
        assert report.recall == pytest.approx(0.5, abs=1e-9)
        assert report.f1 == pytest.approx(0.5, abs=1e-9)

    def test_perfect_detector(self):
        labels = [0, 1, 1, 0, 1]
        report = event_f1_pa(labels, labels)
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)

    def test_silent_detector(self):
        report = event_f1_pa([0, 0, 0], [0, 1, 1])
        assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            event_f1_pa([0], [0, 1])

    @given(st.tuples(binary_vec, binary_vec))
    @settings(max_examples=300)
    def test_matches_reference(self, pair):
        flags, labels = pair
        n = min(len(flags), len(labels))
        flags, labels = flags[:n], labels[:n]
        report = event_f1_pa(flags, labels)
        p, r, f1 = reference.event_f1_pa_brute(flags, labels)
        assert report.precision == pytest.approx(p, abs=1e-12)
        assert report.recall == pytest.approx(r, abs=1e-12)
        assert report.f1 == pytest.approx(f1, abs=1e-12)
        for value in (report.precision, report.recall, report.f1):
            assert 0.0 <= value <= 1.0

    @given(st.tuples(binary_vec, binary_vec))
    def test_pa_never_hurts_pointwise_f1(self, pair):
        flags, labels = pair
        n = min(len(flags), len(labels))
        flags, labels = flags[:n], labels[:n]
        before = pointwise_report(flags, labels)
        after = point_adjusted_report(flags, labels)
        spans = incidents_from_labels(labels)
        partially_hit = any(
            any(flags[i] for i in range(start, end + 1)) for start, end in spans
        )
        if partially_hit:
            assert after.f1 >= before.f1 - 1e-12

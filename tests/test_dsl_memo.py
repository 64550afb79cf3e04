"""The windowed-result memo: shared scores equal fresh ones, bit for bit."""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pillm.dsl import BudgetError, EvalMemo, compile_rule, evaluate
from pillm.dsl import interp

from .conftest import make_table

# Operands that yield MISSING: `lag` before its history, division by a
# runtime zero of $b, and `ewma` over the gaps either leaves.
OPERANDS = ("$a", "$b", "d", "lag($a, 3)", "$a / $b", "delta($b, 2)", "ewma($a / $b, 0.5)")
WINDOWED = ("mean", "std", "rmin", "rmax", "zscore")


def terms(depth: int):
    if depth == 0:
        return st.sampled_from(OPERANDS)
    inner = terms(depth - 1)
    windowed = st.builds(
        lambda name, x, w: f"{name}({x}, {w})", st.sampled_from(WINDOWED), inner, st.sampled_from((1, 2, 5))
    )
    ewma = st.builds(lambda x, a: f"ewma({x}, {a})", inner, st.sampled_from((0.25, 1)))
    # Random bounds put lo above hi on some rows; `clip` then gives hi, as np.clip does.
    clip = st.builds(lambda x, lo, hi: f"clip({x}, {lo}, {hi})", inner, inner, inner)
    return st.one_of(
        inner,
        windowed,
        ewma,
        st.builds(lambda x: f"abs({x})", inner),
        clip,
        st.builds(lambda x, y: f"({x} - {y})", inner, inner),
    )


# Every rule binds `d`, to a different expression in different rules, so a
# memo keyed by the bare name would mix them up.
rule_sources = st.builds(
    lambda bound, left, right, op: f"d = {bound}\nreturn {left} {op} {right}",
    terms(1).filter(lambda text: "d" not in text.replace("delta", "")),
    terms(2),
    terms(2),
    st.sampled_from((">", "+", "/", "<=")),
)

# Quarter steps, so that $b is often exactly zero.
cells = st.integers(-200, 200).map(lambda n: n / 4)


@st.composite
def tables(draw):
    length = draw(st.integers(min_value=1, max_value=24))
    column = st.lists(cells, min_size=length, max_size=length)
    return make_table({"a": np.array(draw(column)), "b": np.array(draw(column))})


def bits(scores: np.ndarray) -> list[int]:
    return scores.view(np.uint64).tolist()


def outcome(rule, table, memo=None):
    """The score bits of `rule`, or the message of the `BudgetError` it raised."""
    try:
        return bits(evaluate(rule, table, memo))
    except BudgetError as exc:
        return str(exc)


@contextlib.contextmanager
def counting_windowed():
    """Record (window, name) for each windowed kernel the interpreter runs."""
    calls = []
    windowed = interp._windowed

    def counting(x, window, name):
        calls.append((window, name))
        return windowed(x, window, name)

    with mock.patch.object(interp, "_windowed", counting):
        yield calls


class TestSharedMemo:
    @pytest.mark.parametrize("room", [None, 2, 0])
    @given(tables(), st.lists(rule_sources, min_size=1, max_size=6), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_shared_scores_equal_fresh_scores(self, room, table, sources, rng):
        """Through one memo, in shuffled order, each rule scores as it does alone.

        `room` bounds the memo to that many series (None: the default bound),
        so a full memo evicts, or keeps nothing at all.
        """
        rules = [compile_rule(source, ("a", "b")) for source in sources]
        fresh = [bits(evaluate(rule, table)) for rule in rules]
        bound = interp.MEMO_BYTES if room is None else room * 8 * table.num_rows
        with mock.patch.object(interp, "MEMO_BYTES", bound):
            memo = EvalMemo(table)
            order = list(range(len(rules))) * 2
            rng.shuffle(order)
            for index in order:
                assert bits(evaluate(rules[index], table, memo)) == fresh[index], sources[index]
                assert memo.nbytes <= bound
        if room == 0:
            assert len(memo) == 0

    def test_bound_name_is_keyed_by_its_expression(self):
        table = make_table({"damper_cmd": np.linspace(0, 1, 200), "damper_pos": np.linspace(1, 0, 200) ** 2})
        names = table.feature_names
        minus = compile_rule("d = $damper_cmd - $damper_pos\nreturn mean(d, 60) > 0.1", names)
        plus = compile_rule("d = $damper_cmd + $damper_pos\nreturn mean(d, 60) > 0.1", names)
        memo = EvalMemo(table)
        for rule in (minus, plus, minus):
            assert bits(evaluate(rule, table, memo)) == bits(evaluate(rule, table))
        assert len(memo) == 2
        assert not np.array_equal(evaluate(minus, table), evaluate(plus, table))

    def test_shared_term_is_computed_once(self):
        table = make_table({"x": np.sin(np.arange(300.0))})
        first = compile_rule("return zscore($x, 60) > 1", ("x",))
        second = compile_rule("z = zscore($x, 60)\nreturn z > 0.5 and z < 2 and mean($x, 5) > 0", ("x",))
        memo = EvalMemo(table)
        with counting_windowed() as calls:
            evaluate(first, table, memo)
            evaluate(second, table, memo)
            evaluate(second, table, memo)
        assert calls == [(60, "zscore"), (5, "mean")]

    def test_full_memo_evicts_its_oldest_entry(self):
        table = make_table({"x": np.arange(50.0)})
        rules = {w: compile_rule(f"return mean($x, {w}) > 1", ("x",)) for w in (2, 3, 4)}
        with mock.patch.object(interp, "MEMO_BYTES", 2 * 8 * 50), counting_windowed() as calls:
            memo = EvalMemo(table)
            for w in (2, 3, 4, 4, 3, 2):
                evaluate(rules[w], table, memo)
            assert len(memo) == 2
        assert [w for w, _ in calls] == [2, 3, 4, 2]

    def test_memo_of_another_table_raises(self):
        table = make_table({"x": np.arange(10.0)})
        twin = make_table({"x": np.arange(10.0)})
        rule = compile_rule("return mean($x, 3) > 1", ("x",))
        with pytest.raises(ValueError, match="another table"):
            evaluate(rule, twin, EvalMemo(table))


class TestBudgetVerdict:
    @pytest.mark.parametrize("room", [None, 1, 0])
    @given(tables(), rule_sources, rule_sources, st.data())
    @settings(max_examples=100, deadline=None)
    def test_verdict_depends_only_on_rule_and_table(self, room, table, source, other, data):
        """The verdict and the scores are the same with no memo, a fresh one and warmed ones.

        `_TOL` at 1e-300 sends every window that is not constant to the exact
        sum, so the charges a memo hit must repeat are not zero. The budget is
        drawn from one below the upfront charge up to the rule's whole charge.
        `room` bounds the memos to that many series (None: the default
        bound), so entries are evicted, charges and all, or never kept.
        """
        rule, warmer = (compile_rule(text, ("a", "b")) for text in (source, other))
        bound = interp.MEMO_BYTES if room is None else room * 8 * table.num_rows
        with mock.patch.object(interp, "_TOL", 1e-300), mock.patch.object(interp, "MEMO_BYTES", bound):
            by_other, by_rule = EvalMemo(table), EvalMemo(table)
            outcome(warmer, table, by_other)
            probe = interp._Evaluator(table, by_rule)  # leaves its windowed results in by_rule, as room allows
            probe.run(rule)
            spend = data.draw(st.integers(min_value=-1, max_value=probe._exact))
            with mock.patch.object(interp, "EVAL_BUDGET", rule.ast.node_count * table.num_rows + spend):
                alone = outcome(rule, table)
                for memo in (EvalMemo(table), by_other, by_rule, by_other):
                    assert outcome(rule, table, memo) == alone

    def test_a_hit_charges_the_windows_under_it(self):
        # Here zscore sums 45 window values exactly and mean 18: a memo that
        # holds the mean must still charge both, on top of 7 nodes x 10 rows.
        table = make_table({"a": np.array([1.0, 2, 5, 3, -1, 4, 2, 2, 7, 1]), "b": np.ones(10)})
        rule = compile_rule("return mean(zscore($a, 5), 2) > 0", ("a", "b"))
        with mock.patch.object(interp, "_TOL", 1e-300):
            warm = EvalMemo(table)
            evaluate(rule, table, warm)
            # A hit replays its charges one by one, so it raises at the same charge as a miss.
            for spend, tail in (
                (45 + 18 - 1, "+ 63 window values summed exactly = 133 > 132"),
                (45 - 1, "+ 45 window values summed exactly = 115 > 114"),
            ):
                with mock.patch.object(interp, "EVAL_BUDGET", 7 * 10 + spend):
                    assert outcome(rule, table, warm) == outcome(rule, table)
                    assert outcome(rule, table).endswith(tail)

    def test_a_hit_charges_every_call_under_it(self):
        # The kernel of a call that is not memoized may charge too: a hit on
        # the mean above it must charge that as well.
        table = make_table({"a": np.arange(10.0), "b": np.ones(10)})
        rule = compile_rule("return mean(lag($a, 2), 3) > 0", ("a", "b"))
        lag = interp._KERNELS["lag"]

        def charging_lag(x, k):
            interp._RUNNING.get().charge(7)
            return lag(x, k)

        with mock.patch.dict(interp._KERNELS, lag=charging_lag):
            warm = EvalMemo(table)
            evaluate(rule, table, warm)
            with mock.patch.object(interp, "EVAL_BUDGET", rule.ast.node_count * 10 + 6):
                assert outcome(rule, table, warm) == outcome(rule, table)
                assert outcome(rule, table).endswith("+ 7 window values summed exactly = 77 > 76")

    def test_a_call_over_a_bound_name_charges_as_a_fresh_evaluation(self):
        # The bound zscore is charged where it is bound, so `mean(d, 2)` does
        # not charge it again; `mean(zscore($a, 5), 2)` does. Whichever rule
        # warms the memo, each rule charges what it charges alone.
        table = make_table({"a": np.array([1.0, 2, 5, 3, -1, 4, 2, 2, 7, 1]), "b": np.ones(10)})
        bound = compile_rule("d = zscore($a, 5)\nreturn mean(d, 2) > 0", ("a", "b"))
        written_out = compile_rule("return mean(zscore($a, 5), 2) > 0", ("a", "b"))
        with mock.patch.object(interp, "_TOL", 1e-300):
            for rule, warmer in ((bound, written_out), (written_out, bound)):
                warm = EvalMemo(table)
                evaluate(warmer, table, warm)
                for spend in (45 + 18 - 1, 45 + 18):
                    with mock.patch.object(interp, "EVAL_BUDGET", rule.ast.node_count * 10 + spend):
                        assert outcome(rule, table, warm) == outcome(rule, table)

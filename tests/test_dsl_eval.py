import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pillm.dsl import BUILTINS, EVAL_BUDGET, BudgetError, VarRef, compile_rule, evaluate, parse, to_flags
from pillm.dsl import interp
from pillm.dsl.interp import _Evaluator
from pillm.providers import sample_rule
from pillm.simulate import FEATURES, FaultSpec, SimConfig, generate_corpus

from . import reference
from .conftest import make_table
from .test_dsl_memo import rule_sources, tables

floats_list = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
    min_size=1,
    max_size=64,
)


def run(src: str, **columns) -> np.ndarray:
    table = make_table({k: np.asarray(v, dtype=np.float64) for k, v in columns.items()})
    return evaluate(compile_rule(src, table.feature_names), table)


class TestPointwise:
    def test_threshold_example(self):
        assert list(run("return $x > 30", x=[25, 31, 29])) == [0, 1, 0]

    def test_arithmetic(self):
        out = run("return ($x + 1) * 2 - 3", x=[0.0, 1.5, -2.0])
        assert list(out) == [-1.0, 2.0, -5.0]

    def test_abs_and_clip(self):
        assert list(run("return abs($x)", x=[-2.0, 3.0])) == [2.0, 3.0]
        assert list(run("return clip($x, 0, 1)", x=[-5.0, 0.25, 9.0])) == [0.0, 0.25, 1.0]

    def test_unary_minus(self):
        assert list(run("return -$x", x=[1.0, -2.0])) == [-1.0, 2.0]

    def test_boolean_connectives(self):
        out = run("return $x > 0 and not ($x > 2)", x=[1.0, 3.0, -1.0])
        assert list(out) == [1.0, 0.0, 0.0]
        out = run("return $x < 0 or $x > 2", x=[1.0, 3.0, -1.0])
        assert list(out) == [0.0, 1.0, 1.0]

    def test_comparise_all_ops(self):
        x = [1.0, 2.0, 3.0]
        assert list(run("return $x >= 2", x=x)) == [0, 1, 1]
        assert list(run("return $x <= 2", x=x)) == [1, 1, 0]
        assert list(run("return $x == 2", x=x)) == [0, 1, 0]
        assert list(run("return $x != 2", x=x)) == [1, 0, 1]


class TestWindowed:
    def test_partial_window_mean_example(self):
        out = run("return mean($x, 3)", x=[1.0, 2.0, 3.0, 4.0])
        assert out == pytest.approx([1.0, 1.5, 2.0, 3.0])

    @given(floats_list, st.integers(min_value=1, max_value=32))
    @settings(max_examples=80)
    def test_matches_brute_force(self, xs, w):
        table = make_table({"x": np.array(xs, dtype=np.float64)})
        for name, brute in (
            ("mean", reference.rolling_mean_brute),
            ("std", reference.rolling_std_brute),
            ("rmin", reference.rolling_min_brute),
            ("rmax", reference.rolling_max_brute),
        ):
            got = evaluate(compile_rule(f"return {name}($x, {w})", ("x",)), table)
            want = np.array(brute(xs, w))
            scale = np.maximum(1.0, np.abs(want))
            assert np.all(np.abs(got - want) <= 1e-9 * scale), name

    def test_window_larger_than_series(self):
        out = run("return rmax($x, 1024)", x=[3.0, 1.0, 2.0])
        assert list(out) == [3.0, 3.0, 3.0]

    def test_zscore_law(self):
        xs = [1.0, 4.0, 2.0, 8.0, 5.0]
        got = run("return zscore($x, 3)", x=xs)
        assert got == pytest.approx(reference.zscore_brute(xs, 3), abs=1e-12)

    def test_ewma_alpha_one_is_identity(self):
        xs = [4.0, 5.0, -1.0]
        assert list(run("return ewma($x, 1)", x=xs)) == xs

    def test_ewma_matches_brute(self):
        xs = [1.0, 2.0, 0.0, 4.0]
        got = run("return ewma($x, 0.25)", x=xs)
        assert got == pytest.approx(reference.ewma_brute(xs, 0.25), abs=1e-12)


WINDOWED = ("mean", "std", "rmin", "rmax", "zscore")


def hvac_series(length: int, seed: int) -> np.ndarray:
    """Zone temperature: ~22 degC, sigma 0.02 noise, a slow drift and one step."""
    rng = np.random.default_rng(seed)
    drift = np.linspace(0.0, 0.6, length)
    step = np.where(np.arange(length) >= length // 3, 1.5, 0.0)
    return 22.0 + drift + step + rng.normal(0.0, 0.02, length)


# Runs of one level, some a single row long, so +-1e6 outliers sit next to
# long flat stretches: the inputs that defeat a naive E[x^2] - E[x]^2.
step_signals = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.1, 1.0, 21.7, 22.3, -3.5, 1e6, -1e6]),
        st.integers(min_value=1, max_value=60),
    ),
    min_size=1,
    max_size=6,
).map(lambda runs: [level for level, n in runs for _ in range(n)])


class TestWindowedAtScale:
    @pytest.mark.parametrize("w", [1, 2, 60, 1024])
    def test_hvac_series_matches_oracle(self, w):
        xs = hvac_series(100_000, seed=w)
        table = make_table({"x": xs})
        rng = np.random.default_rng(7)
        rows = np.unique(
            np.concatenate([rng.integers(0, w, 20), rng.integers(0, xs.size, 180), [xs.size - 1]])
        )
        values = xs.tolist()
        for name in WINDOWED:
            rule = compile_rule(f"return {name}($x, {w})", ("x",))
            got = evaluate(rule, table)[rows]
            want = [reference.window_brute(name, values, int(t), w) for t in rows]
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9, err_msg=name)

    @given(step_signals, st.integers(min_value=1, max_value=96))
    @settings(max_examples=40, deadline=None)
    def test_step_signals_match_oracle(self, xs, w):
        table = make_table({"x": np.array(xs)})
        for name in WINDOWED:
            got = evaluate(compile_rule(f"return {name}($x, {w})", ("x",)), table)
            for t, value in enumerate(got):
                window = xs[max(0, t - w + 1) : t + 1]
                if name == "zscore" and min(window) == max(window):
                    # A constant window's zscore is 0; the oracle's own rounding
                    # of a non-dyadic mean would divide noise by ZSCORE_EPS.
                    assert value == 0.0
                    continue
                want = reference.window_brute(name, xs, t, w)
                assert abs(value - want) <= 1e-9 * (1.0 + abs(want)), (name, t)

    def test_no_sampler_rule_is_rejected_at_one_year(self):
        # A year of minute data: every sampler rule fits the upfront charge,
        # and the largest fit the whole charge on simulated data.
        rows = 525_600
        names = tuple(meta.name for meta in FEATURES)
        rules = [compile_rule(sample_rule(seed, names), names) for seed in range(500)]
        assert max(rule.ast.node_count for rule in rules) * rows <= EVAL_BUDGET
        table = generate_corpus(SimConfig(length=rows, seed=1))
        for rule in sorted(rules, key=lambda rule: rule.ast.node_count)[-3:]:
            assert evaluate(rule, table).shape == (rows,)

    def test_spike_later_in_block_does_not_leak(self):
        # Row 126 shares a 64-row block with the windows ending at rows
        # 65-125, so the block's mean, which their sums are measured from,
        # sits near 1.6e10 while their values are below 1; the error bound
        # must send them to the two-pass path.
        xs = [0.1 * (i % 7) for i in range(192)]
        xs[126] = 1e12
        for name in WINDOWED:
            got = run(f"return {name}($x, 64)", x=xs)
            want = [reference.window_brute(name, xs, t, 64) for t in range(len(xs))]
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9, err_msg=name)

    def test_constant_windows_are_exact(self):
        xs = [0.1] * 40 + [22.3] * 40
        for name, want in (("mean", xs), ("std", [0.0] * 80), ("zscore", [0.0] * 80)):
            got = run(f"return {name}($x, 30)", x=xs)
            assert list(got[30:40]) == want[30:40] and list(got[70:]) == want[70:], name


class TestMissing:
    def test_lag_prefix_missing_coerces_to_zero(self):
        assert list(run("return lag($x, 2)", x=[7.0, 8.0, 9.0, 10.0])) == [0.0, 0.0, 7.0, 8.0]

    def test_delta_example(self):
        # row 0: lag MISSING -> comparison MISSING -> coerced 0
        assert list(run("return delta($x, 1) > 0", x=[5.0, 7.0, 6.0])) == [0, 1, 0]

    def test_delta_equals_definition(self):
        xs = [3.0, 1.0, 4.0, 1.0, 5.0]
        got = run("return delta($x, 2)", x=xs)
        want = run("return $x - lag($x, 2)", x=xs)
        assert np.array_equal(got, want)

    def test_missing_or_true_is_true(self):
        out = run("return lag($x, 2) > 0 or $x > 0", x=[1.0, 1.0, 1.0])
        assert list(out) == [1.0, 1.0, 1.0]

    def test_missing_or_false_is_missing(self):
        out = run("return lag($x, 2) > 0 or $x < 0", x=[1.0, 1.0, 1.0])
        assert list(out) == [0.0, 0.0, 1.0]

    def test_missing_and_false_is_false(self):
        out = run("return lag($x, 2) > 0 and $x < 0", x=[1.0, 1.0, 1.0])
        assert list(out) == [0.0, 0.0, 0.0]

    def test_not_missing_is_missing(self):
        out = run("return not (lag($x, 1) > 0)", x=[1.0, -1.0])
        assert list(out) == [0.0, 0.0]

    def test_windowed_over_missing_prefix(self):
        out = run("return mean(lag($x, 2), 3)", x=[1.0, 2.0, 3.0, 4.0, 5.0])
        # windows touching the two MISSING lag rows stay MISSING -> 0.0
        assert out == pytest.approx([0.0, 0.0, 0.0, 0.0, 2.0])

    @pytest.mark.parametrize("w", [1, 3, 8, 50])
    @pytest.mark.parametrize("name", WINDOWED)
    def test_window_touching_missing_is_missing(self, name, w):
        # MISSING from the lag prefix (rows 0-1) and from /0 (rows 9, 10, 19).
        xs = [float(v) for v in range(1, 21)]
        ds = [0.0 if t in (9, 10, 19) else 1.0 + t % 3 for t in range(20)]
        source = "y = lag($x, 2) / $d\n"
        present = run(source + f"return abs({name}(y, {w})) >= 0", x=xs, d=ds)
        got = run(source + f"return {name}(y, {w})", x=xs, d=ds)
        missing = [t < 2 or ds[t] == 0.0 for t in range(20)]
        ys = [0.0 if missing[t] else xs[t - 2] / ds[t] for t in range(20)]
        for t in range(20):
            touched = any(missing[max(0, t - w + 1) : t + 1])
            assert present[t] == (0.0 if touched else 1.0), t
            if not touched:
                want = reference.window_brute(name, ys, t, w)
                assert got[t] == pytest.approx(want, rel=1e-9, abs=1e-9), t
        assert present[-1] == 0.0  # the last row itself is MISSING

    def test_ewma_pauses_over_missing(self):
        out = run("return ewma(lag($x, 2), 0.5)", x=[1.0, 2.0, 3.0, 4.0])
        # state starts at the first present value
        assert out == pytest.approx([0.0, 0.0, 1.0, 1.5])

    def test_division_by_runtime_zero(self):
        out = run("return 1 / $x", x=[2.0, 0.0, 4.0])
        assert out == pytest.approx([0.5, 0.0, 0.25])

    def test_division_by_zero_in_comparison(self):
        out = run("return 1 / $x > 0", x=[2.0, 0.0, -4.0])
        assert list(out) == [1.0, 0.0, 0.0]

    def test_overflow_becomes_missing(self):
        out = run("return $x * $x > 0", x=[1e308, 2.0])
        assert list(out) == [0.0, 1.0]

    def test_windowed_overflow_becomes_missing(self):
        # The squares of 4e301 and 5e301 overflow: that window's std is MISSING, not inf.
        columns = {"a": [50.0, 50.0, 40.0], "b": [1e-300] * 3}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(run("return std($a / $b, 2)", **columns)) == [0.0, 0.0, 0.0]
            assert list(run("return std($a / $b, 2) >= 0", **columns)) == [1.0, 1.0, 0.0]
            # So is its z-score, which (x - mean) / inf would make a finite 0.
            assert list(run("return not (zscore($a / $b, 2) < -0.5)", **columns)) == [1.0, 1.0, 0.0]


class TestToFlags:
    def test_strict_threshold(self):
        assert list(to_flags(np.array([0.2, 0.9, 0.5]), 0.5)) == [0, 1, 0]

    def test_boolean_scores(self):
        assert list(to_flags(np.array([0.0, 1.0, 0.0]), 0.5)) == [0, 1, 0]

    def test_all_zero(self):
        assert list(to_flags(np.zeros(3), 0.5)) == [0, 0, 0]


class TestEvaluationContract:
    def test_determinism(self, bias_corpus):
        rule = compile_rule("return zscore($zone_temp, 60)", bias_corpus.feature_names)
        first = evaluate(rule, bias_corpus)
        second = evaluate(rule, bias_corpus)
        assert np.array_equal(first, second)

    def test_column_permutation_purity(self):
        xs = np.array([1.0, 5.0, 2.0])
        ys = np.array([0.5, 0.25, 4.0])
        forward = make_table({"x": xs, "y": ys})
        backward = make_table({"y": ys, "x": xs})
        rule_src = "return zscore($x, 2) + $y > 1"
        out_fwd = evaluate(compile_rule(rule_src, forward.feature_names), forward)
        out_bwd = evaluate(compile_rule(rule_src, backward.feature_names), backward)
        assert np.array_equal(out_fwd, out_bwd)

    def test_scores_always_finite(self):
        out = run("return zscore($x, 4) / ($x - $x + 1)", x=[0.0, 0.0, 5.0, -5.0])
        assert np.all(np.isfinite(out))

    def test_budget_error(self):
        # 501 nodes x 540,000 rows = 270,540,000 > 2**28, charged before any work.
        table = make_table({"x": np.zeros(540_000)})
        rule = compile_rule("return " + " + ".join(["$x"] * 250) + " > 0", table.feature_names)
        with pytest.raises(BudgetError, match="exceeded: 501 nodes x 540000 rows [+] 0 .* = 270540000 > "):
            evaluate(rule, table)

    def test_exact_windows_are_charged_before_they_are_summed(self, monkeypatch):
        # On an alternating +-1000 column nearly every window of mean($x, 1024)
        # fails the error bound: 2,034,688 window values are summed exactly.
        table = make_table({"x": np.where(np.arange(2048) % 2, -1000.0, 1000.0)})
        rule = compile_rule("return mean($x, 1024) > 0", ("x",))
        upfront = rule.ast.node_count * table.num_rows
        exact = 2_034_688
        sums = []
        two_pass = interp._two_pass
        monkeypatch.setattr(interp, "_two_pass", lambda *args: sums.append(args) or two_pass(*args))
        monkeypatch.setattr(interp, "EVAL_BUDGET", upfront + exact - 1)
        with pytest.raises(BudgetError, match=f"[+] {exact} window values summed exactly"):
            evaluate(rule, table)
        assert sums == []
        monkeypatch.setattr(interp, "EVAL_BUDGET", upfront + exact)
        assert evaluate(rule, table).shape == (2048,)
        assert len(sums) == 1

    def test_budget_monotone_on_prefixes(self):
        table = make_table({"x": np.arange(512, dtype=np.float64)})
        rule = compile_rule("return mean($x, 64)", table.feature_names)
        evaluate(rule, table)
        for stop in (1, 5, 100, 511):
            evaluate(rule, table.slice_rows(0, stop))

    def test_a_prefix_scores_as_the_start_of_the_whole(self):
        # A score at row t reads only rows up to t, so a rule that sees rows as
        # they arrive scores each one as it does on the whole corpus.
        fault = FaultSpec("heating_coil_leak", 0.6, (2200, 2700))
        table = generate_corpus(SimConfig(length=5000, seed=3), fault)
        names = table.feature_names
        sources = [sample_rule(seed, names) for seed in range(150)]
        # Edits of one elite rule, windows 240-1024, as crossover and mutation make them.
        rng = random.Random(20)
        windows = (240, 360, 480, 720, 1024)
        for _ in range(9):
            w1, w2, w3, lag = (rng.choice(windows) for _ in range(4))
            sources.append(
                "d = abs($damper_cmd - $damper_pos)\n"
                f"return zscore($zone_temp, {w1}) > {rng.uniform(0.8, 1.8):.2f} and mean(d, {w2}) < 0.05"
                f" and (std($zone_temp, {w3}) < 0.2 or delta($zone_temp, {lag}) > 1)"
            )
        for name, (arity, literal_at, kind) in BUILTINS.items():
            args = ["$zone_temp", "$outdoor_temp", "$fan_speed"][:arity]
            if literal_at is not None:
                args[literal_at] = "0.3" if kind == "alpha" else str(rng.choice(windows))
            sources.append(f"return {name}({', '.join(args)})")
        for source in sources:
            rule = compile_rule(source, names)
            whole = evaluate(rule, table)
            for k in (7, 333, 2500):
                prefix = evaluate(rule, table.slice_rows(0, k))
                np.testing.assert_allclose(prefix, whole[:k], rtol=1e-9, atol=1e-9, err_msg=f"{k}: {source}")

    def test_series_are_read_only(self):
        table = make_table({"x": np.array([1.0, 2.0, 3.0])})
        rule = compile_rule("a = mean($x, 2)\nreturn a + a > 0", table.feature_names)
        evaluator = _Evaluator(table)
        evaluator.run(rule)
        bound = evaluator._eval(VarRef("a"))
        assert evaluator._eval(VarRef("a")) is bound  # both references share one array
        with pytest.raises(ValueError):
            bound[0] = 1

    def test_length_matches_table(self, small_table):
        out = evaluate(compile_rule("return $x > 2", small_table.feature_names), small_table)
        assert out.shape == (small_table.num_rows,)


def same(a, b) -> bool:
    """Both MISSING, or both numbers within C04's 1e-9 (absolute plus relative)."""
    if a is None or b is None:
        return a is b
    return abs(a - b) <= 1e-9 * (1.0 + abs(b))


class TestMissingOracle:
    @given(tables(), rule_sources)
    @settings(max_examples=300, deadline=None)
    def test_scores_match_row_by_row_oracle(self, table, source):
        """0.0 exactly where the oracle says MISSING, and within C04's 1e-9 elsewhere.

        A row whose oracle score moves when the windowed moments are nudged
        by 1e-12, a hundred times their rounding, is decided by the order of
        a sum rather than by the rules, and is skipped.
        """
        got = evaluate(compile_rule(source, table.feature_names), table).tolist()
        columns = {name: table.column(name).tolist() for name in table.feature_names}
        ast = parse(source)
        want = reference.rule_brute(ast, columns)
        nudged = [reference.rule_brute(ast, columns, nudge) for nudge in (1e-12, -1e-12)]
        for t, expected in enumerate(want):
            if not all(same(other[t], expected) for other in nudged):
                continue
            if expected is None:
                assert got[t] == 0.0, (source, t)
            else:
                assert same(got[t], expected), (source, t)

    @pytest.mark.parametrize(
        "rule,want",
        [
            ("return mean(lag($a, 1) / $b, 2) > 1 or $b == 2", [None, None, 1.0, 1.0]),
            ("return lag($a, 2) > 0 and $b > 1", [0.0, 0.0, 1.0, 1.0]),
            ("return not (lag($a, 1) > 1)", [None, 1.0, 0.0, 0.0]),
            ("return ewma($a / $b, 0.5)", [1.0, None, 1.25, 1.625]),
        ],
    )
    def test_oracle_marks_missing(self, rule, want):
        columns = {"a": [1.0, 2.0, 3.0, 4.0], "b": [1.0, 0.0, 2.0, 2.0]}
        assert reference.rule_brute(parse(rule), columns) == want

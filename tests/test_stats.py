import math
import os
import random
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist

import pytest

import predscore
from bruteforce import hand_kruskal_h
from predscore.errors import DegenerateDataError, ValidationError
from predscore.stats import (
    ANOVA,
    KRUSKAL_WALLIS,
    SHAPIRO_WILK,
    SampleGroup,
    _chi2_sf,
    _f_sf,
    _norm_sf,
    anova_oneway,
    kruskal_wallis,
    levene_median,
    run_pipeline,
    shapiro_wilk,
)
from stats_fixtures import (
    GATE_FIXTURES,
    GROUP_FIXTURES,
    SHAPIRO_FIXTURES,
    SHAPIRO_TINY3,
)

# (see TestLeveneMedian.test_deviations_equal_up_to_rounding_give_infinity)
TWO_VALUE_LOSS_GROUPS = [
    ("0x1.4d34d34d34d36p-3", "0x1.47ec7ec7ec7ecp-1"),
    ("0x1.47ec7ec7ec7eep-1", "0x1.471c71c71c71cp-1"),
    ("0x1.f49f49f49f49fp-1", "0x1.23f63f63f63f6p+0"),
]

# one treatment's rank-space losses: eight copies give H = 0 in exact arithmetic
IDENTICAL_LOSSES = [0.0] * 11 + [1.0] * 4 + [2.0, 3.0] + [5.0] * 3 + [8.0]

W_TOL = 1e-4
P_TOL = 1e-3
STAT_REL_TOL = 1e-6


class TestShapiroWilk:
    @pytest.mark.parametrize("name", sorted(SHAPIRO_FIXTURES))
    def test_golden_fixtures(self, name):
        fixture = SHAPIRO_FIXTURES[name]
        result = shapiro_wilk(fixture["data"])
        assert result.statistic == pytest.approx(fixture["W"], abs=W_TOL)
        assert result.p_value == pytest.approx(fixture["p"], abs=P_TOL)

    def test_exponential_sample_detected(self):
        result = shapiro_wilk(SHAPIRO_FIXTURES["exponential50"]["data"])
        assert result.p_value < 0.01

    def test_three_point_sample(self):
        result = shapiro_wilk(SHAPIRO_TINY3["data"])
        assert result.statistic == pytest.approx(SHAPIRO_TINY3["W"], abs=W_TOL)
        assert result.p_value == pytest.approx(SHAPIRO_TINY3["p"], abs=P_TOL)

    def test_identical_values_rejected(self):
        with pytest.raises(DegenerateDataError):
            shapiro_wilk([2.5] * 10)

    def test_sample_size_limits(self):
        with pytest.raises(ValidationError):
            shapiro_wilk([1.0, 2.0])
        with pytest.raises(ValidationError):
            shapiro_wilk(list(range(5001)))

    def test_order_invariance(self):
        data = SHAPIRO_FIXTURES["normal20"]["data"]
        shuffled = data[:]
        random.Random(0).shuffle(shuffled)
        assert shapiro_wilk(shuffled) == shapiro_wilk(data)

    @pytest.mark.parametrize("sample, message", [
        ([1.0, math.nan, 2.0, 3.0], "contains non-finite values"),
        ([10**400, 1, 2], "holds an int too large for a float"),
        (["a", "b", "c"], "holds a value that is not a number"),
    ], ids=["nan", "huge-int", "strings"])
    def test_a_sample_is_checked_as_a_sample_group(self, sample, message):
        with pytest.raises(ValidationError, match=f"^group 'sample' {message}$"):
            shapiro_wilk(sample)

    def test_an_iterator_is_read_once(self):
        data = SHAPIRO_FIXTURES["normal20"]["data"]
        assert shapiro_wilk(iter(data)) == shapiro_wilk(data)
        assert SampleGroup("g", iter([1, 2.5])).values == (1.0, 2.5)


class TestLeveneMedian:
    @pytest.mark.parametrize("name", sorted(GROUP_FIXTURES))
    def test_golden_fixtures(self, name):
        fixture = GROUP_FIXTURES[name]
        stat, p = fixture["levene"]
        result = levene_median(fixture["groups"])
        assert result.statistic == pytest.approx(stat, rel=STAT_REL_TOL, abs=1e-12)
        assert result.p_value == pytest.approx(p, abs=P_TOL)

    def test_identical_multisets_give_zero(self):
        result = levene_median([[1.0, 5.0, 2.0], [5.0, 1.0, 2.0]])
        assert result.statistic == 0.0

    def test_copies_of_one_group_give_zero(self):
        group = [0.4, 1.9, -0.7, 2.2, 0.1]
        result = levene_median([group] * 4)
        assert result.statistic == 0.0

    def test_df_arithmetic(self):
        groups = GATE_FIXTURES["gate_normal"]
        assert [len(g) for g in groups] == [30, 30, 30, 30]
        result = levene_median(groups)
        assert result.df == (3.0, 116.0)

    def test_too_few_groups_rejected(self):
        with pytest.raises(ValidationError):
            levene_median([[1.0, 2.0]])

    def test_deviations_equal_up_to_rounding_give_infinity(self):
        # Value-space loss sums of groups A-C of a 3x3 k=3 bundle (seven
        # participants over A,B,C,D, seed 3, uniform behaviour).  Each group
        # has two values, so both deviations from its median are equal in
        # exact arithmetic but not in floating point.
        groups = [[float.fromhex(h) for h in pair] for pair in TWO_VALUE_LOSS_GROUPS]
        deviations = [[abs(v - (a + b) / 2.0) for v in (a, b)] for a, b in groups]
        assert any(x != y for x, y in deviations)
        result = levene_median(groups)
        assert (result.statistic, result.df, result.p_value) == (math.inf, (2.0, 3.0), 0.0)


class TestAnova:
    @pytest.mark.parametrize("name", sorted(GROUP_FIXTURES))
    def test_golden_fixtures(self, name):
        fixture = GROUP_FIXTURES[name]
        stat, p = fixture["anova"]
        result = anova_oneway(fixture["groups"])
        assert result.statistic == pytest.approx(stat, rel=STAT_REL_TOL)
        assert result.p_value == pytest.approx(p, abs=P_TOL)

    def test_identical_constant_groups_rejected(self):
        with pytest.raises(DegenerateDataError):
            anova_oneway([[3.0, 3.0, 3.0], [3.0, 3.0, 3.0]])

    def test_means_equal_up_to_rounding_give_zero(self):
        # 0.1 + 0.2 is one ulp above 0.3, so the group means differ only in
        # the last bit; that is no between-group spread.
        result = anova_oneway([[0.1 + 0.2, 0.0], [0.3, 0.0]])
        assert (result.statistic, result.p_value) == (0.0, 1.0)

    def test_a_value_that_is_not_a_number_is_refused(self):
        with pytest.raises(ValidationError,
                           match="^group 'group1' holds a value that is not a number$"):
            anova_oneway([["a", "b"], [1, 2]])

    def test_df_for_eight_groups_of_86(self):
        rng = random.Random(1)
        sizes = [11, 11, 11, 11, 11, 11, 10, 10]  # 86 participants
        groups = [[rng.gauss(0, 1) for _ in range(n)] for n in sizes]
        result = anova_oneway(groups)
        assert result.df == (7.0, 78.0)

    def test_shift_invariance(self):
        rng = random.Random(2)
        groups = [[rng.gauss(i, 1) for _ in range(12)] for i in range(3)]
        shifted = [[v + 42.5 for v in g] for g in groups]
        base, moved = anova_oneway(groups), anova_oneway(shifted)
        assert moved.statistic == pytest.approx(base.statistic, rel=1e-9)

    def test_group_relabeling_invariance(self):
        fixture = GROUP_FIXTURES["textbook3"]["groups"]
        forward = anova_oneway(fixture)
        backward = anova_oneway(list(reversed(fixture)))
        assert backward.statistic == pytest.approx(forward.statistic, rel=1e-12)


class TestKruskalWallis:
    @pytest.mark.parametrize("name", sorted(GROUP_FIXTURES))
    def test_golden_fixtures(self, name):
        fixture = GROUP_FIXTURES[name]
        stat, p = fixture["kruskal"]
        result = kruskal_wallis(fixture["groups"])
        assert result.statistic == pytest.approx(stat, rel=STAT_REL_TOL)
        assert result.p_value == pytest.approx(p, abs=P_TOL)

    def test_two_pairs_match_hand_ranks(self):
        groups = [[1.0, 2.0], [3.0, 4.0]]
        result = kruskal_wallis(groups)
        assert result.statistic == pytest.approx(hand_kruskal_h(groups), rel=1e-12)
        assert result.statistic == pytest.approx(2.4, rel=1e-12)

    def test_matches_hand_ranks_with_ties(self):
        rng = random.Random(3)
        for _ in range(25):
            groups = [
                [float(rng.randint(0, 6)) for _ in range(rng.randint(2, 12))]
                for _ in range(rng.randint(2, 5))
            ]
            if len({v for g in groups for v in g}) == 1:
                continue
            result = kruskal_wallis(groups)
            assert result.statistic == pytest.approx(hand_kruskal_h(groups), rel=1e-12)

    def test_df_for_four_groups(self):
        result = kruskal_wallis(GATE_FIXTURES["gate_normal"])
        assert result.df == (3.0,)

    def test_all_identical_rejected(self):
        with pytest.raises(DegenerateDataError):
            kruskal_wallis([[1.0, 1.0], [1.0, 1.0, 1.0]])

    @pytest.mark.parametrize("group, copies", [
        (IDENTICAL_LOSSES, 8),  # df 7: the odd-df tail took the square root of H < 0
        ([0.0] * 3 + [1.0] + [2.0] * 3 + [3.0] * 3 + [4.0, 5.0] + [6.0] * 4 + [7.0] * 4
         + [8.0] * 2, 3),  # df 2: H < 0 was returned, with p > 1
    ], ids=["eight-groups", "three-groups"])
    def test_identically_distributed_groups_give_zero_and_p_one(self, group, copies):
        pipeline = run_pipeline([group] * copies)
        assert pipeline.test_used == KRUSKAL_WALLIS
        for result in (kruskal_wallis([group] * copies), pipeline.comparison):
            assert (result.statistic, result.df, result.p_value) == (0.0, (copies - 1.0,), 1.0)

    def test_monotone_transform_invariance(self):
        rng = random.Random(4)
        groups = [[rng.gauss(i * 0.5, 1) for _ in range(15)] for i in range(3)]
        transformed = [[math.exp(v) for v in g] for g in groups]
        base, warped = kruskal_wallis(groups), kruskal_wallis(transformed)
        assert warped.statistic == pytest.approx(base.statistic, rel=1e-12)

    def test_null_calibration_uniform_p_values(self):
        # Fixed pooled sample, 2000 seeded reshuffles into 4 groups of 30:
        # the p-value distribution should be uniform (Kolmogorov dist <= .05).
        rng = random.Random(20240811)
        pooled = [rng.gauss(0, 1) for _ in range(120)]
        p_values = []
        for _ in range(2000):
            rng.shuffle(pooled)
            groups = [pooled[i * 30 : (i + 1) * 30] for i in range(4)]
            p_values.append(kruskal_wallis(groups).p_value)
        p_values.sort()
        n = len(p_values)
        ks = max(
            max((i + 1) / n - p, p - i / n) for i, p in enumerate(p_values)
        )
        assert ks <= 0.05

    def test_permuted_single_list_rarely_significant(self):
        # Null splits of one list: H stays small, p averages near 1/2.
        rng = random.Random(5)
        pooled = [rng.gauss(0, 1) for _ in range(60)]
        p_values = []
        for _ in range(200):
            rng.shuffle(pooled)
            p_values.append(kruskal_wallis([pooled[:30], pooled[30:]]).p_value)
        mean_p = sum(p_values) / len(p_values)
        assert 0.42 <= mean_p <= 0.58


class TestPipeline:
    def test_normal_equivariant_selects_anova(self):
        result = run_pipeline(GATE_FIXTURES["gate_normal"])
        assert result.test_used == ANOVA
        assert result.warnings == ()
        assert result.comparison.test == ANOVA

    def test_skewed_selects_kruskal_wallis(self):
        result = run_pipeline(GATE_FIXTURES["gate_skew"])
        assert result.test_used == KRUSKAL_WALLIS
        assert result.warnings == ()

    def test_heteroscedastic_warns_and_falls_back(self):
        result = run_pipeline(GATE_FIXTURES["gate_hetero"])
        assert result.test_used == KRUSKAL_WALLIS
        assert len(result.warnings) == 1
        assert "equivariance" in result.warnings[0]

    def test_gate_results_cover_each_group_plus_levene(self):
        groups = [SampleGroup(f"g{i}", tuple(vals)) for i, vals in enumerate(GATE_FIXTURES["gate_normal"])]
        result = run_pipeline(groups)
        assert len(result.gate_results) == len(groups) + 1
        assert result.gate_results[-1].test == "levene_median"

    def test_alpha_is_configurable(self):
        # gate_skew's smallest gate p is 2.9e-6: below it every gate passes, forcing ANOVA.
        result = run_pipeline(GATE_FIXTURES["gate_skew"], alpha=1e-6)
        assert result.test_used == ANOVA

    @pytest.mark.parametrize("alpha", [math.nan, 5.0, 1.0, 0.0, -1.0])
    def test_an_alpha_outside_the_unit_interval_is_refused(self, alpha):
        groups = [SampleGroup("a", (1.0, 2.0, 3.0, 5.0)), SampleGroup("b", (2.0, 4.0, 4.5, 9.0))]
        with pytest.raises(ValidationError, match=r"^alpha must be in \(0, 1\), got "):
            run_pipeline(groups, alpha=alpha)


def assert_gate_rule(result, alpha=0.05):
    """The rule the benchmark's stats check applies to stats_*.json."""
    all_pass = all(gate.p_value >= alpha for gate in result.gate_results)
    assert (result.test_used == ANOVA) == all_pass


class TestGatesThatCannotBeComputed:
    """A Shapiro-Wilk gate that cannot be computed counts as failed; the
    pipeline still answers with Kruskal-Wallis."""

    def groups(self, *extra):
        normal = GATE_FIXTURES["gate_normal"][:2]
        return [SampleGroup(f"g{i}", tuple(v)) for i, v in enumerate(normal)] + list(extra)

    @pytest.mark.parametrize(
        "group, reason",
        [
            (SampleGroup("big", tuple(random.Random(6).gauss(0, 1) for _ in range(5001))), "5000"),
            (SampleGroup("flat", (2.5,) * 10), "identical"),
            (SampleGroup("pair", (1.0, 2.0)), "at least 3"),
        ],
        ids=["over_5000", "constant", "two_values"],
    )
    def test_gate_fails_and_falls_through(self, group, reason):
        result = run_pipeline(self.groups(group))
        gate = result.gate_results[2]
        assert (gate.test, gate.statistic, gate.p_value) == (SHAPIRO_WILK, None, 0.0)
        assert reason in gate.reason
        assert result.test_used == KRUSKAL_WALLIS
        assert result.excluded == ()
        assert any(group.label in w and "not computed" in w for w in result.warnings)
        assert result.comparison == kruskal_wallis(self.groups(group))
        assert_gate_rule(result)

    def test_one_value_group_is_excluded(self):
        result = run_pipeline(self.groups(SampleGroup("solo", (1.0,))))
        assert result.excluded == ("solo",)
        assert result.gate_results[2].reason is not None
        assert result.gate_results[-1] == levene_median(self.groups())
        assert result.comparison == kruskal_wallis(self.groups())
        assert any("'solo'" in w and "excluded" in w for w in result.warnings)
        assert_gate_rule(result)

    def test_fewer_than_two_comparable_groups_rejected(self):
        with pytest.raises(ValidationError):
            run_pipeline([[1.0], [1.0, 2.0, 3.0]])

    def test_constant_pooled_sample_still_refused(self):
        with pytest.raises(DegenerateDataError):
            run_pipeline([[1.0] * 4, [1.0] * 5])


class TestSumsThatOverflow:
    """A sum that overflows is refused where it is taken, never returned as
    inf or nan."""

    @pytest.mark.parametrize("build, test", [
        (lambda: shapiro_wilk([1e308, 1.5e308, 0.0, 1.7e308]), SHAPIRO_WILK),
        (lambda: shapiro_wilk([1e200, 0.0, 1.0]), SHAPIRO_WILK),  # a square overflows
        (lambda: anova_oneway([[1e308, 1.5e308], [0.0, 1.0]]), ANOVA),
        (lambda: anova_oneway([[1e155, 1e155], [1e155, 1e155 * (1 + 2**-52)]]), ANOVA),
        (lambda: levene_median([[0.0, 1.7e308, 1.7e308], [0.0, 1e-3, 2e-3]]), "levene_median"),
    ], ids=["shapiro_sum", "shapiro_square", "anova_sum", "anova_squares", "levene"])
    def test_refused(self, build, test):
        with pytest.raises(ValidationError, match=f"^{test}: a sum overflows"):
            build()

    def test_pipeline_refuses_instead_of_raising_overflow_error(self):
        groups = [[1e308, 1.5e308, 0.0, 1.7e308], [0.0, 1.0, 2.0, 4.0]]
        with pytest.raises(ValidationError, match="a sum overflows"):
            run_pipeline(groups)


def _mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    return mp


class TestTailAccuracy:
    """The standard-library tails against 40-digit references, on seeded
    grids over the (statistic, df) range the pipeline produces."""

    def test_f_tail_against_mpmath(self):
        mp = _mpmath()
        rng = random.Random(11)
        for _ in range(1000):
            df1 = rng.randint(1, 15)
            df2 = int(math.exp(rng.uniform(math.log(2), math.log(3e5))))
            f = math.exp(rng.uniform(math.log(1e-3), math.log(100)))
            x = mp.mpf(df2) / (df2 + df1 * mp.mpf(f))
            ref = mp.betainc(mp.mpf(df2) / 2, mp.mpf(df1) / 2, 0, x, regularized=True)
            if ref < 1e-300:
                continue
            bound = 1e-12 if df2 <= 1000 else 5e-11
            assert _f_sf(f, df1, df2) == pytest.approx(float(ref), rel=bound), (f, df1, df2)

    def test_chi2_tail_against_mpmath(self):
        mp = _mpmath()
        rng = random.Random(12)
        for _ in range(1000):
            df = rng.randint(1, 40)
            x = math.exp(rng.uniform(math.log(1e-6), math.log(1500)))
            ref = mp.gammainc(mp.mpf(df) / 2, mp.mpf(x) / 2, regularized=True)
            if ref < 1e-300:
                continue
            assert _chi2_sf(x, float(df)) == pytest.approx(float(ref), rel=1e-12), (x, df)

    def test_normal_tail_against_mpmath(self):
        mp = _mpmath()
        rng = random.Random(13)
        for _ in range(1000):
            z = rng.uniform(-37.0, 37.0)
            ref = mp.ncdf(-mp.mpf(z))
            assert _norm_sf(z) == pytest.approx(float(ref), rel=1e-12), z

    def test_tails_match_scipy(self):
        special = pytest.importorskip("scipy.special")
        rng = random.Random(14)
        for _ in range(500):
            df1 = rng.randint(1, 15)
            df2 = int(math.exp(rng.uniform(math.log(2), math.log(3e5))))
            f = math.exp(rng.uniform(math.log(1e-3), math.log(100)))
            # scipy gets the smaller of x and 1 - x, so that near x = 1 the
            # comparison is not swamped by the rounding of x itself.
            den = df2 + df1 * f
            x, y = df2 / den, df1 * f / den
            if x <= 0.5:
                ref = special.betainc(df2 / 2, df1 / 2, x)
            else:
                ref = special.betaincc(df1 / 2, df2 / 2, y)
            if ref >= 1e-300:
                assert _f_sf(f, df1, df2) == pytest.approx(ref, rel=1e-10), (f, df1, df2)
            df, chi2 = rng.randint(1, 40), rng.uniform(0.0, 200.0)
            ref = special.gammaincc(df / 2, chi2 / 2)
            assert _chi2_sf(chi2, float(df)) == pytest.approx(ref, rel=1e-10), (chi2, df)
            z = rng.uniform(-37.0, 37.0)
            assert _norm_sf(z) == pytest.approx(special.ndtr(-z), rel=1e-10), z
            q = rng.random()
            assert NormalDist().inv_cdf(q) == pytest.approx(special.ndtri(q), rel=1e-10), q


def test_package_import_leaves_scipy_unloaded():
    here = Path(__file__).resolve().parent
    src = str(Path(predscore.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, str(here)])}
    code = (
        "import sys, predscore\n"
        "print(sorted({'scipy', 'numpy'} & set(sys.modules)))\n"
        "from stats_fixtures import GATE_FIXTURES\n"
        "for groups in GATE_FIXTURES.values():\n"
        "    predscore.run_pipeline(groups)\n"
        "print(sorted({'scipy', 'numpy'} & set(sys.modules)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        encoding="utf-8", check=True,
    )
    assert result.stdout.split("\n")[:2] == ["[]", "[]"]

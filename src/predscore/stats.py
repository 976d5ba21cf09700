"""Treatment-comparison statistics: normality and equal-variance gates
choosing between one-way ANOVA and Kruskal-Wallis.

The decision rule: ANOVA when every group passes the Shapiro-Wilk
normality check and Levene's test (median-centered) finds equal variances;
Kruskal-Wallis when variances are equal but normality fails.  When the
equivariance check itself fails we still fall through to Kruskal-Wallis
but attach an explicit warning rather than refusing to compare.

Everything is computed here with the standard library.  The Shapiro-Wilk W
uses the standard large-sample approximation with its published polynomial
coefficients, valid to n = 5000.  Tail probabilities: normal from
``math.erfc``, normal quantiles from ``statistics.NormalDist`` (imported
inside ``shapiro_wilk``, its only user), chi-square from the closed forms
for integer degrees of freedom (Abramowitz & Stegun 26.4), and F as the regularized incomplete beta function by Lentz's
continued fraction (Numerical Recipes 6.4).
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DegenerateDataError, Validated, ValidationError

SHAPIRO_WILK = "shapiro_wilk"
LEVENE_MEDIAN = "levene_median"
ANOVA = "anova"
KRUSKAL_WALLIS = "kruskal_wallis"

DEFAULT_ALPHA = 0.05


class SampleGroup(Validated, namedtuple("SampleGroup", "label values")):
    """One treatment's per-participant aggregated losses."""

    __slots__ = ()

    def __new__(cls, label: str, values: tuple[float, ...]):
        if any(not math.isfinite(v) for v in values):
            raise ValidationError(f"group {label!r} contains non-finite values")
        return super().__new__(cls, label, tuple(float(v) for v in values))


class TestResult(Validated, namedtuple("TestResult", "test statistic df p_value reason")):
    """One test's outcome.  A gate that could not be computed has no
    statistic, p = 0 (failed at every alpha > 0) and a ``reason``."""

    __slots__ = ()

    def __new__(
        cls,
        test: str,
        statistic: float | None,
        df: tuple[float, ...],
        p_value: float,
        reason: str | None = None,
    ):
        if not -1e-12 <= p_value <= 1 + 1e-12:
            raise ValidationError(f"p-value out of [0, 1]: {p_value}")
        return super().__new__(cls, test, statistic, df, p_value, reason)


class PipelineResult(
    namedtuple("PipelineResult", "test_used gate_results comparison warnings excluded",
               defaults=((),))
):
    """The test the gates chose, every gate's TestResult, the comparison,
    warnings, and the labels of groups left out of it."""

    __slots__ = ()


_SQRT2 = math.sqrt(2.0)
_SQRT_PI = math.sqrt(math.pi)


def _norm_sf(z: float) -> float:
    return 0.5 * math.erfc(z / _SQRT2)


def _chi2_sf(x: float, df: float) -> float:
    """Upper chi-square tail for integer df, as a sum of positive terms:
    exp(-h) * sum_{j < df/2} h^j / j! for even df, and erfc(sqrt(h)) plus
    exp(-h) * sum_{j=1}^{(df-1)/2} h^(j-1/2) / Gamma(j+1/2) for odd df,
    with h = x/2."""
    k = int(df)
    h = 0.5 * x
    if k % 2:
        head = math.erfc(math.sqrt(h))
        term, j = 2.0 * math.sqrt(h) / _SQRT_PI, 1.5  # h^(1/2) / Gamma(3/2)
    else:
        head = 0.0
        term, j = 1.0, 1.0
    terms = []
    for _ in range(k // 2):
        terms.append(term)
        term *= h / j
        j += 1.0
    # exp(-h) split in two halves so it does not underflow before the sum lifts it.
    half = math.exp(-0.5 * h)
    return head + half * math.fsum(terms) * half


def _log_gamma_ratio_half(a: float) -> float:
    """log(Gamma(a + 1/2) / Gamma(a)) without differencing two large lgammas.

    Below a = 50 the lgamma difference errs by under 4e-14; from 50 up, the
    asymptotic series to 1/a^5 errs by under 2e-14.
    """
    if a < 50.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    r = 1.0 / a
    series = r * (-1 / 8 + r * (1 / 128 + r * (5 / 1024 + r * (-21 / 32768 + r * (-399 / 262144)))))
    return 0.5 * math.log(a) + math.log1p(series)


def _log_beta(a: float, b: float) -> float:
    """log B(a, b) for integer or half-integer a and b.

    With s the smaller parameter, lgamma(big + s) - lgamma(big) is a sum of
    one log per unit of s, plus log(Gamma(big + 1/2) / Gamma(big)) when s is
    a half-integer, so no two large lgammas are differenced.
    """
    s, big = sorted((a, b))
    whole = int(s)
    logs = [math.log(big + (s - whole) + j) for j in range(whole)]
    if s != whole:
        logs.append(_log_gamma_ratio_half(big))
    return math.lgamma(s) - math.fsum(logs)


def _away_from_zero(v: float) -> float:
    """Lentz's guard: a vanishing denominator becomes a tiny one."""
    return v if abs(v) >= 1e-300 else 1e-300


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 / _away_from_zero(1.0 - qab * x / qap)
    h = d
    for m in range(1, 1000):
        m2 = 2 * m
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 / _away_from_zero(1.0 + aa * d)
            c = _away_from_zero(1.0 + aa / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge: a={a}, b={b}, x={x}")


def _f_sf(f: float, df1: float, df2: float) -> float:
    """Upper F tail I_x(df2/2, df1/2) with x = df2 / (df2 + df1 * f)."""
    if f <= 0.0:
        return 1.0
    a, b = 0.5 * df2, 0.5 * df1
    # x and 1 - x straight from f: near x = 1 a subtraction would lose digits.
    den = df2 + df1 * f
    x, y = df2 / den, df1 * f / den
    if x == 0.0:  # f is infinite, or df1 * f overflowed
        return 0.0
    log_x = math.log1p(-y) if x > 0.5 else math.log(x)
    log_y = math.log1p(-x) if y > 0.5 else math.log(y)
    front = math.exp(a * log_x + b * log_y - _log_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, y) / b


def _poly(coeffs, x: float) -> float:
    total = 0.0
    for c in reversed(coeffs):
        total = total * x + c
    return total


# Polynomial corrections for the two largest coefficients, in 1/sqrt(n).
_SW_C1 = (0.0, 0.221157, -0.147981, -2.071190, 4.434685, -2.706056)
_SW_C2 = (0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633)
# ln(1 - W) normalization for n >= 12, in ln(n).
_SW_C5 = (-1.5861, -0.31082, -0.083751, 0.0038915)
_SW_C6 = (-0.4803, -0.082676, 0.0030302)
# (w - mu) / sigma normalization for 4 <= n <= 11, in n.
_SW_C3 = (0.5440, -0.39978, 0.025054, -6.714e-4)
_SW_C4 = (1.3822, -0.77857, 0.062767, -0.0020322)

_SW_PI6 = 1.90985931710274  # 6/pi
_SW_STQR = 1.04719755119660  # asin(sqrt(3/4))


def _finite_sum(values, test_name: str) -> float:
    """math.fsum of values, refused when it, or a value, overflows."""
    try:
        total = math.fsum(values)
    except OverflowError:
        total = math.inf
    if math.isinf(total):
        raise ValidationError(f"{test_name}: a sum overflows; the values are too large")
    return total


def shapiro_wilk(sample) -> TestResult:
    """W statistic and p-value for the null of normality, 3 <= n <= 5000."""
    x = sorted(float(v) for v in sample)
    n = len(x)
    if n < 3:
        raise ValidationError(f"shapiro_wilk needs at least 3 observations, got {n}")
    if n > 5000:
        raise ValidationError(f"shapiro_wilk approximation is valid to n = 5000, got {n}")
    if x[0] == x[-1]:
        raise DegenerateDataError("all observations identical; W is undefined")

    n2 = n // 2
    if n == 3:
        weights = [math.sqrt(0.5)]
    else:
        from statistics import NormalDist  # loads fractions and decimal: import it only here

        inv_cdf = NormalDist().inv_cdf
        m = [inv_cdf((i - 0.375) / (n + 0.25)) for i in range(1, n2 + 1)]
        summ2 = 2.0 * math.fsum(v * v for v in m)
        ssumm2 = math.sqrt(summ2)
        rsn = 1.0 / math.sqrt(n)
        a1 = _poly(_SW_C1, rsn) - m[0] / ssumm2
        if n > 5:
            a2 = _poly(_SW_C2, rsn) - m[1] / ssumm2
            fac = math.sqrt(
                (summ2 - 2.0 * m[0] ** 2 - 2.0 * m[1] ** 2) / (1.0 - 2.0 * a1 * a1 - 2.0 * a2 * a2)
            )
            weights = [a1, a2] + [-v / fac for v in m[2:]]
        else:
            fac = math.sqrt((summ2 - 2.0 * m[0] ** 2) / (1.0 - 2.0 * a1 * a1))
            weights = [a1] + [-v / fac for v in m[1:]]

    mean = _finite_sum(x, SHAPIRO_WILK) / n
    ssq = _finite_sum(((v - mean) ** 2 for v in x), SHAPIRO_WILK)
    b = _finite_sum((w * (x[n - 1 - i] - x[i]) for i, w in enumerate(weights)), SHAPIRO_WILK)
    w_stat = min(b * b / ssq, 1.0)

    if n == 3:
        p = _SW_PI6 * (math.asin(math.sqrt(w_stat)) - _SW_STQR)
        p = min(max(p, 0.0), 1.0)
    elif w_stat >= 1.0:
        p = 1.0
    elif n <= 11:
        gamma = -2.273 + 0.459 * n
        if gamma - math.log(1.0 - w_stat) <= 0:
            p = 0.0
        else:
            lw = -math.log(gamma - math.log(1.0 - w_stat))
            mu = _poly(_SW_C3, n)
            sigma = math.exp(_poly(_SW_C4, n))
            p = _norm_sf((lw - mu) / sigma)
    else:
        ln_n = math.log(n)
        lw = math.log(1.0 - w_stat)
        mu = _poly(_SW_C5, ln_n)
        sigma = math.exp(_poly(_SW_C6, ln_n))
        p = _norm_sf((lw - mu) / sigma)
    return TestResult(SHAPIRO_WILK, w_stat, (), p)


def _as_groups(groups) -> list[SampleGroup]:
    out = []
    for i, g in enumerate(groups):
        if isinstance(g, SampleGroup):
            out.append(g)
        else:
            out.append(SampleGroup(label=f"group{i + 1}", values=tuple(g)))
    return out


def _f_oneway(samples: list[list[float]], test_name: str) -> TestResult:
    g = len(samples)
    sizes = [len(s) for s in samples]
    total_n = sum(sizes)
    if g < 2:
        raise ValidationError(f"{test_name} needs at least 2 groups, got {g}")
    if any(n < 2 for n in sizes):
        raise ValidationError(f"{test_name} needs at least 2 observations per group")
    if total_n <= g:
        raise ValidationError(f"{test_name} needs more observations than groups")
    grand = _finite_sum((math.fsum(s) for s in samples), test_name) / total_n
    means = [math.fsum(s) / len(s) for s in samples]  # each group's sum was taken for grand
    ssb = _finite_sum((n * (m - grand) ** 2 for n, m in zip(sizes, means)), test_name)
    ssw = _finite_sum((math.fsum((v - m) ** 2 for v in s) for s, m in zip(samples, means)),
                      test_name)
    df = (float(g - 1), float(total_n - g))
    # A sum of squares within its own rounding error counts as zero: values
    # equal in exact arithmetic can leave ~eps * |v| behind once a mean is
    # taken off, so the bound scales with the data rather than being fixed.
    squares = _finite_sum((v * v for s in samples for v in s), test_name)
    rounding = (4 * math.ulp(1.0)) ** 2 * squares
    if ssb <= rounding and ssw <= rounding:
        raise DegenerateDataError(
            f"{test_name}: zero within- and between-group variance; F is undefined"
        )
    if ssb <= rounding:
        return TestResult(test_name, 0.0, df, 1.0)
    if ssw <= rounding:
        return TestResult(test_name, math.inf, df, 0.0)
    f_stat = (ssb / df[0]) / (ssw / df[1])
    return TestResult(test_name, f_stat, df, _f_sf(f_stat, df[0], df[1]))


def anova_oneway(groups) -> TestResult:
    """Classical one-way F test, df = (g - 1, N - g)."""
    samples = [list(g.values) for g in _as_groups(groups)]
    return _f_oneway(samples, ANOVA)


def levene_median(groups) -> TestResult:
    """Brown-Forsythe equal-variance test: one-way F on the absolute
    deviations from each group's median."""
    samples = []
    for g in _as_groups(groups):
        vals = sorted(g.values)
        n = len(vals)
        if n < 2:
            raise ValidationError("levene_median needs at least 2 observations per group")
        mid = n // 2
        med = vals[mid] if n % 2 else (vals[mid - 1] + vals[mid]) / 2.0
        samples.append([abs(v - med) for v in g.values])
    try:
        return _f_oneway(samples, LEVENE_MEDIAN)
    except DegenerateDataError:
        # Identical deviation sets in every group: no variance signal at all.
        g = len(samples)
        total_n = sum(len(s) for s in samples)
        return TestResult(LEVENE_MEDIAN, 0.0, (float(g - 1), float(total_n - g)), 1.0)


def _midranks(pooled: list[float]) -> tuple[list[float], int]:
    """Mid-ranks of the pooled sample, and its tie sum: t**3 - t summed over
    every run of t equal values."""
    order = sorted(range(len(pooled)), key=lambda i: pooled[i])
    ranks = [0.0] * len(pooled)
    ties = 0
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        mid = (i + j) / 2.0 + 1.0
        for idx in order[i : j + 1]:
            ranks[idx] = mid
        ties += (j - i + 1) ** 3 - (j - i + 1)
        i = j + 1
    return ranks, ties


def kruskal_wallis(groups) -> TestResult:
    """H statistic with mid-rank tie correction; p from chi-square with
    g - 1 degrees of freedom."""
    samples = [list(g.values) for g in _as_groups(groups)]
    g = len(samples)
    if g < 2:
        raise ValidationError(f"kruskal_wallis needs at least 2 groups, got {g}")
    if any(not s for s in samples):
        raise ValidationError("kruskal_wallis groups must be non-empty")
    total_n = sum(len(s) for s in samples)
    if total_n < 3:
        raise ValidationError("kruskal_wallis needs at least 3 observations in total")
    pooled = [v for s in samples for v in s]
    ranks, ties = _midranks(pooled)
    rank_sums = []
    pos = 0
    for s in samples:
        rank_sums.append(math.fsum(ranks[pos : pos + len(s)]))
        pos += len(s)
    h = 12.0 / (total_n * (total_n + 1)) * math.fsum(
        rs * rs / len(s) for rs, s in zip(rank_sums, samples)
    ) - 3.0 * (total_n + 1)
    correction = 1.0 - ties / float(total_n**3 - total_n)
    if correction <= 0.0:
        raise DegenerateDataError("all observations identical; H is undefined after tie correction")
    h /= correction
    df = float(g - 1)
    return TestResult(KRUSKAL_WALLIS, h, (df,), _chi2_sf(h, df))


def run_pipeline(groups, alpha: float = DEFAULT_ALPHA) -> PipelineResult:
    """Gate on per-group normality and equivariance, then compare.

    ANOVA when every Shapiro-Wilk p >= alpha and the Levene p >= alpha;
    Kruskal-Wallis otherwise.  A failed equivariance gate downgrades to
    Kruskal-Wallis as well but is surfaced as a warning, since neither
    comparison strictly applies then.

    A Shapiro-Wilk gate that cannot be computed (fewer than 3 or more than
    5000 observations, or a constant group) counts as failed, with a
    warning that names the group.  A group with fewer than 2 observations
    is left out of Levene's test and the comparison and listed in
    ``excluded``.  Kruskal-Wallis on a constant pooled sample still raises
    :class:`DegenerateDataError`.
    """
    gs = _as_groups(groups)
    kept = [g for g in gs if len(g.values) >= 2]
    if len(kept) < 2:
        raise ValidationError(
            f"pipeline needs at least 2 groups of 2 or more observations, got {len(kept)}"
        )
    gates = []
    warnings = []
    for g in gs:
        try:
            gates.append(shapiro_wilk(g.values))
        except (ValidationError, DegenerateDataError) as exc:
            gates.append(TestResult(SHAPIRO_WILK, None, (), 0.0, reason=str(exc)))
            warnings.append(
                f"group {g.label!r}: shapiro_wilk not computed ({exc}); counted as failed"
            )
    excluded = tuple(g.label for g in gs if len(g.values) < 2)
    for label in excluded:
        warnings.append(
            f"group {label!r} has fewer than 2 observations; excluded from levene_median "
            "and the comparison"
        )
    levene = levene_median(kept)
    gates.append(levene)
    if levene.p_value < alpha:
        warnings.append(
            f"equivariance check failed (levene_median p = {levene.p_value:.4g} < {alpha:g}); "
            "falling back to kruskal_wallis, interpret with care"
        )
    if all(gate.p_value >= alpha for gate in gates):
        comparison = anova_oneway(kept)
    else:
        comparison = kruskal_wallis(kept)
    return PipelineResult(
        test_used=comparison.test,
        gate_results=tuple(gates),
        comparison=comparison,
        warnings=tuple(warnings),
        excluded=excluded,
    )

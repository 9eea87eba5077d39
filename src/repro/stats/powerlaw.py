"""Discrete power-law fitting.

Figure 18(b) of the paper argues the file generation network's degree
distribution follows a power law by inspecting the log-log slope.  We make
the claim quantitative: a discrete maximum-likelihood estimate of the
exponent (Clauset, Shalizi & Newman 2009: their exact discrete likelihood,
eq. 3.5, maximized numerically), a goodness-of-fit statistic
(Kolmogorov–Smirnov distance against the fitted law), and a log-log
least-squares slope for direct comparison with the paper's visual argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PowerLawFit:
    """Result of fitting ``P(k) ∝ k^-alpha`` for ``k >= kmin``."""

    alpha: float
    kmin: int
    n_tail: int
    ks_distance: float
    loglog_slope: float

    @property
    def plausibly_power_law(self) -> bool:
        """Coarse plausibility gate: decent tail size and small KS distance."""
        return self.n_tail >= 10 and self.ks_distance < 0.2


#: terms of ζ(α, kmin) summed directly before the Euler–Maclaurin remainder
_ZETA_HEAD = 16
#: B_2j / (2j)! for j = 1..7 (B_2 = 1/6 … B_14 = 7/6): the remainder's
#: coefficients, as in Cephes' ``zeta`` (and so ``scipy.special.zeta``)
_EULER_MACLAURIN = (
    1.0 / 12.0,
    -1.0 / 720.0,
    1.0 / 30240.0,
    -1.0 / 1209600.0,
    1.0 / 47900160.0,
    -691.0 / 1307674368000.0,
    1.0 / 74724249600.0,
)


def _hurwitz_zeta(alpha: float, kmin: int) -> float:
    """Hurwitz zeta ``ζ(α, kmin) = sum_{k>=kmin} k^-α`` for ``α > 1``.

    ``_ZETA_HEAD`` direct terms, then the Euler–Maclaurin remainder at
    ``a = kmin + _ZETA_HEAD``: ``a^(1-α)/(α-1) + a^-α/2 + sum_j B_2j/(2j)!
    · α(α+1)…(α+2j-2) · a^(-α-2j+1)``.  The first omitted term (B_16) is
    below 2e-20 of ζ for every ``α`` in the MLE's bracket and every
    ``kmin >= 1``, so only rounding is left.
    """
    head = float((np.arange(kmin, kmin + _ZETA_HEAD, dtype=np.float64) ** -alpha).sum())
    a = float(kmin + _ZETA_HEAD)
    tail = a ** (1.0 - alpha) / (alpha - 1.0) + 0.5 * a ** -alpha
    rising = alpha  # α(α+1)…(α+2j-2)
    power = a ** (-alpha - 1.0)  # a^(-α-2j+1)
    for i, coeff in enumerate(_EULER_MACLAURIN):  # j = i + 1
        tail += coeff * rising * power
        rising *= (alpha + 2 * i + 1.0) * (alpha + 2 * i + 2.0)
        power /= a * a
    return head + tail


def _mle_alpha(sample: np.ndarray, kmin: int) -> float:
    """Exact discrete MLE: maximize ``-alpha*sum(ln x) - n*ln zeta(alpha, kmin)``.

    Solved by golden-section search over alpha in (1.01, 8); the discrete
    log-likelihood is unimodal in alpha.
    """
    tail = sample[sample >= kmin]
    n = tail.size
    if n == 0:
        return float("nan")
    log_sum = float(np.log(tail).sum())

    def neg_loglik(alpha: float) -> float:
        return alpha * log_sum + n * np.log(_hurwitz_zeta(alpha, kmin))

    lo, hi = 1.01, 8.0
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = neg_loglik(c), neg_loglik(d)
    for _ in range(60):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = neg_loglik(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = neg_loglik(d)
    return float((a + b) / 2.0)


def _ks_distance(sample: np.ndarray, alpha: float, kmin: int) -> float:
    """KS distance between the empirical tail CDF and the fitted law."""
    tail = np.sort(sample[sample >= kmin])
    if tail.size == 0:
        return 1.0
    ks = np.arange(kmin, tail.max() + 1, dtype=np.float64)
    # the law renormalized over the observed support [kmin, max degree],
    # not over [kmin, ∞) by ζ(α, kmin) as in Clauset et al.: the fitted
    # mass beyond the largest degree is dropped
    pmf = ks ** (-alpha)
    total = pmf.sum()
    if not np.isfinite(total) or total <= 0.0:
        return 1.0
    pmf /= total
    model_cdf = np.cumsum(pmf)
    emp_cdf = np.searchsorted(tail, ks, side="right") / tail.size
    return float(np.abs(emp_cdf - model_cdf).max())


def _loglog_slope(sample: np.ndarray) -> float:
    """Least-squares slope of the log-log degree frequency plot."""
    values, counts = np.unique(sample, return_counts=True)
    mask = values > 0
    x = np.log10(values[mask].astype(np.float64))
    y = np.log10(counts[mask].astype(np.float64))
    if x.size < 2:
        return float("nan")
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def fit_power_law(sample: np.ndarray, kmin: int | None = None) -> PowerLawFit:
    """Fit a discrete power law to a positive integer sample.

    When ``kmin`` is ``None``, it is chosen by scanning candidate values and
    keeping the one minimizing the KS distance — the standard
    Clauset–Shalizi–Newman model-selection procedure.
    """
    sample = np.asarray(sample)
    sample = sample[sample > 0].astype(np.float64)
    if sample.size < 3:
        raise ValueError("need at least 3 positive observations to fit")
    slope = _loglog_slope(sample)
    if kmin is not None:
        if kmin < 1:
            raise ValueError(f"kmin must be >= 1, got {kmin}")
        alpha = _mle_alpha(sample, kmin)
        ks = _ks_distance(sample, alpha, kmin)
        return PowerLawFit(
            alpha=float(alpha),
            kmin=int(kmin),
            n_tail=int((sample >= kmin).sum()),
            ks_distance=ks,
            loglog_slope=slope,
        )
    best: PowerLawFit | None = None
    candidates = np.unique(sample.astype(np.int64))
    # keep at least 10 tail points so the MLE is meaningful
    for kmin_c in candidates:
        kmin_c = int(kmin_c)
        tail = sample[sample >= kmin_c]
        # require a meaningful tail: enough points and enough distinct
        # degrees for the KS comparison to be informative
        if kmin_c < 1 or tail.size < 10 or np.unique(tail).size < 4:
            continue
        alpha = _mle_alpha(sample, kmin_c)
        if not np.isfinite(alpha) or alpha > 7.9:
            continue  # boundary solution — not a power law
        ks = _ks_distance(sample, alpha, kmin_c)
        fit = PowerLawFit(
            alpha=float(alpha),
            kmin=kmin_c,
            n_tail=int((sample >= kmin_c).sum()),
            ks_distance=ks,
            loglog_slope=slope,
        )
        if best is None or fit.ks_distance < best.ks_distance:
            best = fit
    if best is None:
        # degenerate sample (e.g. all identical): fall back to kmin = min
        kmin_f = int(sample.min())
        if kmin_f < 1:
            kmin_f = 1
        alpha = _mle_alpha(sample, kmin_f)
        best = PowerLawFit(
            alpha=float(alpha) if np.isfinite(alpha) else float("nan"),
            kmin=kmin_f,
            n_tail=int((sample >= kmin_f).sum()),
            ks_distance=_ks_distance(sample, alpha, kmin_f)
            if np.isfinite(alpha)
            else 1.0,
            loglog_slope=slope,
        )
    return best

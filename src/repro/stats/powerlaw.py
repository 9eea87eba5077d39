"""Discrete power-law fitting.

Figure 18(b) of the paper argues the file generation network's degree
distribution follows a power law by inspecting the log-log slope.  We make
the claim quantitative: a discrete maximum-likelihood estimate of the
exponent (Clauset, Shalizi & Newman 2009, eq. 3.7 approximation), a
goodness-of-fit statistic (Kolmogorov–Smirnov distance against the fitted
law), and a log-log least-squares slope for direct comparison with the
paper's visual argument.
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


_ZETA_TERMS = 100_000


def _hurwitz_zeta(alpha: float, ks: np.ndarray) -> float:
    """``sum_{k=kmin}^inf k^-alpha`` by direct summation + integral tail.

    ``ks`` holds the ``_ZETA_TERMS`` summed terms ``kmin, kmin + 1, ...``;
    callers build it once per ``kmin``, not once per ``alpha``.
    """
    head = float((ks ** -alpha).sum())
    tail_start = int(ks[0]) + _ZETA_TERMS
    # Euler–Maclaurin leading terms for the truncated tail
    tail = tail_start ** (1.0 - alpha) / (alpha - 1.0) + 0.5 * tail_start ** -alpha
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
    ks = np.arange(kmin, kmin + _ZETA_TERMS, dtype=np.float64)

    def neg_loglik(alpha: float) -> float:
        return alpha * log_sum + n * np.log(_hurwitz_zeta(alpha, ks))

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
    # Zeta-normalized discrete power law, computed by direct summation —
    # degree supports here are tiny (max degree << 10^4).
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
            loglog_slope=_loglog_slope(sample),
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
            loglog_slope=_loglog_slope(sample),
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
            loglog_slope=_loglog_slope(sample),
        )
    return best

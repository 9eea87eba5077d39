import numpy as np
import pytest
from scipy.special import zeta

from repro.analysis.context import AnalysisContext
from repro.analysis.network import build_network, degree_distribution
from repro.analysis.report import render_degree
from repro.scan.snapshot import SnapshotCollection
from repro.stats.powerlaw import _hurwitz_zeta, fit_power_law
from repro.synth.population import generate_population


def _power_law_sample(alpha, n, seed=1, kmin=1):
    """Discrete power-law sample by inverse-transform on a Zipf tail."""
    rng = np.random.default_rng(seed)
    return rng.zipf(alpha, size=n) * kmin


def test_recovers_known_exponent():
    sample = _power_law_sample(2.5, 20_000, seed=7)
    fit = fit_power_law(sample, kmin=1)
    assert fit.alpha == pytest.approx(2.5, abs=0.1)


def test_exponent_with_automatic_kmin():
    sample = _power_law_sample(2.2, 20_000, seed=3)
    fit = fit_power_law(sample)
    assert fit.alpha == pytest.approx(2.2, abs=0.25)
    assert fit.plausibly_power_law


def test_loglog_slope_negative_for_power_law():
    sample = _power_law_sample(2.5, 10_000, seed=5)
    fit = fit_power_law(sample, kmin=1)
    assert fit.loglog_slope < -1.0


def test_uniform_sample_fits_poorly():
    rng = np.random.default_rng(11)
    sample = rng.integers(90, 110, size=5000)
    fit = fit_power_law(sample)
    good = _power_law_sample(2.5, 5000, seed=11)
    good_fit = fit_power_law(good)
    assert good_fit.ks_distance < fit.ks_distance


def test_rejects_tiny_sample():
    with pytest.raises(ValueError):
        fit_power_law(np.array([1, 2]))


def test_rejects_bad_kmin():
    with pytest.raises(ValueError):
        fit_power_law(np.array([1, 2, 3, 4]), kmin=0)


def test_nonpositive_values_dropped():
    sample = np.concatenate([_power_law_sample(2.5, 5000), [0, 0, -5]])
    fit = fit_power_law(sample, kmin=1)
    assert np.isfinite(fit.alpha)


def test_tail_size_reported():
    sample = np.array([1] * 50 + [2] * 20 + [5] * 10 + [20] * 3)
    fit = fit_power_law(sample, kmin=2)
    assert fit.n_tail == 33


def test_degenerate_constant_sample_falls_back():
    fit = fit_power_law(np.full(20, 3))
    assert fit.kmin >= 1  # no crash; fallback path


# alpha spans the MLE's bracket (1.01, 8); kmin spans the scan's candidates,
# from the smallest degree to far beyond the largest one synth produces
@pytest.mark.parametrize("kmin", [1, 2, 3, 27, 490, 10_000])
@pytest.mark.parametrize("alpha", [1.01, 1.1, 1.5, 2.3, 4.0, 7.99])
def test_hurwitz_zeta_matches_scipy(alpha, kmin):
    # scipy.special.zeta (Cephes) is the independent oracle; 2e-15 is ~10 ulp
    assert _hurwitz_zeta(alpha, kmin) == pytest.approx(zeta(alpha, kmin), rel=2e-15, abs=0)


# Pinned fits.  kmin, n_tail and the slope are compared exactly; alpha and
# KS within 1e-6, because near the optimum the likelihood is flat to its
# rounding, so the golden-section alpha is defined to ~1e-8 only.  Every
# expected value is the fit computed before ζ was evaluated by
# Euler–Maclaurin (100,000 summed terms).


def _assert_pinned(fit, kmin, n_tail, slope, alpha, ks_distance):
    assert (fit.kmin, fit.n_tail) == (kmin, n_tail)
    assert fit.loglog_slope == slope
    assert fit.alpha == pytest.approx(alpha, rel=0, abs=1e-6)
    assert fit.ks_distance == pytest.approx(ks_distance, rel=0, abs=1e-6)


def test_fig18_degree_fit_pinned():
    # the scorecard's population (generate_population's defaults)
    population = generate_population(seed=2015, n_users=1362)
    result = degree_distribution(build_network(AnalysisContext(SnapshotCollection(), population)))
    _assert_pinned(
        result.fit, 2, 1025, -1.7798822281801203, 2.303766519050229, 0.07369231223412082
    )
    # the first line of benchmarks/output/fig18_degree.txt
    assert render_degree(result) == (
        "degree power-law fit: alpha=2.30 kmin=2 tail=1025 KS=0.074 "
        "loglog-slope=-1.78 plausible=True"
    )


def test_automatic_kmin_fits_pinned():
    # the sample of test_exponent_with_automatic_kmin: the scan keeps kmin = 1
    fit = fit_power_law(_power_law_sample(2.2, 20_000, seed=3))
    _assert_pinned(fit, 1, 20_000, -1.1936782931941858, 2.2007279510528166, 0.0018399131244384304)
    # even values only: the scan moves kmin up to where the gaps matter less
    fit = fit_power_law(_power_law_sample(2.5, 5000, seed=11, kmin=2))
    _assert_pinned(fit, 12, 189, -1.5377073720314487, 2.5630278630034082, 0.057544995105065916)

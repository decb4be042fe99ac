"""Filon quadrature against closed forms and its failure modes."""

import math

import numpy as np
import pytest

import fourierdim as fd
from fourierdim import transform
from fourierdim.transform import _filon_moments


LEB = fd.UniformOnIntervals(((0.0, 1.0),))

VARIANTS = [
    LEB,
    fd.UniformOnIntervals(((0.0, 0.25), (0.5, 1.0))),
    fd.TrigDensity(((0.5, 3), (-0.25, 7))),
    fd.DigitProduct(6, (fd.DigitBlock(1, 2, "01"),)),
    fd.Mixture((LEB, fd.TrigDensity(((0.25, 2),))), (0.3, 0.7)),
    fd.AffineImage(LEB, 0.5, 0.25),
    fd.smooth_cut(LEB, (0.5, 0.3, 2)),
]

FREQS = [0.0, 0.5, 3.25, 17.0, 123.456]


@pytest.mark.parametrize("m", VARIANTS, ids=lambda m: type(m).__name__)
@pytest.mark.parametrize("xi", FREQS)
def test_quadrature_matches_closed_form(m, xi):
    res = fd.ft_quadrature(m, xi, tol=1e-10)
    closed = fd.ft(m, xi)
    assert abs(res.value - closed) <= 1e-8 + 10.0 * res.error


def test_atomic_measures_are_summed_exactly():
    m = fd.Atomic(((0.125, 0.5), (0.6, 0.3), (0.875, 0.2)))
    for xi in (0.0, 1.0, 2.5, 1e6):
        res = fd.ft_quadrature(m, xi)
        assert res.error == 0.0
        assert res.panels == 0
        assert res.value == fd.ft(m, xi)


def test_mixture_with_atoms_splits_cleanly():
    m = fd.Mixture((fd.Atomic(((0.5, 1.0),)), LEB), (0.25, 0.75))
    res = fd.ft_quadrature(m, 2.5, tol=1e-11)
    assert abs(res.value - fd.ft(m, 2.5)) < 1e-9


ATOMS_AND_LEB = fd.Mixture((fd.Atomic(((0.2, 1.0), (0.7, 0.5))), LEB), (0.4, 0.6))


@pytest.mark.parametrize("m", [
    fd.AffineImage(ATOMS_AND_LEB, -1.5, 0.3),
    fd.Mixture((ATOMS_AND_LEB, fd.TrigDensity(((0.5, 3), (-0.25, 7)))), (0.7, 0.3)),
], ids=["affine", "nested"])
@pytest.mark.parametrize("xi", FREQS)
def test_atoms_inside_images_and_nested_mixtures(m, xi):
    # the atoms come from _atoms and the pieces from _density, through the
    # image's map and both mixture weights
    res = fd.ft_quadrature(m, xi, tol=1e-10)
    assert abs(res.value - fd.ft(m, xi)) <= 1e-8 + 10.0 * res.error


def test_tolerance_drives_refinement():
    m = fd.TrigDensity(((0.5, 40),))
    loose = fd.ft_quadrature(m, 7.3, tol=1e-4)
    tight = fd.ft_quadrature(m, 7.3, tol=1e-12)
    assert tight.panels >= loose.panels
    assert tight.error <= loose.error


def test_high_frequency_costs_nothing_extra():
    # Panel count reflects the density's oscillation, not |xi|.
    small = fd.ft_quadrature(LEB, 3.7, tol=1e-10)
    huge = fd.ft_quadrature(LEB, 1e9 + 0.5, tol=1e-10)
    assert huge.panels <= 4 * max(small.panels, 4)
    assert abs(huge.value - fd.ft(LEB, 1e9 + 0.5)) < 1e-9


def test_budget_exhaustion_raises():
    m = fd.TrigDensity(((0.5, 200),))
    with pytest.raises(fd.QuadratureError):
        fd.ft_quadrature(m, 0.3, tol=1e-18, max_panels=8)


def test_tolerance_and_budget_validated():
    for tol in (0.0, -1e-9, math.nan, math.inf):
        with pytest.raises(fd.MeasureError):
            fd.ft_quadrature(LEB, 0.3, tol=tol)
    for panels in (7, fd.transform.QUADRATURE_MAX_PANELS + 1):
        with pytest.raises(fd.MeasureError):
            fd.ft_quadrature(LEB, 0.3, max_panels=panels)


def test_non_finite_frequency_rejected():
    with pytest.raises(fd.MeasureError):
        fd.ft_quadrature(LEB, math.inf)


def test_atoms_take_exact_phases():
    # 3^40 rounds to a float whose phase at 0.3 is far off
    atom = fd.Atomic(((0.3, 1.0),))
    assert fd.ft_quadrature(atom, 3 ** 40).value == fd.ft(atom, 3 ** 40)
    # atoms need no float frequency; density pieces do
    assert fd.ft_quadrature(atom, 3 ** 700).value == fd.ft(atom, 3 ** 700)
    with pytest.raises(fd.MeasureError, match="2\\^1024"):
        fd.ft_quadrature(LEB, 2 ** 1100)


def test_frequency_past_the_float_range_of_the_panels_raises_up_front(monkeypatch):
    # 1e308 times the breakpoint 4 overflows: the panels used to run on NaN
    # until the budget was spent, then raise QuadratureError
    def no_panel(*args):
        raise AssertionError("a panel was evaluated")

    monkeypatch.setattr(transform, "_filon_segment", no_panel)
    for m, xi in ((fd.UniformOnIntervals(((0, 4),)), 1e308),
                  (fd.AffineImage(LEB, 1.0, -2.0), -1e308)):
        with pytest.raises(fd.MeasureError, match="breakpoint"):
            fd.ft_quadrature(m, xi)


def test_unsupported_measures_raise():
    wrapped = fd.AffineImage(LEB, 4, 0.0, mod1=True)
    with pytest.raises(fd.MeasureError):
        fd.ft_quadrature(wrapped, 0.3)
    with pytest.raises(fd.MeasureError):
        fd.ft_quadrature(fd.SelfSimilarDigit(3, (0, 2)), 0.3)


def _simpson_moment(r, theta, n=1 << 18):
    u = np.linspace(-1.0, 1.0, n + 1)
    f = u**r * np.exp(1j * theta * u)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return complex(np.sum(w * f) * (2.0 / n) / 3.0)


@pytest.mark.parametrize("theta", [0.3, 2.0, 9.7, 10.5, 40.0, 300.0])
def test_filon_moments_match_dense_simpson(theta):
    # Covers both the Gauss-Legendre branch (|theta| <= 10) and the recurrence.
    mom = _filon_moments(theta)
    for r in range(5):
        assert abs(mom[r] - _simpson_moment(r, theta)) < 1e-11


def test_filon_moments_parity():
    for theta in (0.7, 9.9, 10.1, 77.0):
        mom = _filon_moments(theta)
        neg = _filon_moments(-theta)
        for r in range(5):
            # u -> -u symmetry: even moments real, odd ones imaginary.
            if r % 2 == 0:
                assert abs(mom[r].imag) < 1e-15
            else:
                assert abs(mom[r].real) < 1e-15
            assert abs(neg[r] - np.conj(mom[r])) < 1e-15


def test_filon_moments_at_zero():
    mom = _filon_moments(0.0)
    assert mom[0] == pytest.approx(2.0, abs=1e-15)
    assert mom[1] == pytest.approx(0.0, abs=1e-15)
    assert mom[2] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert mom[4] == pytest.approx(2.0 / 5.0, abs=1e-15)


def test_branch_seam_is_continuous():
    lo = _filon_moments(10.0 - 1e-9)
    hi = _filon_moments(10.0 + 1e-9)
    assert np.max(np.abs(lo - hi)) < 1e-8

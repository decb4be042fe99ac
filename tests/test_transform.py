"""Closed-form transform engine against independent oracles.

Oracle strategy: digit products are checked against brute-force enumeration
of admissible strings; the self-similar digit measure against an empirical
sample of the attractor; everything else against frozen analytic values and
algebraic identities that the implementation does not use internally.
"""

import cmath
import itertools
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fourierdim as fd
import fourierdim.transform as tr

LEB = fd.UniformOnIntervals(((0.0, 1.0),))

# |integral_0^1 e^(-2 pi i x/2) dx| = 2/pi, phase -pi/2
LEB_AT_HALF = -0.6366197723675814j


def test_leb_closed_form_values():
    assert fd.ft(LEB, 0) == 1.0 + 0.0j
    for k in (1, 2, 3, 17, 10 ** 9, 2 ** 300):
        assert fd.ft(LEB, k) == 0.0j, k
    assert abs(fd.ft(LEB, 0.5) - LEB_AT_HALF) < 1e-15


def test_leb_general_frequency():
    # |ft| = |sin(pi xi)| / (pi xi) for the unit interval
    for xi in (0.25, 1.5, 7.3, 1000.1):
        want = abs(math.sin(math.pi * xi) / (math.pi * xi))
        assert abs(abs(fd.ft(LEB, xi)) - want) < 1e-14


def test_atomic_transform_is_exact_phase_sum():
    m = fd.Atomic(((0.25, 0.5), (0.75, 0.5)))
    # e^(-i pi/2)/2 + e^(-3 i pi/2)/2 = (-i + i)/2 = 0 at xi = 1
    assert abs(fd.ft(m, 1)) < 1e-16
    assert fd.ft(m, 0) == 1.0 + 0.0j
    v = fd.ft(m, 2)  # both atoms hit phase e^(-i pi) = -1 and e^(-3 i pi) = -1
    assert abs(v + 1.0) < 1e-15


def test_trig_density_exact_spikes():
    m = fd.TrigDensity(((0.5, 4),))
    assert fd.ft(m, 4) == -0.25j  # c/(2i) branch, exact
    assert fd.ft(m, 1) == 0.0j
    assert fd.ft(m, 3) == 0.0j
    assert fd.ft(m, 0) == 1.0 + 0.0j
    neg = fd.TrigDensity(((-0.5, 4),))
    assert fd.ft(neg, 4) == 0.25j


def test_trig_density_nonspike_frequency():
    # numeric oracle: density 1 + 0.5 sin(2 pi 4 x) sampled densely
    m = fd.TrigDensity(((0.5, 4),))
    x = np.linspace(0.0, 1.0, 2 ** 18 + 1)
    dens = 1.0 + 0.5 * np.sin(2 * np.pi * 4 * x)
    for xi in (0.7, 2.3, 5.5):
        y = dens * np.exp(-2j * np.pi * xi * x)
        n = len(x) - 1
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        want = np.sum(w * y) / (3.0 * n)
        assert abs(fd.ft(m, xi) - want) < 1e-10, xi


DIGIT_CASES = [
    fd.DigitProduct(4, ()),
    fd.DigitProduct(6, (fd.DigitBlock(1, 2, "00"),)),
    fd.DigitProduct(8, (fd.DigitBlock(1, 2, "00"), fd.DigitBlock(5, 3, "101"))),
    fd.DigitProduct(10, (fd.DigitBlock(0, 3, "000"), fd.DigitBlock(6, 2, "11"))),
    fd.DigitProduct(12, (fd.DigitBlock(2, 4, "0110"),)),
]


def _digit_enumeration(m):
    """All admissible strings as left endpoints, plus the cylinder width."""
    spans = {(b.offset, b.length): b.forbidden_pattern for b in m.blocks}
    pts = []
    for bits in itertools.product("01", repeat=m.depth):
        s = "".join(bits)
        if any(s[o:o + l] == pat for (o, l), pat in spans.items()):
            continue
        pts.append(int(s, 2) / 2.0 ** m.depth)
    return np.array(pts), 2.0 ** -m.depth


def _eplus(g):
    # e^(i pi g) sinc(g) form avoids the cancellation of (e^(2 pi i g) - 1)
    return np.exp(1j * np.pi * g) * np.sinc(g)


@pytest.mark.parametrize("m", DIGIT_CASES, ids=lambda m: f"depth{m.depth}")
def test_digit_product_vs_enumeration(m):
    pts, h = _digit_enumeration(m)
    assert len(pts) == m.cylinder_count()
    for xi in (1, 5, 0.3, 2.75, 41.0, 997):
        brute = np.mean(np.exp(-2j * np.pi * np.float64(xi) * pts)) * _eplus(-xi * h)
        assert abs(fd.ft(m, xi) - brute) < 5e-13, xi


def test_digit_product_grid_matches_scalar():
    m = DIGIT_CASES[2]
    xs = np.array([0.5, 3.0, 17.25, 2.0 ** 20, 2.0 ** 39])
    grid = fd.ft_grid(m, xs)
    scalar = np.array([fd.ft(m, float(x)) for x in xs])
    assert np.max(np.abs(grid - scalar)) < 1e-15


def test_self_similar_empirical_oracle():
    m = fd.cantor_measure()
    rng = np.random.default_rng(1234)
    digits = rng.integers(0, 2, size=(10 ** 6, 40)) * 2
    scales = 3.0 ** -(np.arange(1, 41))
    xs = digits @ scales
    for xi in (1.0, 2.0, 4.5):
        emp = np.mean(np.exp(-2j * np.pi * xi * xs))
        assert abs(fd.ft(m, xi) - emp) < 5e-3, xi


def test_self_similar_power_recursion_bit_exact():
    m = fd.cantor_measure()
    base = abs(fd.ft(m, 1))
    assert base > 0.05
    for k in range(1, 13):
        assert abs(fd.ft(m, 3 ** k)) == base, k


@pytest.mark.parametrize("k", [650, 700, 1500])
def test_self_similar_power_recursion_past_float_range(k):
    # 3^k passes 2^1020 at k = 644.  The truncation depth must still follow
    # log2(xi): the first k levels are exact 1s, so a depth capped at 661
    # loses accuracy near k = 650 and reads |ft| = 1 from k = 661 on.
    m = fd.cantor_measure()
    assert abs(abs(fd.ft(m, 3 ** k)) - abs(fd.ft(m, 1))) <= 1e-10


def test_self_similar_other_base():
    # uniform on all base-4 digits is Lebesgue: transform vanishes at integers
    m = fd.SelfSimilarDigit(4, (0, 1, 2, 3))
    assert abs(fd.ft(m, 7)) < 1e-12


def test_lacunary_spikes_exact_at_extreme_magnitude():
    g = fd.lacunary_trig_measure(1, 48)
    for n in (1, 2, 6, 20, 48):
        xi = 2 ** (n * n)  # up to 2^2304
        assert fd.ft(g, xi) == -1j * 2.0 ** -(n + 1), n
    # non-matching integer frequencies are exactly zero
    assert fd.ft(g, 2 ** 2304 - 1) == 0.0j


def test_hermitian_symmetry_bit_exact():
    cases = [
        LEB,
        fd.Atomic(((0.1, 0.3), (0.6, 0.7))),
        fd.TrigDensity(((0.4, 3), (-0.3, 8))),
        DIGIT_CASES[2],
        fd.cantor_measure(),
        fd.Mixture((LEB, fd.Atomic(((0.5, 1.0),))), (0.5, 0.5)),
        fd.Convolution((LEB, LEB)),
    ]
    for m in cases:
        for xi in (1, 3, 0.7, 12.25, 10 ** 8 + 1):
            assert fd.ft(m, -xi) == fd.ft(m, xi).conjugate(), (m.variant, xi)


@given(st.floats(min_value=-1e6, max_value=1e6,
                 allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_hermitian_symmetry_property(xi):
    m = fd.TrigDensity(((0.4, 3), (-0.25, 11)))
    assert fd.ft(m, -xi) == fd.ft(m, xi).conjugate()


def test_mixture_linearity():
    a = fd.Atomic(((0.3, 1.0),))
    m = fd.Mixture((LEB, a), (0.25, 0.75))
    for xi in (0.5, 2, 9.75):
        want = 0.25 * fd.ft(LEB, xi) + 0.75 * fd.ft(a, xi)
        assert fd.ft(m, xi) == want


def test_affine_covariance():
    for a, c in ((0.5, 0.25), (-2.0, 1.0), (3.0, -0.7)):
        m = fd.AffineImage(LEB, a, c, False)
        for xi in (0.5, 1.0, 7.3):
            want = fd.phase_unit(xi, c) * fd.ft(LEB, a * xi)
            assert abs(fd.ft(m, xi) - want) < 1e-15


def test_ratios_past_the_float_range():
    # the inner frequency 0.75 * 4 * 3^1300 = 3^1301 is formed exactly, where
    # the rounded product used to overflow; a Fraction is read as its parts
    cantor = fd.cantor_measure()
    img = fd.AffineImage(cantor, 0.75)
    assert abs(fd.ft(img, 4 * 3 ** 1300)) == abs(fd.ft(cantor, 1))
    assert cmath.isfinite(fd.ft(cantor, Fraction(2 * 3 ** 1400 + 1, 2)))


NOT_FINITE_NUMBERS = ["0.5", True, np.bool_(True), b"1", math.nan, -math.inf, [1.0]]


@pytest.mark.parametrize("xi", NOT_FINITE_NUMBERS)
def test_frequencies_that_are_not_finite_numbers_raise(xi):
    with pytest.raises(fd.MeasureError):
        fd.ft(LEB, xi)


# every scalar entry point reads its frequency (and phase_unit its position)
# the way ft does, and its other numbers through the same checks
SCALAR_ENTRY_POINTS = {
    "phase_unit-xi": lambda v: fd.phase_unit(v, 0.5),
    "phase_unit-x": lambda v: fd.phase_unit(3, v),
    "oscillatory_integral-alpha": lambda v: fd.oscillatory_integral(v, 2),
    "oscillatory_integral-beta": lambda v: fd.oscillatory_integral(1.5, v),
    "ft_quadrature": lambda v: fd.ft_quadrature(LEB, v),
    "translation_pair_transform-t": lambda v: fd.translation_pair_transform(LEB, v, 0.25),
    "ft_quadrature-tol": lambda v: fd.ft_quadrature(LEB, 0.5, v),
    "ft_quadrature-max_panels": lambda v: fd.ft_quadrature(LEB, 0.5, 1e-9, v),
    "wiener_average-T": lambda v: fd.wiener_average(LEB, v),
    "energy_spatial-s": lambda v: fd.energy_spatial(LEB, v),
    "energy_spatial-resolution": lambda v: fd.energy_spatial(LEB, 0.5, v),
    "energy_fourier-s": lambda v: fd.energy_fourier(LEB, v),
    "energy_fourier-cutoff": lambda v: fd.energy_fourier(LEB, 0.5, v),
}


@pytest.mark.parametrize("value", NOT_FINITE_NUMBERS,
                         ids=("str", "bool", "np-bool", "bytes", "nan", "-inf", "list"))
@pytest.mark.parametrize("entry", sorted(SCALAR_ENTRY_POINTS))
def test_scalar_entry_points_refuse_what_is_not_a_finite_number(entry, value):
    with pytest.raises(fd.MeasureError):
        SCALAR_ENTRY_POINTS[entry](value)


# integer arguments refuse floats and bools: 4096.5 cells raised a bare
# TypeError, and a budget of 1024.0 panels ran
@pytest.mark.parametrize("value", [4096.5, 1024.0, True])
@pytest.mark.parametrize("entry", ["ft_quadrature-max_panels", "energy_spatial-resolution"])
def test_integer_arguments_refuse_floats_and_bools(entry, value):
    with pytest.raises(fd.MeasureError):
        SCALAR_ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("entry,value", [("wiener_average-T", 0.0), ("wiener_average-T", -1.0)])
def test_scalar_entry_points_refuse_values_out_of_range(entry, value):
    with pytest.raises(fd.MeasureError):
        SCALAR_ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("xis", [["0.5", "1"], np.array([True, False]),
                                 np.array([0.5, True], dtype=object), [0.5, True],
                                 [[0.5], [np.bool_(False)]], np.array([0.5, np.inf])],
                         ids=("strings", "bools", "object-bool", "list-bool", "nested-bool",
                              "inf"))
def test_grid_refuses_frequencies_that_are_not_numbers(xis):
    with pytest.raises(fd.MeasureError):
        fd.ft_grid(LEB, xis)


def test_affine_mod1_wraps_to_integer_dilation():
    m = fd.DigitProduct(6, (fd.DigitBlock(0, 2, "00"),))
    dil = fd.AffineImage(m, 4, 0.0, True)
    # at integer xi the wrapped image transform equals ft(m, 4 xi)
    for j in (1, 2, 3, 10):
        assert fd.ft(dil, j) == fd.ft(m, 4 * j)
    with pytest.raises(fd.MeasureError):
        fd.ft(dil, 0.5)  # non-integer frequency has no closed form
    with pytest.raises(fd.MeasureError):
        fd.ft_grid(dil, np.array([0.5]))
    # atoms wrap mod 1; an offset, or an inner measure that is not a digit
    # product, leaves the whole unit interval as the support
    atoms = fd.AffineImage(fd.Atomic(((0.75, 1.0), (0.25, 0.5))), 2, 0.0, True)
    assert fd.atom_weights(atoms) == {0.5: 1.5}
    shifted = fd.DigitProduct(6, (fd.DigitBlock(2, 2, "00"),))
    assert fd.support_interval(fd.AffineImage(shifted, 4, 0.0, True)) == (0.25, 1.0)
    assert fd.support_interval(fd.AffineImage(shifted, 4, 0.25, True)) == (0.0, 1.0)
    assert fd.support_interval(fd.AffineImage(LEB, 4, 0.0, True)) == (0.0, 1.0)


def test_convolution_multiplies_transforms():
    tri = fd.Convolution((LEB, LEB))
    for xi in (0.5, 1, 2.25, 17):
        assert fd.ft(tri, xi) == fd.ft(LEB, xi) ** 2


def test_transform_bounded_by_mass():
    cases = [LEB, fd.Atomic(((0.2, 0.4), (0.9, 1.1))),
             fd.TrigDensity(((0.5, 2), (0.5, 9))), DIGIT_CASES[3]]
    rng = np.random.default_rng(0)
    for m in cases:
        tot = fd.mass(m)
        for xi in rng.uniform(-300, 300, 50):
            assert abs(fd.ft(m, float(xi))) <= tot + 1e-12


def test_ft_grid_matches_scalar_across_variants():
    xs = np.array([0.25, 1.0, 3.5, 100.0, 12345.678])
    for m in (LEB, fd.Atomic(((0.3, 1.0),)), fd.TrigDensity(((0.5, 7),)),
              fd.Mixture((LEB, LEB), (0.5, 0.5)),
              fd.AffineImage(LEB, 2.0, 0.1, False)):
        grid = fd.ft_grid(m, xs)
        scalar = np.array([fd.ft(m, float(x)) for x in xs])
        assert np.max(np.abs(grid - scalar)) < 1e-12, m.variant


@pytest.mark.parametrize("m", [
    LEB, fd.cantor_measure(), fd.SelfSimilarDigit(5, (1, 3)), DIGIT_CASES[2],
    fd.TrigDensity(((0.5, 7), (0.25, 2 ** 70))), fd.Atomic(((0.3, 1.0), (0.71, 0.5))),
    fd.smooth_cut(LEB, (0.45, 0.3, 3)), fd.Mixture((fd.cantor_measure(), LEB), (0.5, 0.5)),
    fd.AffineImage(fd.cantor_measure(), 2.0 ** 50, 0.3),
], ids=lambda m: m.variant)
def test_grid_values_do_not_depend_on_the_batch(m):
    # self-similar depths and the guard fallback are chosen per point and
    # Gauss-Legendre node counts per piece, so each value equals that of a
    # one-point grid
    xs = np.concatenate([np.linspace(-40.0, 40.0, 41), 2.0 ** np.linspace(-20.0, 40.0, 25),
                         [2.0 ** 11 + 0.5, 3.0 ** 30 + 0.25]])
    grid = fd.ft_grid(m, xs)
    for x, v in zip(xs, grid):
        assert v.tobytes() == fd.ft_grid(m, [x])[0].tobytes(), x


def test_long_grids_are_evaluated_in_chunks_with_the_same_values():
    from fourierdim.transform import GRID_CHUNK

    xs = np.linspace(0.5, 900.0, 3 * (GRID_CHUNK // 2 + 1))
    for m in (LEB, fd.cantor_measure()):
        whole = fd.ft_grid(m, xs.reshape(3, -1))
        assert whole.shape == (3, xs.size // 3)
        parts = np.concatenate([fd.ft_grid(m, xs[i:i + 100]) for i in range(0, xs.size, 100)])
        assert np.array_equal(whole.ravel(), parts)
    # an empty array keeps its shape, as every other array does
    assert fd.ft_grid(LEB, []).dtype == complex
    assert fd.ft_grid(LEB, []).shape == (0,)
    assert fd.ft_grid(LEB, np.zeros((0, 3))).shape == (0, 3)


def test_ft_batch_order_and_methods():
    # non-integer floats within the guard take the grid, everything else ft
    sched = fd.ExplicitFrequencies((1.0, 4.0, 2.5, -0.75, 2 ** 70, 3, 2.0 ** 41 + 0.5))
    samples = fd.ft_batch(LEB, sched)
    assert [s.xi for s in samples] == [-0.75, 1.0, 2.5, 3, 4.0, 2.0 ** 41 + 0.5, 2 ** 70]
    assert [s.method for s in samples] == ["grid", "exact", "grid", "exact", "exact",
                                           "grid", "exact"]
    for s in samples:
        assert s.value == (fd.ft_grid(LEB, [s.xi])[0] if s.method == "grid"
                           else fd.ft(LEB, s.xi))
    # an image under x -> 2^30 x has guard 2^30: past it a float takes ft
    image = fd.AffineImage(LEB, 2.0 ** 30)
    assert [s.method for s in fd.ft_batch(image, sched)][-3:] == ["exact", "exact", "exact"]
    # the route depends on the frequency and the guard, not on the variant
    cut = fd.smooth_cut(fd.DigitProduct(6, (fd.DigitBlock(1, 2, "01"),)), (0.5, 0.3, 2))
    for m in (DIGIT_CASES[1], cut):
        assert [s.method for s in fd.ft_batch(m, sched)] == [s.method for s in samples]


# Positions so far from 0 that xi times one of them overflows at xi near 5:
# each measure's guard is at most 2^1000 over its farthest position, so
# these points take ft, on ft_grid and on the batch route alike.
HUGE_POSITIONS = [
    fd.Atomic(((-7.5e307, 1.0),)),
    fd.UniformOnIntervals(((-8e307, -7e307),)),
    fd.AffineImage(LEB, 1.0, 7.5e307),
    fd.Mixture((LEB, fd.Atomic(((7.5e307, 1.0),))), (0.5, 0.5)),
    # supports that cancel in the sum: each factor keeps its own guard
    fd.Convolution((fd.Atomic(((-7.5e307, 1.0),)), fd.Atomic(((7.5e307, 1.0),)))),
]


def test_grid_takes_ft_where_xi_times_a_position_overflows():
    xs = np.array([5.5, 4.25, -5.5, 0.3])
    for m in HUGE_POSITIONS:
        got = fd.ft_grid(m, xs)
        assert got.tobytes() == np.array([fd.ft(m, x) for x in xs.tolist()]).tobytes(), m
        assert [s.method for s in fd.ft_batch(m, fd.ExplicitFrequencies((5.5, 4.25)))] \
            == ["exact", "exact"]
    # a wrapped image's offset is a position too, though its support is [0, 1]
    wrapped = fd.AffineImage(LEB, 2, 7.5e307, mod1=True)
    ints = np.array([3.0, -2.0])
    assert fd.ft_grid(wrapped, ints).tobytes() == \
        np.array([fd.ft(wrapped, x) for x in ints.tolist()]).tobytes()
    # positions up to 2^995 keep 2^1000 over the farthest; the zero measure
    # keeps the guard of the tested range
    assert fd.Atomic(((2.0 ** 995, 1.0),))._grid_guard()[1] == 2.0 ** 5
    assert fd.Atomic(())._grid_guard()[1] == fd.measures.GRID_GUARD


# One measure per family of the exact-probe benchmark, on the routes that
# ft_batch, decay_exponent and stability_experiment take: every routed value
# must equal ft's within 2^12 u relative.  The largest gaps measured were
# 809 u (base 4, digits 0 and 3, 21 levels at 6.8e4) and 529 u on a mixture
# whose parts nearly cancel; window cuts differ by at most 2 u, since both
# routes sum the same pieces.
ROUTE_BOUND = 2.0 ** 12 * 2.0 ** -53
ROUTE_FREQS = fd.merge_schedules(
    fd.DyadicWindows(-4, 16, 16),
    fd.ExplicitFrequencies(tuple(-2.0 ** (e + 0.3) for e in range(-4, 17)) + (3 ** 9, 2 ** 80)),
).frequencies()
ROUTE_FAMILIES = [
    fd.SelfSimilarDigit(3, (0, 2)), fd.SelfSimilarDigit(5, (1, 3)), fd.SelfSimilarDigit(4, (0, 3)),
    fd.DigitProduct(14, (fd.DigitBlock(1, 2, "01"), fd.DigitBlock(4, 3, "110"))),
    fd.smooth_cut(LEB, (0.4221, 0.4592, 3)),
    fd.smooth_cut(fd.TrigDensity(((0.4, 31),)), (0.45, 0.35, 3)),
    fd.lacunary_trig_measure(1, 8), fd.lacunary_trig_measure(-1, 36),
    fd.TrigDensity(((0.3, 5), (-0.4, 17))),
    fd.UniformOnIntervals(((0.1357, 0.3), (0.5, 0.8125))), fd.UniformOnIntervals(((0.1, 0.7),)),
    fd.Mixture((fd.cantor_measure(), fd.UniformOnIntervals(((0.25, 0.5), (0.6, 0.9)))), (0.3, 0.7)),
    fd.Mixture((fd.cantor_measure(), fd.TrigDensity(((0.3, 5), (0.2, 11)))), (0.6, 0.4)),
]


@pytest.mark.parametrize("m", ROUTE_FAMILIES, ids=lambda m: m.variant)
def test_routed_values_match_the_exact_route(m):
    from fourierdim.transform import _ft_values

    routes = [s.method == "grid" for s in fd.ft_batch(m, fd.ExplicitFrequencies(ROUTE_FREQS))]
    assert sum(routes) == 340  # every non-integer float; ints and 2^e stay exact
    for xi, got, grid in zip(ROUTE_FREQS, _ft_values(m, ROUTE_FREQS), routes):
        want = fd.ft(m, xi)
        if grid:
            assert abs(got - want) <= ROUTE_BOUND * abs(want), xi
        else:
            assert got == want, xi


# oscillatory integrals ------------------------------------------------------


def _simpson_osc(alpha, beta, n=2 ** 16):
    x = np.linspace(0.0, 1.0, n + 1)
    y = np.exp(2j * np.pi * alpha * x) * np.sin(2 * np.pi * beta * x)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return np.sum(w * y) / (3.0 * n)


def test_oscillatory_integral_matched_pair_is_exact():
    for l in range(1, 21):
        assert fd.oscillatory_integral(-l, l) == -0.5j
        assert fd.oscillatory_integral(l, l) == 0.5j


def test_oscillatory_integral_integer_cases():
    assert fd.oscillatory_integral(0, 1) == 0.0j
    assert fd.oscillatory_integral(0, 0) == 0.0j  # raised ZeroDivisionError
    assert fd.oscillatory_integral(2, 5) == 0.0j


def test_oscillatory_integral_vs_simpson():
    rng = np.random.default_rng(77)
    for _ in range(100):
        a = float(rng.uniform(-50, 50))
        b = float(rng.uniform(-50, 50))
        assert abs(fd.oscillatory_integral(a, b) - _simpson_osc(a, b)) < 1e-9


@given(st.floats(-80, 80), st.floats(-80, 80))
@settings(max_examples=300, deadline=None)
def test_oscillatory_integral_decay_bound(a, b):
    gap = abs(abs(a) - abs(b))
    if gap < 1e-6:
        return
    assert abs(fd.oscillatory_integral(a, b)) <= 1.0 / gap + 1e-12


# wiener averages ------------------------------------------------------------


def test_wiener_refuses_a_squared_mass_past_the_float_range():
    # the pair terms used to meet as -inf + inf in fsum (ValueError)
    for atoms in (((0.1, 1e308), (0.5, 1.0)), ((0.1, 1e308), (0.5, 1.0), (0.7, 2.0)),
                  ((0.1, 1e308), (0.5, 1e308)), ((0.1, 1e155), (0.5, 1e155))):
        with pytest.raises(fd.MeasureError, match="squared total mass"):
            fd.wiener_average(fd.Atomic(atoms), 10.0)
    big = fd.wiener_average(fd.Atomic(((0.1, 1e150), (0.5, 1e150))), 10.0)
    assert math.isfinite(big) and big > 0.0


def test_wiener_grid_route_refuses_sums_past_the_float_range():
    # |ft|^2 of a mass of 1e160 overflows, and at 1e153 the squares stay
    # finite but their trapezoid sum at T = 1e4 does not: each used to
    # warn and read "inf"
    heavy = fd.Mixture((LEB,), (1e160,))
    with pytest.raises(fd.MeasureError, match="the Wiener average leaves the float range"):
        fd.wiener_average(heavy, 10.0)
    atom_heavy = fd.Mixture((fd.Atomic(((0.5, 1.0),)), LEB), (1e153, 1.0))
    with pytest.raises(fd.MeasureError, match="the Wiener average leaves the float range"):
        fd.wiener_average(atom_heavy, 1e4)
    assert fd.wiener_average(atom_heavy, 10.0) == pytest.approx(1e306, rel=1e-9)


def test_wiener_single_atom_is_exactly_one():
    m = fd.Atomic(((0.3, 1.0),))
    assert fd.wiener_average(m, 1.0e4) == 1.0


def test_wiener_normaliser_is_the_trapezoid_of_one_bit_for_bit():
    # a measure with a continuous part takes the trapezoid rule, divided by
    # the sum of its steps: the trapezoid rule of 1 on the same nodes, bit
    # for bit (step 0.01 up to diameter 10, and 1/300 at diameter 30)
    mixed = fd.Mixture((fd.Atomic(((0.0, 0.5), (0.3, 0.5))), LEB), (0.5, 0.5))
    wide = fd.UniformOnIntervals(((0.0, 30.0),))
    for m, step, horizons in ((mixed, 0.01, (1.0, 1500.0, 1.0e4)),
                              (wide, 1.0 / 300.0, (1.0, 37.5, 1500.0))):
        for T in horizons:
            xs = np.linspace(0.0, T, max(2, math.ceil(T / step)) + 1)
            ones = np.trapezoid(np.ones_like(xs), xs)
            assert np.diff(xs).sum().tobytes() == ones.tobytes()
            y = np.abs(fd.ft_grid(m, xs)) ** 2
            assert fd.wiener_average(m, T) == float(np.trapezoid(y, xs) / ones)


U = 2.0 ** -53
WIENER_HORIZONS = (1.0, 37.5, 1500.0, 1.0e4)


def _wiener_oracle(atoms: dict, T) -> float:
    """sum_j w_j^2 + 2 sum_{j<k} w_j w_k sin(2 pi g)/(2 pi g), g = T (x_k - x_j),
    at 50 digits: g is exact, and its sine is taken after reducing g mod 1."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        items = [(Fraction(x), mpmath.mpf(w)) for x, w in atoms.items()]
        total = mpmath.fsum(w * w for _, w in items)
        for (xj, wj), (xk, wk) in itertools.combinations(items, 2):
            g = Fraction(T) * (xk - xj)
            r = g - round(g)
            two_pi = 2 * mpmath.pi
            sine = mpmath.sin(two_pi * r.numerator / r.denominator)
            total += 2 * wj * wk * sine / (two_pi * g.numerator / g.denominator)
        return float(total)


WIENER_POSITIONS = st.one_of(st.integers(-64, 64).map(lambda k: k / 32),
                             st.floats(-4.0, 4.0, allow_nan=False))
WIENER_ATOMS = st.lists(st.tuples(WIENER_POSITIONS, st.floats(0.01, 1.0)),
                        min_size=2, max_size=6, unique_by=lambda a: a[0])


@given(WIENER_ATOMS, st.sampled_from(WIENER_HORIZONS))
@example([(0.0, 0.5), (0.5, 0.5)], 1500.0)  # T d = 750: exactly the sum of squares
@example([(0.0, 0.25), (1.0, 0.75)], 37.5)  # T d = 37.5: sin(2 pi g) = 0
@example([(0.5, 0.5), (0.5 + 2.0 ** -40, 0.5)], 1.0e4)  # d = 2^-40
@settings(max_examples=300, deadline=None)
def test_wiener_closed_form_against_the_oracle(atoms, T):
    # within 4 u of a 50-digit value; the trapezoid was up to 7.7e-5 off
    m = fd.Atomic(tuple(atoms))
    want = _wiener_oracle(fd.atom_weights(m), T)
    assert abs(fd.wiener_average(m, T) - want) <= 4 * U * want


def test_wiener_closed_form_past_2_to_the_60():
    # WIENER_MAX_POINTS keeps T diam below 10^6 at wiener_average, so the
    # closed form itself is checked where T d passes 2^60
    for atoms, T in (({0.0: 0.5, 0.75: 0.5}, 3.0 * 2.0 ** 61),  # T d = 9 * 2^59
                     ({0.0: 0.5, 0.1: 0.5}, 1.0e20 / 3.0),
                     ({-1.0e30: 0.25, 0.1: 0.5, 3.3e40: 0.25}, 1.0e4 / 3.0)):
        want = _wiener_oracle(atoms, T)
        assert abs(tr._atomic_wiener(atoms, T) - want) <= 4 * U * want


def test_wiener_integer_separation_is_exactly_the_sum_of_squares():
    # T (x_k - x_j) = 1000, 250 and 750: every cross term is exactly 0
    m = fd.Atomic(((0.0, 0.5), (0.25, 0.25), (1.0, 0.25)))
    assert fd.wiener_average(m, 1000.0) == 0.5 ** 2 + 0.25 ** 2 + 0.25 ** 2


def test_wiener_closed_form_agrees_with_the_trapezoid():
    # the grid route on the same nodes, which the closed form replaced for
    # atomic measures, is within 1e-4 relative of it
    rng = random.Random(23)
    for case in range(24):
        atoms = tuple((rng.uniform(-2.0, 2.0), rng.uniform(0.05, 1.0))
                      for _ in range(rng.randint(2, 5)))
        m = fd.Atomic(atoms)
        T = WIENER_HORIZONS[case % 3] if case else 1.0e4
        lo, hi = fd.support_interval(m)
        step = min(0.01, 1.0 / (10.0 * (hi - lo)))
        xs = np.linspace(0.0, T, max(2, math.ceil(T / step)) + 1)
        y = np.abs(fd.ft_grid(m, xs)) ** 2
        grid = float(np.trapezoid(y, xs) / np.diff(xs).sum())
        got = fd.wiener_average(m, T)
        assert abs(got - grid) <= 1e-4 * got, (atoms, T)


def test_wiener_routes(monkeypatch):
    grid_calls = []
    real_grid = tr.ft_grid
    monkeypatch.setattr(tr, "ft_grid", lambda m, xs: grid_calls.append(m) or real_grid(m, xs))
    # two atomic components sharing the position 0.5: the closed form
    shared = fd.Mixture((fd.Atomic(((0.0, 0.5), (0.5, 0.5))),
                         fd.Atomic(((0.5, 0.5), (0.75, 0.5)))), (0.5, 0.5))
    assert fd.atom_weights(shared) == {0.0: 0.25, 0.5: 0.5, 0.75: 0.25}
    assert fd.wiener_average(shared, 37.5) == tr._atomic_wiener(fd.atom_weights(shared), 37.5)
    # and an unwrapped affine image of atoms
    fd.wiener_average(fd.AffineImage(fd.Atomic(((0.0, 0.5), (0.5, 0.5))), 3.0, 0.25), 37.5)
    assert grid_calls == []
    # a convolution has no explicit density: the grid, as before
    conv = fd.Convolution((HALVES, HALVES))
    fd.wiener_average(conv, 37.5)
    assert grid_calls == [conv]


def test_wiener_two_atoms():
    m = fd.Atomic(((0.25, 0.5), (0.75, 0.5)))
    assert abs(fd.wiener_average(m, 1.0e4) - 0.5) < 0.02


def test_wiener_continuous_vanishes():
    assert fd.wiener_average(LEB, 1.0e4) < 1e-3


def test_wiener_mixture_limit_is_atomic_part():
    m = fd.Mixture((LEB, fd.Atomic(((0.5, 1.0),))), (0.5, 0.5))
    # atomic part has weight 1/2: limit is (1/2)^2
    assert abs(fd.wiener_average(m, 1.0e4) - 0.25) < 0.02


def test_split_overflow_raises_no_numpy_warning():
    # a window piece's scalar rule splits a product past 2^995; the
    # overflow there is expected and handled, and must not leak a warning
    cut = fd.smooth_cut(LEB, (0.37, 0.3, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = fd.ft(cut, 1.5e300)
    assert cmath.isfinite(value)


# convolutions -----------------------------------------------------------

HALVES = fd.Atomic(((0.0, 0.5), (0.5, 0.5)))


def test_convolution_grid_matches_ft_across_its_guard():
    # the dilated factor's guard, 2^60 / 2^50, is the convolution's: points
    # past 2^10 take ft itself, the others the product of the factor grids
    m = fd.Convolution((LEB, fd.AffineImage(fd.cantor_measure(), 2 ** 50)))
    assert m._grid_guard()[1] == 2.0 ** 10
    xs = np.array([0.3, -7.25, 100.7, 1000.5, 2000.5, -3e5 - 0.25])
    got = fd.ft_grid(m, xs)
    want = np.array([fd.ft(m, x) for x in xs])
    far = np.abs(xs) > 2.0 ** 10
    assert np.array_equal(got[far], want[far])
    assert np.allclose(got[~far], want[~far], rtol=1e-12, atol=0.0)


def test_convolution_atoms_add_positions_and_multiply_weights():
    assert fd.atom_weights(fd.Convolution((HALVES, HALVES))) == {0.0: 0.25, 0.5: 0.5, 1.0: 0.25}


def test_convolution_keeps_only_the_atomic_parts():
    # an atom convolved with a continuous part spreads out
    atom_and_leb = fd.Mixture((fd.Atomic(((0.5, 1.0),)), LEB), (0.5, 0.5))
    assert fd.atom_weights(fd.Convolution((HALVES, atom_and_leb))) == {0.5: 0.25, 1.0: 0.25}
    assert fd.atom_weights(fd.Convolution((HALVES, LEB))) == {}


def test_wiener_convolution_limit_is_its_squared_atoms():
    m = fd.Convolution((HALVES, HALVES))
    assert abs(fd.wiener_average(m, 1.0e3) - (0.25 ** 2 + 0.5 ** 2 + 0.25 ** 2)) < 0.01


def test_atom_weights_collects_through_algebra():
    m = fd.Mixture((LEB, fd.Atomic(((0.5, 0.8), (0.2, 0.2)))), (0.5, 0.5))
    w = fd.atom_weights(m)
    assert w == {0.5: 0.4, 0.2: 0.1}
    assert fd.atom_weights(LEB) == {}


def test_phase_unit_rational_reduction():
    # the angle is reduced mod 1 exactly, so whole turns give exactly 1
    assert fd.phase_unit(2, 0.5) == 1.0 + 0.0j
    assert fd.phase_unit(2 ** 100, 0.5) == 1.0 + 0.0j
    assert abs(fd.phase_unit(1, 0.5) + 1.0) < 1e-15
    # without reduction the phase at xi = 2^60 + 1/2 would be garbage
    assert abs(fd.phase_unit(2 ** 60, 0.5) - 1.0) == 0.0


def test_phase_vec_reduces_the_exact_product():
    # the reference reduces xs * x mod 1 in exact rational arithmetic; a
    # reduction of the rounded product misses by up to |xs x| 2^-53 turns
    from fourierdim.phase import _phase_vec

    rng = np.random.default_rng(1406)
    xs = np.concatenate([rng.uniform(-1.0, 1.0, 2000) * 2.0 ** rng.uniform(-40, 60, 2000),
                         [0.0, -0.0, 1.0, -1.0, -2.0, 2.0 ** 53, -(2.0 ** 60), -1e-20]])
    for x in (0.3, -0.7, 1.0, 2.0 ** -12, 0.1, 1e-3 / 3):
        got = _phase_vec(xs, x)
        for xi, z in zip(xs.tolist(), got.tolist()):
            turns = float((Fraction(xi) * Fraction(x) + Fraction(1, 2)) % 1 - Fraction(1, 2))
            assert abs(z - cmath.exp(-2j * math.pi * turns)) <= 2.0 ** -50, (xi, x)
    # exact products that are whole or quarter turns give exact units
    assert np.array_equal(_phase_vec(np.array([2.0, -6.0, 2.0 ** 60]), 0.5), np.ones(3))
    assert _phase_vec(np.array([0.5, 1.5, -0.5]), 0.5).tolist() == [-1j, 1j, 1j]


def _quarter_turn_by_polynomial(k):
    # cos(k pi/2) and sin(k pi/2) formed from k = -2 .. 2 by polynomials, the
    # reference for the table lookup (signed zeros included)
    kk = k * k
    return 1.0 - kk + kk * (kk - 1.0) / 6.0, k * (4.0 - kk) / 3.0


def _cos_sin_turns_by_polynomial(hi, lo=0.0):
    from fourierdim.phase import _frac

    r = _frac(hi)
    k = np.rint(4.0 * (r + lo))
    r -= 0.25 * k
    r += lo
    r *= 2.0 * math.pi
    k -= 4.0 * np.rint(0.25 * k)
    c = np.cos(r)
    s = np.sin(r)
    cq, sq = _quarter_turn_by_polynomial(k)
    return cq * c - sq * s, cq * s + sq * c


def _unit_by_polynomial(hi, lo=0.0):
    c, s = _cos_sin_turns_by_polynomial(hi, lo)
    out = np.empty(np.shape(c), dtype=complex)
    out.real = c
    out.imag = s
    return out


def test_quarter_turn_table_matches_the_polynomial_rotation_bit_for_bit():
    from fourierdim.phase import _QUARTER_TURNS, _unit_turns

    # the table at k & 7 is the polynomial's quarter turn at k - 4 rint(k/4)
    # for every k, signed zeros included (-0.0 sine where k = 6 mod 8)
    for k in range(-8, 9):
        cq, sq = _quarter_turn_by_polynomial(k - 4.0 * np.rint(k / 4.0))
        got = _QUARTER_TURNS[k & 7]
        assert np.float64(got.real).tobytes() == np.float64(cq).tobytes(), k
        assert np.float64(got.imag).tobytes() == np.float64(sq).tobytes(), k

    rng = np.random.default_rng(1480)
    n = 8192
    edges = [0.0, -0.0, 0.125, 0.25, 0.375, 0.5, 5e-324, 2.2e-308]
    his = [rng.uniform(-1e6, 1e6, n),
           np.rint(rng.uniform(-8e6, 8e6, n)) / 8.0,
           np.rint(rng.uniform(-4e6, 4e6, n)) / 4.0,
           np.array(edges + [-e for e in edges])]
    for hi in his:
        # lo past a turn: the self-similar rule's double-double positions
        # pass about -3.5 turns at xi near 1e17
        los = [0.0, rng.uniform(-3.0, 3.0, hi.size), rng.uniform(-1e-9, 1e-9, hi.size),
               rng.uniform(-40.0, 40.0, hi.size), np.rint(rng.uniform(-160.0, 160.0, hi.size)) / 4.0]
        for lo in los:
            assert _unit_turns(hi, lo).tobytes() == _unit_by_polynomial(hi, lo).tobytes()
    # a scalar turn gives the same bits as the polynomial rule too
    for hi in edges + [-e for e in edges] + [0.75, -0.75, 1e6 + 0.25]:
        got = _unit_turns(hi)
        assert np.ndim(got) == 0
        assert np.asarray(got).tobytes() == _unit_by_polynomial(hi).tobytes(), hi

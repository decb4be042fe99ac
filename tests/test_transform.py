"""Closed-form transform engine against independent oracles.

Oracle strategy: digit products are checked against brute-force enumeration
of admissible strings; the self-similar digit measure against an empirical
sample of the attractor; everything else against frozen analytic values and
algebraic identities that the implementation does not use internally.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fourierdim as fd

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


def test_affine_mod1_wraps_to_integer_dilation():
    m = fd.DigitProduct(6, (fd.DigitBlock(0, 2, "00"),))
    dil = fd.AffineImage(m, 4, 0.0, True)
    # at integer xi the wrapped image transform equals ft(m, 4 xi)
    for j in (1, 2, 3, 10):
        assert fd.ft(dil, j) == fd.ft(m, 4 * j)
    with pytest.raises(fd.MeasureError):
        fd.ft(dil, 0.5)  # non-integer frequency has no closed form


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


def test_ft_batch_order_and_methods():
    sched = fd.ExplicitFrequencies((1.0, 4.0, 2.0))
    samples = fd.ft_batch(LEB, sched)
    assert [s.xi for s in samples] == [1.0, 2.0, 4.0]
    assert all(s.method == "closed_form" for s in samples)
    digit_samples = fd.ft_batch(DIGIT_CASES[1], sched)
    assert all(s.method == "factorized" for s in digit_samples)


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


def test_wiener_single_atom_is_exactly_one():
    m = fd.Atomic(((0.3, 1.0),))
    assert fd.wiener_average(m, 1.0e4) == 1.0


def test_wiener_two_atoms():
    m = fd.Atomic(((0.25, 0.5), (0.75, 0.5)))
    assert abs(fd.wiener_average(m, 1.0e4) - 0.5) < 0.02


def test_wiener_continuous_vanishes():
    assert fd.wiener_average(LEB, 1.0e4) < 1e-3


def test_wiener_mixture_limit_is_atomic_part():
    m = fd.Mixture((LEB, fd.Atomic(((0.5, 1.0),))), (0.5, 0.5))
    # atomic part has weight 1/2: limit is (1/2)^2
    assert abs(fd.wiener_average(m, 1.0e4) - 0.25) < 0.02


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

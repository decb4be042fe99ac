"""Piecewise polynomial-times-exponential density algebra."""

import math

import numpy as np
import pytest

import fourierdim as fd
from fourierdim.density import (
    DensityPiece,
    cut_mass,
    decompose_density,
    evaluate_density,
    piece_transform,
    poly_exp_integral,
    window_poly,
    window_value,
)


def _simpson(y, x):
    n = len(x) - 1
    assert n % 2 == 0
    h = (x[-1] - x[0]) / n
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return np.sum(w * y) * h / 3.0


def test_poly_exp_integral_against_simpson():
    poly = (1.0, -0.5, 0.25, 0.0, 0.125)
    t = np.linspace(-0.75, 1.25, 400001)
    vals_poly = sum(c * t ** r for r, c in enumerate(poly))
    for g in (0.0, 0.3, -2.0, 7.5, -40.0, 123.0):
        want = _simpson(vals_poly * np.exp(2j * np.pi * g * t), t)
        got = poly_exp_integral(poly, g, -0.75, 1.25)
        assert abs(got - want) < 5e-11, g


def test_poly_exp_integral_symmetric_interval():
    # even polynomial on [-a, a]: the odd moments vanish exactly, which a
    # term-by-term series would have to step over; the Gauss-Legendre branch
    # sums nodes and sees no moments
    poly = (1.0, 0.0, -0.08, 0.0, 0.0016)
    t = np.linspace(-0.5, 0.5, 400001)
    vals = (1.0 - 0.08 * t ** 2 + 0.0016 * t ** 4)
    for g in (-3.25, 1.0, 4.9):
        want = _simpson(vals * np.exp(2j * np.pi * g * t), t)
        got = poly_exp_integral(poly, g, -0.5, 0.5)
        assert abs(got - want) < 5e-11


def test_poly_exp_integral_vectorised():
    poly = (1.0, 2.0)
    gs = np.array([0.0, 0.5, -3.0, 50.0])
    out = poly_exp_integral(poly, gs, 0.0, 1.0)
    assert out.shape == gs.shape
    for g, v in zip(gs, out):
        assert abs(v - poly_exp_integral(poly, float(g), 0.0, 1.0)) < 1e-14


@pytest.mark.parametrize("a,b,poly,message", [
    (0.5, 0.5, (1.0,), "is empty"), (0.6, 0.5, (1.0,), "is empty"),
    (0.0, 1.0, (), "polynomial is empty")])
def test_piece_refuses_an_empty_interval_or_polynomial(a, b, poly, message):
    with pytest.raises(fd.MeasureError, match=message):
        DensityPiece(a, b, 0.5 * (a + b), poly, 1.0 + 0.0j, 0.0)


def test_piece_evaluate_and_map_affine():
    p = DensityPiece(0.0, 1.0, 0.5, (1.0, 0.0, -1.0), 2.0, 3.0)
    x = np.linspace(0.0, 1.0, 11)
    direct = 2.0 * (1.0 - (x - 0.5) ** 2) * np.exp(2j * np.pi * 3.0 * (x - 0.5))
    assert np.allclose(p.evaluate(x), direct, atol=1e-14)

    q = p.map_affine(2.0, 0.5)  # x -> 2x + 0.5 pushforward
    y = 2.0 * x + 0.5
    assert np.allclose(q.evaluate(y), p.evaluate(x) / 2.0, atol=1e-14)


def _evaluate_whole_array(piece, x):
    # the whole-array reference: the phase at every point and at every
    # frequency, then zero outside [a, b]
    from fourierdim.phase import _phase_vec

    x = np.asarray(x, dtype=float)
    t = x - piece.center
    p = np.zeros_like(t)
    for c in reversed(piece.poly):
        p = p * t + c
    out = piece.amplitude * p * _phase_vec(t, -piece.frequency)
    return np.where((x >= piece.a) & (x <= piece.b), out, 0.0)


def test_piece_evaluate_matches_the_whole_array_rule_bit_for_bit():
    rng = np.random.default_rng(1406)
    amplitudes = (2.0 + 0.0j, 0.5 - 1.5j, -0.25j, 1j / 3.0, -1.0 + 0.0j, -0.5 + 0.0j)
    polys = ((1.0,), (1.0, 0.0, -1.0), (0.5, -2.0, 0.0, 3.0), window_poly(0.3, 3))
    pieces = [DensityPiece(-0.3, 0.45, 0.075, poly, amp, f)
              for poly in polys for amp in amplitudes for f in (0.0, 3.0, -7.0, 0.3)]
    # points inside and outside, on a and b, and on the polynomials' roots
    x = np.concatenate([rng.uniform(-1.0, 1.0, 500),
                        [-0.3, 0.45, -0.3 - 2 ** -54, 0.45 + 2 ** -53, 0.075,
                         -0.925, 1.075, 0.375, -0.225, -1.0, 1.0, 0.0, -0.0]])
    for piece in pieces:
        got = piece.evaluate(x)
        want = _evaluate_whole_array(piece, x)
        if piece.frequency:
            assert got.tobytes() == want.tobytes(), piece
        else:
            # the rule above multiplies by the unit phase 1 + 0j there, which
            # can turn the sign of a zero part; every other bit is the same
            assert (got + 0.0).tobytes() == (want + 0.0).tobytes(), piece
    # evaluate_density sums the pieces from +0.0, so no sign of a zero shows
    want = np.zeros(x.shape, dtype=complex)
    for piece in pieces:
        want += _evaluate_whole_array(piece, x)
    assert evaluate_density(pieces, x).tobytes() == want.real.tobytes()


def test_piece_multiply_matches_pointwise():
    p = DensityPiece(0.0, 1.0, 0.0, (1.0, 1.0), 1.0, 2.0)
    q = DensityPiece(0.25, 1.5, 1.0, (0.5, 0.0, 1.0), 3.0, -1.0)
    r = p.multiply(q)
    x = np.linspace(0.25, 1.0, 101)
    assert np.allclose(r.evaluate(x), p.evaluate(x) * q.evaluate(x), atol=1e-12)


def test_piece_multiply_disjoint_returns_none():
    p = DensityPiece(0.0, 0.5, 0.0, (1.0,), 1.0, 0.0)
    q = DensityPiece(0.6, 1.0, 0.0, (1.0,), 1.0, 0.0)
    assert p.multiply(q) is None


@pytest.mark.parametrize("amplitude,poly", [
    (math.inf, (1.0,)), (complex(1.0, math.nan), (1.0,)), (1.0, (1.0, -math.inf)),
    (1.0, (math.nan,)),
])
def test_piece_refuses_values_past_the_float_range(amplitude, poly):
    with pytest.raises(fd.MeasureError, match="float range"):
        DensityPiece(0.0, 1.0, 0.5, poly, amplitude, 0.0)


def test_tiny_affine_image_has_no_pieces():
    # the density 1 / 1e-315 overflows: its piece is refused, not inf
    leb = fd.UniformOnIntervals(((0.0, 1.0),))
    with pytest.raises(fd.MeasureError, match="float range"):
        decompose_density(fd.AffineImage(leb, 1e-315))
    assert decompose_density(fd.AffineImage(leb, 1e-300))[0].amplitude == 1.0 / 1e-300


@pytest.mark.parametrize("radius,order", [(1e200, 2), (0.3, 400), (0.4, 400)])
def test_window_poly_past_float_range_raises(radius, order):
    # 1e200 ** 4 overflows, 0.3 ** 800 underflows to 0, and 0.4 ** 800 is
    # subnormal, so C(400, 200) / 0.4 ** 800 is inf
    with pytest.raises(fd.MeasureError):
        window_poly(radius, order)


def test_window_poly_peaks_at_one():
    coeffs = window_poly(0.8, 3)
    val = sum(c * 0.0 ** r for r, c in enumerate(coeffs))
    assert val == 1.0
    assert window_value(0.5, 0.8, 3, 0.5) == 1.0
    assert window_value(0.5, 0.8, 3, 1.3) == 0.0
    # matches the closed form everywhere inside
    for x in (0.1, 0.5, 0.9, 1.2):
        t = x - 0.5
        want = max(0.0, 1.0 - (t / 0.8) ** 2) ** 3
        assert window_value(0.5, 0.8, 3, x) == pytest.approx(want, abs=1e-15)


def test_decompose_uniform_normalises():
    m = fd.UniformOnIntervals(((0.0, 0.25), (0.5, 1.0)))
    pieces = decompose_density(m)
    total = sum(piece_transform(p, 0.0) for p in pieces)
    assert abs(total - 1.0) < 1e-14


def test_decompose_digit_product_density():
    m = fd.DigitProduct(5, (fd.DigitBlock(1, 2, "10"),))
    pieces = decompose_density(m)
    xs = np.linspace(0.001, 0.999, 997)
    dens = evaluate_density(pieces, xs)
    # density is 0 or the normalised cylinder height
    height = 16.0 / 12.0
    assert set(np.round(np.unique(dens), 10)) <= {0.0, round(height, 10)}
    total = sum(piece_transform(p, 0.0) for p in pieces)
    assert abs(total - 1.0) < 1e-14


def test_decompose_digit_product_enumeration_cap():
    blocks = (fd.DigitBlock(0, 1, "0"),)
    big = fd.DigitProduct(40, blocks)
    with pytest.raises(fd.MeasureError):
        decompose_density(big)


def test_decompose_rejects_atoms():
    with pytest.raises(fd.MeasureError):
        decompose_density(fd.Atomic(((0.5, 1.0),)))


ATOMS_AND_LEB = fd.Mixture((fd.Atomic(((0.2, 1.0), (0.7, 0.5))),
                            fd.UniformOnIntervals(((0.0, 1.0),))), (0.4, 0.6))


@pytest.mark.parametrize("m", [ATOMS_AND_LEB, fd.AffineImage(fd.Atomic(((0.25, 1.0),)), 2.0)],
                         ids=["mixture", "affine"])
def test_decompose_rejects_atoms_inside_mixtures_and_images(m):
    with pytest.raises(fd.MeasureError):
        decompose_density(m)


def test_windows_over_atoms_without_a_density_raise_and_are_not_disjoint():
    # the atoms must not be dropped and the window reported as missing them
    cases = (lambda: fd.smooth_cut(fd.AffineImage(fd.Atomic(((0.25, 1.0),)), 2.0),
                                   (0.5, 0.4, 2)),
             lambda: fd.mass(fd.SmoothCutDensity(ATOMS_AND_LEB, 0.5, 0.4, 2)))
    for case in cases:
        with pytest.raises(fd.MeasureError) as exc:
            case()
        assert "disjoint" not in str(exc.value)
        assert "does not meet" not in str(exc.value)


def test_decompose_trig_rejects_huge_frequency():
    m = fd.TrigDensity(((0.5, 2 ** 60),))
    with pytest.raises(fd.MeasureError):
        decompose_density(m)


def test_smooth_cut_density_pieces_match_product():
    leb = fd.UniformOnIntervals(((0.0, 1.0),))
    cut = fd.SmoothCutDensity(leb, 0.3, 0.5, 3)
    pieces = decompose_density(cut)
    xs = np.linspace(0.0, 0.79, 101)
    got = evaluate_density(pieces, xs)
    want = np.array([window_value(0.3, 0.5, 3, x) for x in xs])
    assert np.allclose(got, want, atol=1e-12)
    assert cut_mass(cut) == pytest.approx(float(np.trapezoid(
        [window_value(0.3, 0.5, 3, x) for x in np.linspace(0, 0.8, 200001)],
        np.linspace(0, 0.8, 200001))), abs=1e-8)


def test_smooth_cut_disjoint_window_raises():
    leb = fd.UniformOnIntervals(((0.0, 1.0),))
    with pytest.raises(fd.MeasureError):
        decompose_density(fd.SmoothCutDensity(leb, 5.0, 0.5, 2))

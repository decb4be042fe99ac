"""Measure variants: validation, mass, support, serialization."""

import math

import pytest

import fourierdim as fd


def test_atomic_mass_and_support():
    m = fd.Atomic(((0.25, 0.5), (0.75, 1.5)))
    assert fd.mass(m) == 2.0
    assert fd.support_interval(m) == (0.25, 0.75)


def test_atomic_rejects_bad_weights():
    with pytest.raises(fd.MeasureError):
        fd.Atomic(((0.5, 0.0),))
    with pytest.raises(fd.MeasureError):
        fd.Atomic(((0.5, -1.0),))


def test_atomic_empty_is_zero_measure():
    z = fd.Atomic(())
    assert fd.mass(z) == 0.0


def test_uniform_mass_is_one():
    m = fd.UniformOnIntervals(((0.0, 0.25), (0.5, 1.0)))
    assert fd.mass(m) == 1.0
    assert fd.support_interval(m) == (0.0, 1.0)
    assert m.total_length == 0.75


def test_uniform_rejects_overlap():
    with pytest.raises(fd.MeasureError):
        fd.UniformOnIntervals(((0.0, 0.6), (0.5, 1.0)))
    with pytest.raises(fd.MeasureError):
        fd.UniformOnIntervals(((0.3, 0.3),))


def test_trig_density_rejects_heavy_coefficients():
    # sum |c| must stay at most 1 so the density stays nonnegative
    with pytest.raises(fd.MeasureError):
        fd.TrigDensity(((0.7, 1), (0.7, 2)))
    fd.TrigDensity(((0.5, 1), (0.5, 2)))  # boundary case is fine


def test_trig_density_frequencies_are_positive_integers():
    with pytest.raises(fd.MeasureError):
        fd.TrigDensity(((0.5, 0),))
    with pytest.raises(fd.MeasureError):
        fd.TrigDensity(((0.5, -3),))
    big = fd.TrigDensity(((0.5, 2 ** 200),))
    assert fd.mass(big) == 1.0


def test_digit_product_cylinder_count():
    m = fd.DigitProduct(4, (fd.DigitBlock(1, 2, "00"),))
    # digits 1 and 4 free, digits 2-3 lose one of four patterns
    assert m.cylinder_count() == 2 * 3 * 2
    assert fd.mass(m) == 1.0
    assert m.pre_normalization_mass() == 12 / 16


def test_digit_product_rejects_overlapping_blocks():
    with pytest.raises(fd.MeasureError):
        fd.DigitProduct(6, (fd.DigitBlock(0, 3, "000"), fd.DigitBlock(2, 2, "11")))
    with pytest.raises(fd.MeasureError):
        fd.DigitProduct(3, (fd.DigitBlock(2, 2, "01"),))  # runs past depth


def test_digit_product_support_all_zeros_forbidden():
    m = fd.DigitProduct(4, (fd.DigitBlock(0, 2, "00"),))
    lo, hi = fd.support_interval(m)
    # smallest admissible string is 0100..., largest 1111
    assert lo == 0.25
    assert hi == 1.0


def test_mixture_weights_validated():
    leb = fd.UniformOnIntervals(((0.0, 1.0),))
    with pytest.raises(fd.MeasureError):
        fd.Mixture((leb,), (0.0,))
    with pytest.raises(fd.MeasureError):
        fd.Mixture((leb,), (1.0, 2.0))


def test_mixture_mass_adds():
    leb = fd.UniformOnIntervals(((0.0, 1.0),))
    atom = fd.Atomic(((0.5, 1.0),))
    m = fd.Mixture((leb, atom), (0.25, 0.75))
    assert fd.mass(m) == pytest.approx(1.0, abs=1e-15)


def test_affine_image_support():
    leb = fd.UniformOnIntervals(((0.0, 1.0),))
    m = fd.AffineImage(leb, 0.5, 0.25, False)
    assert fd.support_interval(m) == (0.25, 0.75)
    neg = fd.AffineImage(leb, -1.0, 0.0, False)
    assert fd.support_interval(neg) == (-1.0, 0.0)


def test_affine_mod1_requires_integer_scale():
    leb = fd.UniformOnIntervals(((0.0, 1.0),))
    with pytest.raises(fd.MeasureError):
        fd.AffineImage(leb, 2.5, 0.0, True)
    fd.AffineImage(leb, 4, 0.0, True)


def test_affine_mod1_requires_unit_support():
    wide = fd.UniformOnIntervals(((0.0, 2.0),))
    with pytest.raises(fd.MeasureError):
        fd.AffineImage(wide, 2, 0.0, True)


def test_affine_rejects_singular_matrix():
    # scales are real numbers: any matrix, singular or not, is rejected
    leb = fd.UniformOnIntervals(((0.0, 1.0),))
    for scale in (((1.0, 2.0), (2.0, 4.0)), ((2.0, 0.0), (0.0, 3.0)), ((2.0,),)):
        with pytest.raises(fd.MeasureError):
            fd.AffineImage(leb, scale, 0.0, False)
    with pytest.raises(fd.MeasureError):
        fd.measure_from_dict({"variant": "AffineImage", "inner": fd.measure_to_dict(leb),
                              "scale": [[2.0]]})


def test_dilated_digit_product_support():
    # dropping the first l digits leaves the remaining blocks shifted down
    spec = fd.DigitScheduleSpec.index_blocks(1, 4)
    mu = fd.digit_constraint_measure(spec)
    for k, l, ln in zip(range(1, 5), spec.exponents, spec.lengths):
        dil = fd.AffineImage(mu, 2 ** l, 0.0, True)
        lo, hi = fd.support_interval(dil)
        assert hi == 1.0
        assert lo >= 2.0 ** -ln
        assert lo < 2.0 ** -ln + 2.0 ** -(ln + 1)


def test_convolution_needs_two_factors():
    leb = fd.UniformOnIntervals(((0.0, 1.0),))
    with pytest.raises(fd.MeasureError):
        fd.Convolution((leb,))
    conv = fd.Convolution((leb, leb))
    assert fd.support_interval(conv) == (0.0, 2.0)
    assert fd.mass(conv) == 1.0


def test_convolution_mass_multiplies():
    a = fd.Atomic(((0.0, 2.0),))
    b = fd.Atomic(((0.5, 3.0),))
    assert fd.mass(fd.Convolution((a, b))) == 6.0


def test_smooth_cut_density_mass_shrinks():
    leb = fd.UniformOnIntervals(((0.0, 1.0),))
    cut = fd.smooth_cut(leb, (0.5, 0.6, 2))
    assert 0.0 < fd.mass(cut) < 1.0


def test_ambient_dim():
    leb = fd.UniformOnIntervals(((0.0, 1.0),))
    assert leb.ambient_dim == 1
    # coordinate-tuple atoms (planar measures) are rejected
    with pytest.raises(fd.MeasureError):
        fd.Atomic((((0.25, 0.5), 1.0),))
    with pytest.raises(fd.MeasureError):
        fd.measure_from_dict({"variant": "Atomic",
                              "atoms": [{"position": [0.25, 0.5], "weight": 1.0}]})


# serialization -------------------------------------------------------------

ROUND_TRIP_CASES = [
    fd.Atomic(((0.25, 0.5), (0.75, 1.5))),
    fd.UniformOnIntervals(((0.0, 0.25), (0.5, 1.0))),
    fd.TrigDensity(((0.5, 3), (-0.25, 2 ** 80))),
    fd.SelfSimilarDigit(3, (0, 2)),
    fd.DigitProduct(6, (fd.DigitBlock(1, 2, "00"), fd.DigitBlock(4, 2, "11"))),
    fd.Mixture(
        (fd.UniformOnIntervals(((0.0, 1.0),)), fd.Atomic(((0.5, 1.0),))),
        (0.5, 0.5)),
    fd.AffineImage(fd.UniformOnIntervals(((0.0, 1.0),)), 0.5, 0.25, False),
    fd.AffineImage(fd.DigitProduct(4, (fd.DigitBlock(0, 2, "00"),)), 4, 0.0, True),
    fd.Convolution((fd.UniformOnIntervals(((0.0, 1.0),)),
                    fd.UniformOnIntervals(((0.0, 1.0),)))),
    fd.SmoothCutDensity(fd.UniformOnIntervals(((0.0, 1.0),)), 0.5, 0.6, 2),
]


@pytest.mark.parametrize("m", ROUND_TRIP_CASES, ids=lambda m: m.variant)
def test_measure_round_trip(m):
    d = fd.measure_to_dict(m)
    back = fd.measure_from_dict(d)
    assert back == m
    # serialized form is plain data
    import json
    json.dumps(d)


def test_measure_from_dict_accepts_bare_pairs():
    m = fd.measure_from_dict(
        {"variant": "UniformOnIntervals", "intervals": [[0.0, 0.5]]})
    assert m == fd.UniformOnIntervals(((0.0, 0.5),))
    a = fd.measure_from_dict({"variant": "Atomic", "atoms": [[0.5, 1.0]]})
    assert a == fd.Atomic(((0.5, 1.0),))


def test_measure_from_dict_unknown_variant():
    with pytest.raises(fd.MeasureError):
        fd.measure_from_dict({"variant": "Nope"})


# schedules ------------------------------------------------------------------


def test_integer_range_schedule():
    s = fd.IntegerRange(20)
    freqs = s.frequencies()
    assert freqs == tuple(range(1, 21))
    assert s.window_count() == 5  # windows at exponents 0,1,2,3,4


def test_dyadic_windows():
    # max_exp is inclusive: exponents 4..8 give five windows
    s = fd.DyadicWindows(4, 8, samples_per_window=4)
    freqs = s.frequencies()
    assert len(freqs) == 5 * 4
    assert min(freqs) == 16.0
    assert max(freqs) < 512.0
    assert s.window_count() == 5
    assert list(freqs) == sorted(freqs)


def test_dyadic_windows_exponent_cap():
    with pytest.raises(fd.ScheduleError):
        fd.DyadicWindows(4, 2000)


def test_lacunary_schedule_is_exact_ints():
    s = fd.Lacunary((2, 4, 6))
    assert s.frequencies() == (4, 16, 64)
    assert all(isinstance(f, int) for f in s.frequencies())
    big = fd.Lacunary(tuple(k * k for k in range(1, 49)))
    assert big.frequencies()[-1] == 2 ** 2304


def test_lacunary_multipliers():
    # multipliers is a count: j runs over 1 .. multipliers
    s = fd.Lacunary((3,), multipliers=2)
    assert s.frequencies() == (8, 16)
    with pytest.raises(fd.ScheduleError):
        fd.Lacunary((3,), multipliers=(1, 3))


def test_merge_schedules_dedupes_and_sorts():
    merged = fd.merge_schedules(fd.Lacunary((2, 3)), fd.Lacunary((3, 4)))
    assert merged.frequencies() == (4, 8, 16)


def test_schedule_round_trip():
    for s in (fd.IntegerRange(50), fd.DyadicWindows(2, 12, 8),
              fd.Lacunary((1, 4, 9), 3), fd.ExplicitFrequencies((1.5, 2, 7))):
        d = fd.schedule_to_dict(s)
        back = fd.schedule_from_dict(d)
        assert back.frequencies() == s.frequencies()

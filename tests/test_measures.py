"""Measure variants: validation, mass, support, serialization."""

import math
import random

import numpy as np
import pytest

import fourierdim as fd
from fourierdim import measures


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


def test_trig_density_reads_an_integral_float_frequency_as_its_int():
    as_float, as_int = fd.TrigDensity(((0.5, 3.0),)), fd.TrigDensity(((0.5, 3),))
    assert as_float == as_int and type(as_float.terms[0][1]) is int
    xs = np.array([0.25, 3.0, 2.999, 7.5])
    assert np.array_equal(fd.ft_grid(as_float, xs), fd.ft_grid(as_int, xs))
    assert [fd.ft(as_float, x) for x in (3, 0.25)] == [fd.ft(as_int, x) for x in (3, 0.25)]


def test_spans_are_checked_by_one_rule():
    # UniformOnIntervals, DigitProduct and DigitScheduleSpec share the
    # empty-span and overlap messages
    for build in (lambda: fd.UniformOnIntervals(((0.0, 0.6), (0.5, 1.0))),
                  lambda: fd.DigitProduct(6, ((0, 3, "000"), (2, 2, "11"))),
                  lambda: fd.DigitScheduleSpec(1, 2, (1, 3), (4, 1))):
        with pytest.raises(fd.MeasureError, match="s overlap: "):
            build()
    for build in (lambda: fd.UniformOnIntervals(((0.3, 0.3),)),
                  lambda: fd.DigitScheduleSpec(1, 1, (1,), (0,))):
        with pytest.raises(fd.MeasureError, match="is empty or reversed"):
            build()


def test_digit_product_refuses_a_block_past_its_depth_after_a_first_that_fits():
    with pytest.raises(fd.MeasureError, match="block exceeds depth"):
        fd.DigitProduct(4, ((2, 3, "000"), (0, 1, "0")))


def test_uniform_refuses_a_length_whose_reciprocal_overflows():
    # the density 1 / 5e-324 is inf; energy_spatial warned on it
    with pytest.raises(fd.MeasureError, match="too small"):
        fd.UniformOnIntervals(((0.0, 5e-324),))
    assert fd.UniformOnIntervals(((0.0, 1e-300),)).total_length == 1e-300


def test_digit_product_refuses_a_huge_depth_before_counting():
    # 1 << 2^70 used to raise OverflowError ("too many digits in integer")
    # and 1 << 2^33 builds a 1 GB int; the free digit count is compared
    # with 1023 first
    for depth in (2 ** 70, 2 ** 33, 1024):
        with pytest.raises(fd.MeasureError, match="2\\^1023 cylinders"):
            fd.DigitProduct(depth)
    assert fd.DigitProduct(1023).cylinder_count() == 1 << 1023


def test_digit_product_cylinder_count():
    m = fd.DigitProduct(4, (fd.DigitBlock(1, 2, "00"),))
    # digits 1 and 4 free, digits 2-3 lose one of four patterns
    assert m.cylinder_count() == 2 * 3 * 2
    assert fd.mass(m) == 1.0
    # the density lives on the admissible cylinders, 12 of the 16
    pieces = m._density()
    assert math.fsum(p.b - p.a for p in pieces) == m.cylinder_count() / 2 ** m.depth


def test_digit_product_rejects_overlapping_blocks():
    with pytest.raises(fd.MeasureError):
        fd.DigitProduct(6, (fd.DigitBlock(0, 3, "000"), fd.DigitBlock(2, 2, "11")))
    with pytest.raises(fd.MeasureError):
        fd.DigitProduct(3, (fd.DigitBlock(2, 2, "01"),))  # runs past depth


def _digit_product_grid_per_digit(m, xs):
    """DigitProduct's grid rule with every digit character computed where used."""
    def char(pos):
        return measures._phase_vec(xs, 2.0 ** -pos)

    blocked = {b.offset: b for b in m.blocks}
    factors = np.ones(xs.shape, dtype=complex)
    pos = 1
    while pos <= m.depth:
        b = blocked.get(pos - 1)
        if b is None:
            factors *= 1.0 + char(pos)
            pos += 1
            continue
        block = np.ones(xs.shape, dtype=complex)
        for r in range(1, b.length + 1):
            block *= 1.0 + char(b.offset + r)
        v = int(b.forbidden_pattern, 2)
        forb = np.ones(xs.shape, dtype=complex)
        for j in range(b.length):
            if v >> j & 1:
                forb *= char(b.offset + b.length - j)
        factors *= block - forb
        pos = b.offset + b.length + 1
    return measures._eplus_vec(-xs * 2.0 ** -m.depth) * factors / m.cylinder_count()


def test_digit_product_grid_shares_digit_phases_bit_for_bit():
    xs = np.linspace(-3000.0, 70000.0, 4099)
    for m in (fd.DigitProduct(6, (fd.DigitBlock(1, 2, "01"),)),
              fd.DigitProduct(10, (fd.DigitBlock(0, 3, "101"), fd.DigitBlock(5, 2, "11"))),
              fd.DigitProduct(16, (fd.DigitBlock(2, 4, "0110"), fd.DigitBlock(8, 4, "0000")))):
        assert np.array_equal(fd.ft_grid(m, xs), _digit_product_grid_per_digit(m, xs))


def test_digit_product_support_all_zeros_forbidden():
    m = fd.DigitProduct(4, (fd.DigitBlock(0, 2, "00"),))
    lo, hi = fd.support_interval(m)
    # smallest admissible string is 0100..., largest 1111
    assert lo == 0.25
    assert hi == 1.0


# The support, the dilated supports and the cylinder enumeration all read the
# block layout from DigitProduct._factor_plan.  The references below walk
# the blocks directly, as the rules did before they shared the plan.


def _ref_support(m):
    lo = hi = 0.0
    blocked = {b.offset: b for b in m.blocks}
    pos = 1
    while pos <= m.depth:
        b = blocked.get(pos - 1)
        if b is None:
            hi += 2.0 ** -pos
            pos += 1
            continue
        top = (1 << b.length) - 1
        if b.forbidden_pattern == "0" * b.length:
            lo += 2.0 ** -(b.offset + b.length)
        max_val = top - 1 if b.forbidden_pattern == "1" * b.length else top
        hi += max_val * 2.0 ** -(b.offset + b.length)
        pos = b.offset + b.length + 1
    return lo, min(1.0, hi + 2.0 ** -m.depth)


def _ref_wrapped_support(m, l):
    if l == 0:
        return _ref_support(m)
    if l >= m.depth:
        return 0.0, 1.0
    kept = []
    for b in m.blocks:
        if b.offset >= l:
            kept.append(fd.DigitBlock(b.offset - l, b.length, b.forbidden_pattern))
        elif b.offset + b.length > l:
            return 0.0, 1.0
    return _ref_support(fd.DigitProduct(m.depth - l, tuple(kept)))


def _ref_admissible_values(m):
    segments = []
    pos = 0
    for b in sorted(m.blocks, key=lambda b: b.offset):
        lo, hi = b.offset, b.offset + b.length
        if lo > pos:
            segments.append((m.depth - lo, range(1 << (lo - pos))))
        forbidden = int(b.forbidden_pattern, 2)
        segments.append((m.depth - hi, [v for v in range(1 << b.length) if v != forbidden]))
        pos = hi
    if pos < m.depth:
        segments.append((0, range(1 << (m.depth - pos))))
    values = [0]
    for shift, choices in segments:
        values = [v + (c << shift) for v in values for c in choices]
    return sorted(values)


def _random_digit_product(rng):
    depth = rng.randint(1, 70)
    blocks = []
    pos = rng.randint(0, 3)
    while pos < depth and rng.random() < 0.8:
        length = rng.randint(1, min(6, depth - pos))
        pattern = rng.choice(("0" * length, "1" * length,
                              format(rng.getrandbits(length), f"0{length}b")))
        blocks.append(fd.DigitBlock(pos, length, pattern))
        pos += length + rng.randint(0, 4)
    return fd.DigitProduct(depth, tuple(blocks))


def test_digit_layout_matches_per_block_rules():
    rng = random.Random(14061480)
    enumerated = 0
    for _ in range(400):
        m = _random_digit_product(rng)
        assert fd.support_interval(m) == _ref_support(m)
        for l in range(m.depth + 2):
            assert m._wrapped_support(1 << l) == _ref_wrapped_support(m, l), (m, l)
        assert m._wrapped_support(3) == (0.0, 1.0)
        if m.cylinder_count() <= 1 << 12:
            assert m._admissible_values() == _ref_admissible_values(m)
            enumerated += 1
    assert enumerated >= 50


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


def test_affine_refuses_an_int_scale_past_the_float_range():
    # the support, atom, density and grid rules convert the scale to a float;
    # these used to build and then end in an OverflowError
    leb = fd.UniformOnIntervals(((0.0, 1.0),))
    cantor = fd.SelfSimilarDigit(3, (0, 2))
    for inner, scale, mod1 in ((leb, 10 ** 400, False), (leb, -(2 ** 1024), False),
                               (leb, 2 ** 1024 - 2 ** 970, False),
                               (cantor, 3 ** 700, True), (cantor, 3 ** 700, False)):
        with pytest.raises(fd.MeasureError, match="float range"):
            fd.AffineImage(inner, scale, 0.0, mod1)


def test_affine_int_scale_2_to_the_1023_builds_and_batches_like_ft():
    cantor = fd.SelfSimilarDigit(3, (0, 2))
    m = fd.AffineImage(cantor, 2 ** 1023, 0.0, True)
    assert fd.support_interval(m) == (0.0, 1.0)
    js = (1, -2, 3, 7, 2 ** 20, 3 ** 40)
    samples = fd.ft_batch(m, fd.ExplicitFrequencies(js))
    assert sorted(s.xi for s in samples) == sorted(js)
    for s in samples:
        assert s.value == fd.ft(m, s.xi)


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


def test_masses_past_the_float_range_are_refused():
    # fsum used to raise OverflowError for the atoms, and the mixture and
    # the convolution used to report a mass of inf
    big = fd.Atomic(((0.1, 1e308),))
    for m in (fd.Atomic(((0.1, 1e308), (0.5, 1e308))), fd.Mixture((big,), (10.0,)),
              fd.Mixture((big, big), (1.0, 1.0)), fd.Convolution((big, fd.Atomic(((0.2, 2.0),))))):
        with pytest.raises(fd.MeasureError, match="float range"):
            fd.mass(m)
    # finite totals near the top of the float range keep fsum's value
    atoms = ((0.1, 1e308), (0.5, 7e307), (0.7, 1.0))
    assert fd.mass(fd.Atomic(atoms)) == math.fsum(w for _, w in atoms)
    assert fd.mass(fd.Mixture((big,), (1.5,))) == 1.5e308
    assert fd.mass(fd.Convolution((big, fd.Atomic(((0.2, 0.5),))))) == 5e307


def test_smooth_cut_density_mass_shrinks():
    leb = fd.UniformOnIntervals(((0.0, 1.0),))
    cut = fd.smooth_cut(leb, (0.5, 0.6, 2))
    assert 0.0 < fd.mass(cut) < 1.0


def test_planar_atoms_rejected():
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


def test_measure_from_dict_ignores_ambient_dim():
    # descriptions written before the key was dropped still decode
    m = fd.SmoothCutDensity(fd.UniformOnIntervals(((0.0, 1.0),)), 0.5, 0.6, 2)
    d = fd.measure_to_dict(m)
    assert "ambient_dim" not in d and "ambient_dim" not in d["inner"]
    d["ambient_dim"] = 1
    d["inner"]["ambient_dim"] = 1
    assert fd.measure_from_dict(d) == m


def test_measure_from_dict_unknown_variant():
    with pytest.raises(fd.MeasureError):
        fd.measure_from_dict({"variant": "Nope"})


# schedules ------------------------------------------------------------------


def test_integer_range_schedule():
    s = fd.IntegerRange(20)
    freqs = s.frequencies()
    assert freqs == tuple(range(1, 21))
    # windows at exponents 0,1,2,3,4
    assert len({math.floor(math.log2(x)) for x in freqs}) == 5


def test_dyadic_windows():
    # max_exp is inclusive: exponents 4..8 give five windows
    s = fd.DyadicWindows(4, 8, samples_per_window=4)
    freqs = s.frequencies()
    assert len(freqs) == 5 * 4
    assert min(freqs) == 16.0
    assert max(freqs) < 512.0
    assert len({math.floor(math.log2(x)) for x in freqs}) == 5
    assert list(freqs) == sorted(freqs)


def test_dyadic_windows_exponent_cap():
    with pytest.raises(fd.ScheduleError):
        fd.DyadicWindows(4, 2000)


def test_dyadic_windows_exponent_floor():
    # 2^-1074 is the least positive float; below it the first frequencies
    # used to round to 0.0
    assert min(fd.DyadicWindows(-1074, -1070, 4).frequencies()) == 2.0 ** -1074
    with pytest.raises(fd.ScheduleError):
        fd.DyadicWindows(-1075, -1070)


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


def test_schedules_past_the_frequency_cap_are_refused_before_building():
    # make(k) holds per_k * k frequencies; the count comes from the fields,
    # so a refused schedule allocates nothing
    cap = measures.MAX_FREQUENCIES
    assert cap == 2 ** 16
    for make, per_k in ((lambda k: fd.IntegerRange(k), 1),
                        (lambda k: fd.IntegerRange(k + 4, 5), 1),
                        (lambda k: fd.DyadicWindows(0, 0, k), 1),
                        (lambda k: fd.DyadicWindows(3, 6, k), 4),
                        (lambda k: fd.Lacunary((0,), k), 1),
                        (lambda k: fd.Lacunary((1, 40), k), 2)):
        make(cap // per_k)
        with pytest.raises(fd.ScheduleError, match="cap"):
            make(cap // per_k + 1)


def test_merge_schedules_dedupes_and_sorts():
    merged = fd.merge_schedules(fd.Lacunary((2, 3)), fd.Lacunary((3, 4)))
    assert merged.frequencies() == (4, 8, 16)


def test_merge_schedules_drops_duplicates_that_sorting_leaves_apart():
    # sorted by modulus, 1.5, -1.5, 1.5: the two 1.5 are not neighbours
    merged = fd.merge_schedules(fd.ExplicitFrequencies((1.5, -1.5)),
                                fd.ExplicitFrequencies((1.5,)))
    assert merged.frequencies() == (1.5, -1.5)


def test_schedule_round_trip():
    for s in (fd.IntegerRange(50), fd.DyadicWindows(2, 12, 8),
              fd.Lacunary((1, 4, 9), 3), fd.ExplicitFrequencies((1.5, 2, 7))):
        d = fd.schedule_to_dict(s)
        back = fd.schedule_from_dict(d)
        assert back.frequencies() == s.frequencies()


def test_schedule_base_and_unregistered_subclasses_are_refused():
    with pytest.raises(NotImplementedError):
        fd.FrequencySchedule().frequencies()

    class Unregistered(fd.FrequencySchedule):
        def frequencies(self):
            return (1.5,)

    with pytest.raises(fd.ScheduleError, match="unknown schedule Unregistered"):
        fd.schedule_to_dict(Unregistered())

"""Preset measure families: digit schedules, lacunary densities, cantor."""

import math

import numpy as np
import pytest

import fourierdim as fd


# ---------------------------------------------------------------------------
# DigitScheduleSpec


def test_index_blocks_defaults():
    spec = fd.DigitScheduleSpec.index_blocks()
    assert spec.n == 1 and spec.K == 5
    assert spec.exponents == (1, 4, 9, 16, 25)
    assert spec.lengths == (1, 2, 3, 4, 5)
    assert spec.depth == 30


def test_schedule_validation():
    with pytest.raises(fd.MeasureError):
        fd.DigitScheduleSpec(2, 1, (4,), (1,))  # n > K
    with pytest.raises(fd.MeasureError):
        fd.DigitScheduleSpec(1, 2, (1,), (1, 1))  # wrong tuple length
    with pytest.raises(fd.MeasureError):
        fd.DigitScheduleSpec(1, 2, (1, 3), (4, 1))  # blocks overlap: 3 < 1+4
    with pytest.raises(fd.MeasureError):
        fd.DigitScheduleSpec(1, 1, (1,), (0,))  # empty block
    fd.DigitScheduleSpec(1, 2, (1, 5), (4, 1))  # touching blocks are fine


def test_schedule_positions_start_at_one():
    with pytest.raises(fd.MeasureError, match="block positions must be positive"):
        fd.DigitScheduleSpec(1, 2, (0, 3), (1, 1))


def test_proportional_blocks_window():
    spec = fd.DigitScheduleSpec.proportional_blocks(1, 4, 0.85)
    lo, hi = (1.0 - 0.85) / 0.85, 0.85 / 2.0
    assert spec.s == 0.85
    assert spec.b == pytest.approx(0.5 * (lo + hi))
    assert spec.exponents == (1, 8, 27, 64)
    assert spec.lengths == tuple(math.ceil(spec.b * e) for e in spec.exponents)

    with pytest.raises(fd.MeasureError):
        fd.DigitScheduleSpec.proportional_blocks(1, 4, 0.5)  # s too small
    with pytest.raises(fd.MeasureError):
        fd.DigitScheduleSpec.proportional_blocks(1, 4, 1.0)  # s not < 1
    with pytest.raises(fd.MeasureError):
        fd.DigitScheduleSpec.proportional_blocks(1, 4, 0.85, b=0.9)  # b outside


# ---------------------------------------------------------------------------
# digit_constraint_measure


def test_constraint_measure_shape():
    spec = fd.DigitScheduleSpec.index_blocks(1, 3)
    mu = fd.digit_constraint_measure(spec)
    assert isinstance(mu, fd.DigitProduct)
    assert mu.depth == spec.depth == 12
    assert [b.forbidden_pattern for b in mu.blocks] == ["0", "00", "000"]
    assert fd.mass(mu) == 1.0


def test_constraint_measure_admissible_fraction():
    # admissible cylinders / 2^depth = prod_k (1 - 2^-length_k), exactly
    spec = fd.DigitScheduleSpec.index_blocks(1, 4)
    mu = fd.digit_constraint_measure(spec)
    frac = mu.cylinder_count() / 2 ** mu.depth
    want = math.prod(1.0 - 2.0 ** (-k) for k in range(1, 5))
    assert frac == pytest.approx(want, rel=1e-15)


def test_constraint_measure_transform_consistency():
    spec = fd.DigitScheduleSpec.index_blocks(1, 2)
    mu = fd.digit_constraint_measure(spec)  # depth 6, enumerable
    for xi in (0.3, 1, 5.5):
        quad = fd.ft_quadrature(mu, xi, tol=1e-11)
        assert abs(fd.ft(mu, xi) - quad.value) < 1e-9


# ---------------------------------------------------------------------------
# lacunary_trig_measure


def test_lacunary_mass_is_one():
    g = fd.lacunary_trig_measure(+1)
    assert fd.ft(g, 0) == 1.0 + 0.0j
    assert fd.mass(g) == 1.0


def test_lacunary_depth_is_capped_at_64():
    # 2^(64^2) is the frequency cap; deeper terms are refused before any is
    # built (depth 10^4 would make about 40 GB of ints)
    assert fd.lacunary_trig_measure(+1, 64).terms[-1][1] == 2 ** 4096
    for depth in (65, 10 ** 4):
        with pytest.raises(fd.MeasureError, match=f"depth {depth} above 64"):
            fd.lacunary_trig_measure(-1, depth)


def test_lacunary_spikes_by_sign():
    g = fd.lacunary_trig_measure(+1, depth=4)
    h = fd.lacunary_trig_measure(-1, depth=4)
    for k in range(1, 5):
        xi = 2 ** (k * k)
        assert fd.ft(g, xi) == -1j * 2.0 ** (-(k + 1))
        assert fd.ft(h, xi) == +1j * 2.0 ** (-(k + 1))


def test_lacunary_signs_average_to_lebesgue():
    g = fd.lacunary_trig_measure(+1, depth=5)
    h = fd.lacunary_trig_measure(-1, depth=5)
    leb = fd.UniformOnIntervals(((0.0, 1.0),))
    both = fd.Mixture((g, h), (1.0, 1.0))
    for xi in (0.5, 3.25, 17.0, 2 ** 9):
        assert abs(fd.ft(both, xi) - 2.0 * fd.ft(leb, xi)) < 1e-15


def test_lacunary_validation():
    with pytest.raises(fd.MeasureError):
        fd.lacunary_trig_measure(2)
    with pytest.raises(fd.MeasureError):
        fd.lacunary_trig_measure(1, depth=0)


# ---------------------------------------------------------------------------
# cantor_measure


def test_cantor_shape():
    c = fd.cantor_measure()
    assert isinstance(c, fd.SelfSimilarDigit)
    assert c.base == 3 and c.allowed_digits == (0, 2)
    assert fd.mass(c) == 1.0
    assert fd.support_interval(c) == (0.0, 1.0)


def test_cantor_modulus_repeats_on_powers():
    c = fd.cantor_measure()
    base = abs(fd.ft(c, 1))
    for k in (1, 5, 12):
        assert abs(fd.ft(c, 3 ** k)) == base


# ---------------------------------------------------------------------------
# tail diagnostics


def test_tail_terms_need_proportional_schedule():
    with pytest.raises(fd.MeasureError):
        fd.tail_terms(fd.DigitScheduleSpec.index_blocks())


def test_tail_terms_values():
    spec = fd.DigitScheduleSpec.proportional_blocks(1, 3, 0.85)
    terms = fd.tail_terms(spec)
    s = spec.s
    want = tuple(2.0 ** ((1.0 - s) * e - s * t)
                 for e, t in zip(spec.exponents, spec.lengths))
    assert terms == want
    assert all(t > 0 for t in terms)


def test_tail_report_converges_at_desk_scale():
    spec = fd.DigitScheduleSpec.proportional_blocks(1, 6, 0.85)
    rep = fd.tail_report(spec)
    assert rep["converges"] is True
    assert all(r < 1.0 for r in rep["ratios"])
    assert rep["partial_sums"][-1] == pytest.approx(math.fsum(rep["terms"]))


def test_tail_report_short_range_is_inconclusive():
    # with only two blocks the final term has not dropped 1e6 below the first
    spec = fd.DigitScheduleSpec.proportional_blocks(1, 2, 0.85)
    rep = fd.tail_report(spec)
    assert rep["converges"] is False


# ---------------------------------------------------------------------------
# numbers at the library entry points


MODEL = fd.IncidenceModel(2, 2, ((0.0, 1.0), (2.0, 0.0)))

# each was truncated (a subset member 1.7 answered for {1}), taken as a
# number (True as 1, "3" as 3.0), ended in a bare TypeError, or ran as an
# empty check (trials -3)
NOT_A_NUMBER = {
    "model-nx-float": lambda: fd.IncidenceModel(2.0, 1, ((0.0,), (1.0,))),
    "model-ny-bool": lambda: fd.IncidenceModel(1, True, ((0.0,),)),
    "model-pairing-bool": lambda: fd.IncidenceModel(1, 1, ((True,),)),
    "model-pairing-string": lambda: fd.IncidenceModel(1, 1, (("3",),)),
    "member-float": lambda: fd.perp(MODEL, fd.SubsetPair("left", {1.7})),
    "member-below-one": lambda: fd.SubsetPair("left", {0.9}),
    "member-string": lambda: fd.SubsetPair("left", {"1"}),
    "quasiconvex-string-and-bool": lambda: fd.quasiconvex_weights(("2", True)),
    "perp-trials-float": lambda: fd.check_perp_properties(MODEL, 2.5, np.random.default_rng(0)),
    "perp-trials-negative": lambda: fd.check_perp_properties(MODEL, -3, np.random.default_rng(0)),
    "spec-n-bool": lambda: fd.DigitScheduleSpec(True, 1, (1,), (1,)),
    "spec-K-float": lambda: fd.DigitScheduleSpec(1, 1.0, (1,), (1,)),
    "spec-s-string": lambda: fd.DigitScheduleSpec(1, 1, (1,), (1,), "0.9"),
    "spec-b-bool": lambda: fd.DigitScheduleSpec(1, 1, (1,), (1,), 0.9, True),
    "index-blocks-n-float": lambda: fd.DigitScheduleSpec.index_blocks(1.5, 3),
    "proportional-blocks-n-float": lambda: fd.DigitScheduleSpec.proportional_blocks(1.5, 3, 0.85),
    "proportional-blocks-s-string": lambda: fd.DigitScheduleSpec.proportional_blocks(1, 3, "0.85"),
    "lacunary-sign-bool": lambda: fd.lacunary_trig_measure(True),
    "lacunary-sign-float": lambda: fd.lacunary_trig_measure(1.0),
    "lacunary-depth-float": lambda: fd.lacunary_trig_measure(1, 2.5),
    "riesz-s-string": lambda: fd.riesz_constant(1, "0.5"),
    "riesz-d-bool": lambda: fd.riesz_constant(True, 0.5),
    "digit-product-base-float": lambda: fd.DigitProduct(4, (), 2.0),
    "matrix-image-1x1": lambda: fd.matrix_image_experiment(
        fd.UniformOnIntervals(((0.0, 1.0),)), ((2.0,),), fd.DyadicWindows(4, 16)),
}


@pytest.mark.parametrize("name", sorted(NOT_A_NUMBER))
def test_entry_points_read_numbers_as_config_fields_are_read(name):
    with pytest.raises(fd.MeasureError):
        NOT_A_NUMBER[name]()


def test_entry_points_keep_valid_numbers():
    spec = fd.DigitScheduleSpec(np.int64(1), np.int64(2), (1, 3), (1, 2), 0.9, 0.3)
    assert (type(spec.n), type(spec.K), spec.s, spec.b) == (int, int, 0.9, 0.3)
    model = fd.IncidenceModel(np.int64(70), 1, ((0.0,),) * 70)
    assert fd.perp(model, fd.SubsetPair("right", {np.int64(0)})).members == frozenset(range(70))
    assert fd.quasiconvex_weights((1, 2)) == fd.quasiconvex_weights((1.0, 2.0))
    assert fd.riesz_constant(2, 1) == fd.riesz_constant(2, 1.0)

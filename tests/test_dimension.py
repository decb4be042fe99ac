"""Decay estimation, energies, window cutoffs, and the decay experiments."""

import math

import numpy as np
import pytest

import fourierdim as fd


LEB = fd.UniformOnIntervals(((0.0, 1.0),))
SCHED = fd.DyadicWindows(4, 16)


# ---------------------------------------------------------------------------
# decay_exponent


def test_decay_lebesgue_saturates_the_cap():
    rep = fd.decay_exponent(LEB, SCHED)
    # |leb_hat| ~ 1/(pi xi): raw exponent ~2, capped at the ambient dim.
    assert rep.liminf_proxy > 1.5
    assert rep.capped_dim == 1.0


def test_decay_single_atom_is_zero():
    rep = fd.decay_exponent(fd.Atomic(((0.3, 1.0),)), SCHED)
    assert rep.capped_dim == 0.0
    assert math.copysign(1.0, rep.capped_dim) == 1.0  # not -0.0
    for w in rep.windows:
        assert w.max_abs == pytest.approx(1.0, abs=1e-12)


def test_decay_vanishing_window_counts_as_infinite():
    # Lebesgue vanishes exactly at the integers, so an all-integer schedule
    # sees only zeros: every window reports an infinite local exponent and
    # the cap brings the estimate back to 1.
    sched = fd.ExplicitFrequencies(tuple(float(2 ** e) for e in range(4, 16)))
    rep = fd.decay_exponent(LEB, sched)
    assert all(w.local_exponent == math.inf for w in rep.windows)
    assert rep.liminf_proxy == math.inf
    assert rep.capped_dim == 1.0


def test_decay_requires_eight_windows():
    with pytest.raises(fd.ScheduleError):
        fd.decay_exponent(LEB, fd.DyadicWindows(4, 9))  # only 6 windows
    fd.decay_exponent(LEB, fd.DyadicWindows(4, 11))  # exactly 8 is fine


def test_decay_report_serialization():
    sched = fd.ExplicitFrequencies(tuple(float(2 ** e) for e in range(4, 16)))
    rep = fd.decay_exponent(LEB, sched)
    d = rep.to_dict()
    assert d["liminf_proxy"] == "inf"
    assert d["capped_dim"] == 1.0
    assert len(d["windows"]) == len(rep.windows)


def test_decay_cantor_plateau():
    # |c_hat(3^k)| never decays, so once the schedule reaches high powers of
    # three the top-half windows pin the liminf proxy near zero.  The powers
    # stay ints: floats round 3^34 and beyond to non-powers.
    sched = fd.merge_schedules(
        fd.DyadicWindows(4, 20),
        fd.ExplicitFrequencies(tuple(3 ** k for k in range(1, 41))))
    rep = fd.decay_exponent(fd.cantor_measure(), sched)
    assert rep.capped_dim <= 0.05


# ---------------------------------------------------------------------------
# energies


def test_riesz_constant_is_one_at_half():
    assert abs(fd.riesz_constant(1, 0.5) - 1.0) < 1e-15


def test_riesz_constant_rejects_bad_s():
    for s in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(fd.MeasureError):
            fd.riesz_constant(1, s)


def test_energy_spatial_lebesgue_half():
    res = fd.energy_spatial(LEB, 0.5)
    assert res.method == "spatial"
    assert abs(res.value - 8.0 / 3.0) < 1e-9
    assert res.err_estimate < 1e-6


def test_energy_fourier_lebesgue_half():
    res = fd.energy_fourier(LEB, 0.5, cutoff=2.0 ** 14)
    assert res.method == "fourier"
    assert abs(res.value - 8.0 / 3.0) < 2e-2
    assert abs(res.value - 8.0 / 3.0) <= res.err_estimate + 1e-3
    assert res.constant == fd.riesz_constant(1, 0.5)


def test_energy_routes_agree_on_a_trig_density():
    m = fd.TrigDensity(((0.5, 3),))
    for s in (0.25, 0.5, 0.75):
        sp = fd.energy_spatial(m, s)
        fo = fd.energy_fourier(m, s, cutoff=2.0 ** 13)
        assert abs(sp.value - fo.value) <= sp.err_estimate + fo.err_estimate + 1e-3


def test_energy_atoms_flag_infinity():
    atom = fd.Atomic(((0.5, 1.0),))
    mixed = fd.Mixture((LEB, atom), (0.5, 0.5))
    for m in (atom, mixed):
        assert fd.energy_spatial(m, 0.5).value == math.inf
        assert fd.energy_fourier(m, 0.5).value == math.inf
    d = fd.energy_spatial(atom, 0.5).to_dict()
    assert d["value"] == "inf"


def test_energy_validation():
    with pytest.raises(fd.MeasureError):
        fd.energy_spatial(LEB, 1.5)
    with pytest.raises(fd.MeasureError):
        fd.energy_spatial(LEB, 0.5, resolution=8)
    with pytest.raises(fd.MeasureError):
        fd.energy_fourier(LEB, 0.5, cutoff=2.0)
    # measures live on the line: a planar atom cannot even be built
    with pytest.raises(fd.MeasureError):
        fd.energy_spatial(fd.Atomic((((0.25, 0.5), 1.0),)), 0.5)


def test_energy_error_estimate_shrinks_with_resolution():
    # a genuinely curved density, so midpoint sampling error is visible
    m = fd.TrigDensity(((0.5, 3),))
    coarse = fd.energy_spatial(m, 0.5, resolution=256)
    fine = fd.energy_spatial(m, 0.5, resolution=4096)
    assert fine.err_estimate < coarse.err_estimate


# ---------------------------------------------------------------------------
# smooth_cut


def test_smooth_cut_requires_order():
    with pytest.raises(fd.MeasureError):
        fd.smooth_cut(LEB, (0.5, 0.3, 1))


def test_smooth_cut_rejects_disjoint_window():
    with pytest.raises(fd.MeasureError):
        fd.smooth_cut(LEB, (5.0, 0.5, 2))


def test_smooth_cut_atomic_reweights_exactly():
    m = fd.Atomic(((0.5, 0.6), (0.9, 0.4)))
    cut = fd.smooth_cut(m, (0.5, 0.2, 2))
    # the second atom is outside the window and is dropped
    assert isinstance(cut, fd.Atomic)
    assert len(cut.atoms) == 1
    pos, w = cut.atoms[0]
    assert pos == 0.5
    assert w == pytest.approx(0.6, abs=1e-15)  # bump peaks at exactly 1


def test_smooth_cut_atomic_all_outside():
    m = fd.Atomic(((0.9, 1.0),))
    with pytest.raises(fd.MeasureError):
        fd.smooth_cut(m, (0.1, 0.2, 2))


def test_smooth_cut_mass_shrinks():
    cut = fd.smooth_cut(LEB, (0.5, 0.4, 2))
    total = fd.ft(cut, 0).real
    # integral of ((r^2-(x-c)^2)/r^2)^2 over [c-r, c+r] is 16r/15
    assert total == pytest.approx(16.0 * 0.4 / 15.0, abs=1e-12)
    assert total < 1.0


def test_smooth_cut_mixture_drops_far_components():
    far = fd.AffineImage(LEB, 0.25, 4.0)  # supported on [4, 4.25]
    m = fd.Mixture((LEB, far), (0.5, 0.5))
    cut = fd.smooth_cut(m, (0.5, 0.4, 2))
    assert isinstance(cut, fd.Mixture)
    assert len(cut.components) == 1


def test_smooth_cut_quadrature_cross_check():
    cut = fd.smooth_cut(LEB, (0.5, 0.3, 3))
    for xi in (0.0, 1.5, 7.25):
        closed = fd.ft(cut, xi)
        quad = fd.ft_quadrature(cut, xi, tol=1e-11)
        assert abs(closed - quad.value) < 1e-9


# ---------------------------------------------------------------------------
# lower_bound_search


def test_lower_bound_preconditions():
    with pytest.raises(fd.MeasureError):
        fd.lower_bound_search(LEB, 0.5, 100)  # support leaves [eps, 1]
    heavy = fd.Atomic(((0.75, 2.0),))
    with pytest.raises(fd.MeasureError):
        fd.lower_bound_search(heavy, 0.5, 100)  # mass 2, not a probability


def test_lower_bound_single_atom_immediate():
    wit = fd.lower_bound_search(fd.Atomic(((1.0, 1.0),)), 1.0, 100)
    assert wit.found and wit.j == 1
    assert wit.value == pytest.approx(1.0, abs=1e-15)
    assert wit.bound == pytest.approx(math.pi / (8.0 + 2.0 * math.pi), abs=1e-15)


def test_lower_bound_skips_a_cancellation():
    # atoms at 1/2 and 1 cancel at j = 1 and recombine at j = 2
    m = fd.Atomic(((0.5, 0.5), (1.0, 0.5)))
    wit = fd.lower_bound_search(m, 0.5, 10)
    assert wit.found and wit.j == 2
    assert wit.value == pytest.approx(1.0, abs=1e-15)


def test_lower_bound_miss_is_reported_honestly():
    m = fd.Atomic(((0.5, 0.5), (1.0, 0.5)))
    wit = fd.lower_bound_search(m, 0.5, 1)  # the j = 1 value is exactly 0
    assert not wit.found
    assert wit.searched_up_to == 1
    assert wit.to_dict()["found"] is False


def test_lower_bound_uniform_on_upper_half():
    half = fd.AffineImage(LEB, 0.5, 0.5)  # uniform on [1/2, 1]
    wit = fd.lower_bound_search(half, 0.5, 100)
    assert wit.found and wit.j == 1
    assert wit.value == pytest.approx(2.0 / math.pi, abs=1e-12)
    assert wit.value >= wit.bound >= 0.5 / 5.0


# ---------------------------------------------------------------------------
# translation pairs, stability, matrix images


def test_translation_identity_holds():
    for t in (0.0, 1.0 / 3.0, 0.5, 2.0 / 7.0):
        for xi in (0.5, 3.25, 7):
            got = fd.translation_pair_transform(LEB, t, xi)
            want = 2.0 * abs(math.cos(math.pi * t * xi)) * abs(fd.ft(LEB, xi))
            assert abs(got - want) < 1e-10


def test_translation_exact_cancellation():
    m = fd.Atomic(((0.25, 1.0),))
    got = fd.translation_pair_transform(m, 0.5, 1)
    assert got < 1e-12  # half-turn phase kills the pair at integer frequency


def test_translation_rejects_higher_dimensions():
    # measures live on the line: a planar atom cannot even be built
    with pytest.raises(fd.MeasureError):
        fd.translation_pair_transform(fd.Atomic((((0.25, 0.5), 1.0),)), 0.5, 1.0)


def test_stability_triple_reports():
    r1, r2, rsum = fd.stability_experiment(LEB, fd.cantor_measure(), SCHED)
    floor = min(r1.capped_dim, r2.capped_dim) - 0.05
    assert rsum.capped_dim >= floor


def test_matrix_image_scalar_scale():
    base, both = fd.matrix_image_experiment(LEB, 2.0, SCHED)
    assert base.capped_dim == 1.0
    assert both.capped_dim >= base.capped_dim - 0.05


def test_matrix_image_one_by_one_matrix():
    base, both = fd.matrix_image_experiment(LEB, ((2.0,),), SCHED)
    assert both.capped_dim >= base.capped_dim - 0.05


def test_matrix_image_unit_modulus_rejected():
    for scale in (1.0, -1.0, ((0.0, 1.0), (-1.0, 0.0))):
        with pytest.raises(fd.MeasureError):
            fd.matrix_image_experiment(LEB, scale, SCHED)


def test_matrix_image_true_matrices_unsupported():
    with pytest.raises(fd.MeasureError):
        fd.matrix_image_experiment(LEB, ((2.0, 0.0), (0.0, 3.0)), SCHED)

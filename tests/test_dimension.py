"""Decay estimation, energies, window cutoffs, and the decay experiments."""

import math
from dataclasses import asdict

import numpy as np
import pytest

import fourierdim as fd
from fourierdim import dimension
from fourierdim.cli import _clean
from fourierdim.measures import WINDOW_MAX_ORDER


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


def test_decay_refuses_a_schedule_subclass_that_yields_zero():
    # the four schedules refuse 0 when built; a subclass of the base can
    # still hand one to the window exponents
    class WithZero(fd.FrequencySchedule):
        def frequencies(self):
            return tuple(2.0 ** e for e in range(4, 12)) + (0,)

    with pytest.raises(fd.ScheduleError, match="frequencies must be nonzero"):
        fd.decay_exponent(LEB, WithZero())


def test_decay_report_serialization():
    sched = fd.ExplicitFrequencies(tuple(float(2 ** e) for e in range(4, 16)))
    rep = fd.decay_exponent(LEB, sched)
    d = _clean(asdict(rep))  # what the CLI writes
    assert d["liminf_proxy"] == "inf"
    assert d["capped_dim"] == 1.0
    assert len(d["windows"]) == len(rep.windows)
    assert d["windows"][0] == {"exp_lo": 4, "exp_hi": 5, "max_abs": 0.0,
                               "local_exponent": "inf"}


def test_decay_cantor_plateau():
    # |c_hat(3^k)| never decays, so once the schedule reaches high powers of
    # three the top-half windows pin the liminf proxy near zero.  The powers
    # stay ints: floats round 3^34 and beyond to non-powers.
    sched = fd.merge_schedules(
        fd.DyadicWindows(4, 20),
        fd.ExplicitFrequencies(tuple(3 ** k for k in range(1, 41))))
    rep = fd.decay_exponent(fd.cantor_measure(), sched)
    assert rep.capped_dim <= 0.05


# Known answers for the estimator itself: each entry reads the local
# exponents and the liminf proxy, which capped_dim's clamp to [0, 1] hides.

@pytest.mark.parametrize("k", [12, 30])
def test_decay_known_answer_lacunary_spikes(k):
    # |ft| at the spike 2^(j^2) is exactly 2^-(j+1), one sample per window
    rep = fd.decay_exponent(fd.lacunary_trig_measure(1, k),
                            fd.Lacunary(tuple(j * j for j in range(1, k + 1))))
    assert [w.exp_lo for w in rep.windows] == [j * j for j in range(1, k + 1)]
    assert [w.local_exponent for w in rep.windows] == [2 * (j + 1) / (j * j + 0.5)
                                                       for j in range(1, k + 1)]
    assert rep.liminf_proxy == 2 * (k + 1) / (k * k + 0.5)


def test_decay_known_answer_cantor_along_powers_of_three():
    # ft(cantor, 3^k) = ft(cantor, 1): the first k levels are exact ones
    cantor = fd.cantor_measure()
    rep = fd.decay_exponent(cantor, fd.ExplicitFrequencies(tuple(3 ** k for k in range(1, 41))))
    top = abs(fd.ft(cantor, 1))
    assert [w.exp_lo for w in rep.windows] == [(3 ** k).bit_length() - 1 for k in range(1, 41)]
    assert {w.max_abs for w in rep.windows} == {top}
    for w in rep.windows:
        assert w.local_exponent == -2.0 * math.log2(top) / (w.exp_lo + 0.5)
    assert rep.liminf_proxy == rep.windows[-1].local_exponent


def test_decay_known_answer_lebesgue():
    # |ft| <= 1 / (pi xi) < 2^-(e + 0.5) on window e puts every local
    # exponent above 2; the largest excess measured is 3.65 / (e + 0.5)
    rep = fd.decay_exponent(LEB, fd.DyadicWindows(4, 40))
    assert len(rep.windows) == 37
    for w in rep.windows:
        assert 2.0 < w.local_exponent <= 2.0 + 4.0 / (w.exp_lo + 0.5), w
    assert rep.liminf_proxy == min(w.local_exponent for w in rep.windows[18:])


def test_decay_known_answer_smooth_cut():
    # The window's first 3 jets vanish at its edges, inside [0, 1], so |ft|
    # decays like xi^-4 and the local exponents tend to 2 (order + 1) = 8:
    # window maxima of about C 2^(-4e) put (8 - exponent)(e + 0.5) at
    # 4 + 2 log2 C, measured between 4.65 and 5.87 on the top half
    rep = fd.decay_exponent(fd.smooth_cut(LEB, (0.5, 0.3, 3)), fd.DyadicWindows(4, 50))
    assert len(rep.windows) == 47
    top = rep.windows[len(rep.windows) // 2:]
    for w in top:
        assert 4.0 <= (8.0 - w.local_exponent) * (w.exp_lo + 0.5) <= 7.0, w
    assert rep.liminf_proxy == min(w.local_exponent for w in top)


# ---------------------------------------------------------------------------
# energies


def test_riesz_constant_is_one_at_half():
    assert abs(fd.riesz_constant(1, 0.5) - 1.0) < 1e-15


def test_riesz_constant_rejects_bad_s():
    for s in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(fd.MeasureError):
            fd.riesz_constant(1, s)


def test_riesz_constant_refuses_s_below_its_floor():
    # Gamma(s/2) overflows below about 2^-1023: 5e-324 used to raise
    # ValueError and 1e-310 OverflowError
    for s in (5e-324, 1e-310, 2.0 ** -1021):
        with pytest.raises(fd.MeasureError, match="floor"):
            fd.riesz_constant(1, s)
    assert 0.0 < fd.riesz_constant(1, 2.0 ** -1020) < 1e-307


def test_energy_spatial_refuses_cells_of_width_zero():
    # a support of width 1e-320 over 4096 cells: h underflows to 0
    tiny = fd.AffineImage(LEB, 1e-320)
    with pytest.raises(fd.MeasureError, match="width 0"):
        fd.energy_spatial(tiny, 0.5)


@pytest.mark.parametrize("s", [0.5, 0.99])
def test_energy_spatial_refuses_a_density_past_the_float_range(s):
    # cells of width 2.4e-319 pass, but the density 1 / 1e-315 is inf: s =
    # 0.5 used to let a RuntimeWarning out and s = 0.99 an OverflowError
    with pytest.raises(fd.MeasureError, match="float range"):
        fd.energy_spatial(fd.AffineImage(LEB, 1e-315), s)


@pytest.mark.parametrize("scale", [1e-308, 1e-307])
def test_energy_spatial_refuses_a_cell_kernel_past_the_float_range(scale):
    # cells of width 2.4e-312: h^-0.99 used to end in an OverflowError at
    # scale 1e-308, and the kernel at 1e-307 in an overflow warning
    with pytest.raises(fd.MeasureError, match="the spatial energy leaves the float range"):
        fd.energy_spatial(fd.AffineImage(LEB, scale), 0.99)


def test_energy_routes_refuse_squared_transforms_past_the_float_range():
    # a mass of 1e160 squares past the float range on both routes, which
    # used to read "nan" (spatial) and warn; at 1e150 both stay finite
    heavy = fd.Mixture((LEB,), (1e160,))
    with pytest.raises(fd.MeasureError, match="the spatial energy leaves the float range"):
        fd.energy_spatial(heavy, 0.5)
    with pytest.raises(fd.MeasureError, match="the Fourier-side energy leaves the float range"):
        fd.energy_fourier(heavy, 0.5)
    light = fd.Mixture((LEB,), (1e150,))
    spatial, fourier = fd.energy_spatial(light, 0.5), fd.energy_fourier(light, 0.5)
    assert spatial.value == pytest.approx(fourier.value, rel=0.02)
    assert spatial.value == pytest.approx(1e300 * 8.0 / 3.0, rel=1e-6)


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


def test_energy_fourier_points_per_call(monkeypatch):
    points = []
    real_grid = dimension.ft_grid

    def spy(m, xs):
        points.append(np.size(xs))
        return real_grid(m, xs)

    monkeypatch.setattr(dimension, "ft_grid", spy)
    # [1, 4096] in 4096 panels (4095 unit panels, rounded up to an even
    # count): 8 nodes on each panel in one call, after the 64- and 32-node
    # rules on [0, 1]; the error term reads the same samples, so no node
    # serves it alone
    dimension.energy_fourier(LEB, 0.5)
    assert points == [64, 32, 8 * 4096]
    assert sum(points) == 32864
    # a support of diameter 2 halves the panel width
    points.clear()
    dimension.energy_fourier(fd.AffineImage(LEB, 2.0, 0.0), 0.5)
    assert points == [64, 32, 8 * 8190]


def test_pair_null_rule_is_read_only_and_exact_to_degree_13():
    null = dimension._pair_null_rule()
    assert null is dimension._pair_null_rule()
    assert not null.flags.writeable
    with pytest.raises(ValueError):
        null[0] = 0.0
    # the 16 nodes of a pair of panels, on [-1, 1]
    u = np.polynomial.legendre.leggauss(8)[0]
    nodes = np.concatenate((0.5 * (u - 1.0), 0.5 * (u + 1.0)))
    legendre = np.polynomial.legendre.legvander(nodes, 15).T
    assert np.max(np.abs(legendre[:14] @ null)) <= 2e-14
    # degree 14 is where it starts to read: not a rule that bounds nothing
    assert abs(legendre[14] @ null) > 1e-3


# float.hex of energy_fourier's value, pinned before its error term moved to
# a null rule on the band's own samples: that move leaves the value's bits
FOURIER_VALUE_BITS = [
    # the grid-scan deck's depth-8 digit product with two 2-digit blocks
    (fd.DigitProduct(8, (fd.DigitBlock(0, 2, "01"), fd.DigitBlock(3, 2, "10"))),
     {0.3: "0x1.be0c6da3d35b6p+0", 0.7: "0x1.9c6774a0fa705p+2"}),
    (fd.smooth_cut(fd.UniformOnIntervals(((0.1, 0.65),)), (0.4, 0.3, 3)),
     {0.3: "0x1.256a9f06d7657p-1", 0.7: "0x1.508b8aef9af5ep+1"}),
    (fd.UniformOnIntervals(((0.0, 0.3), (0.5, 1.0))),
     {0.3: "0x1.b40f98203b572p+0", 0.7: "0x1.68c4211b62416p+2"}),
]


@pytest.mark.parametrize("m, bits", FOURIER_VALUE_BITS,
                         ids=["digit-product", "window-cut", "two-intervals"])
def test_energy_fourier_values_keep_their_bits(m, bits):
    for s, want in bits.items():
        assert fd.energy_fourier(m, s).value.hex() == want, s


def test_energy_atoms_flag_infinity():
    atom = fd.Atomic(((0.5, 1.0),))
    mixed = fd.Mixture((LEB, atom), (0.5, 0.5))
    for m in (atom, mixed):
        assert fd.energy_spatial(m, 0.5).value == math.inf
        assert fd.energy_fourier(m, 0.5).value == math.inf
    d = _clean(asdict(fd.energy_spatial(atom, 0.5)))
    assert d["value"] == "inf"
    assert d["err_estimate"] == 0.0


def test_energy_validation():
    with pytest.raises(fd.MeasureError):
        fd.energy_spatial(LEB, 1.5)
    with pytest.raises(fd.MeasureError):
        fd.energy_spatial(LEB, 0.5, resolution=8)
    with pytest.raises(fd.MeasureError):
        fd.energy_fourier(LEB, 0.5, cutoff=2.0)
    for cutoff in (math.inf, math.nan):
        with pytest.raises(fd.MeasureError):
            fd.energy_fourier(LEB, 0.5, cutoff=cutoff)
    # 2^17 + 2 unit panels, one pair past the cap; a support of diameter 2
    # halves the panel width, so half that cutoff reaches the cap
    with pytest.raises(fd.MeasureError, match="cap"):
        fd.energy_fourier(LEB, 0.5, cutoff=dimension.FOURIER_MAX_PANELS + 3.0)
    with pytest.raises(fd.MeasureError, match="cap"):
        fd.energy_fourier(fd.AffineImage(LEB, 2.0, 0.0), 0.5,
                          cutoff=dimension.FOURIER_MAX_PANELS / 2 + 2.0)
    # a panel count past the float range is refused, not overflowed
    with pytest.raises(fd.MeasureError, match="cap"):
        fd.energy_fourier(fd.AffineImage(LEB, 1e300, 0.0), 0.5, cutoff=1e10)
    with pytest.raises(fd.MeasureError):
        fd.energy_spatial(LEB, 0.5, resolution=dimension.SPATIAL_MAX_RESOLUTION + 1)
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


@pytest.mark.parametrize("window", [(0.5, 0.4, 2.9), (0.5, 0.4, "2"), ("x", 0.4, 2),
                                    (0.5, None, 2), (0.5, math.inf, 2), (math.nan, 0.4, 2),
                                    (0.5, 0.3), 5, None])
def test_smooth_cut_checks_its_window(window):
    # a float order used to be truncated (2.9 built an order-2 cut), a
    # non-numeric centre raised a bare ValueError, and a window that is not
    # three values raised a ValueError or a TypeError
    with pytest.raises(fd.MeasureError):
        fd.smooth_cut(LEB, window)


def test_smooth_cut_caps_its_order():
    # the window's coefficients cancel past the cap: this cut read mass
    # 5.7e10 at order 100 for 0.018, and -3.7e22 at order 140 for 0.015
    assert fd.mass(fd.smooth_cut(LEB, (0.5, 0.1, WINDOW_MAX_ORDER))) == pytest.approx(
        0.1 * math.sqrt(math.pi) * math.gamma(21) / math.gamma(21.5), rel=1e-10)
    for order in (WINDOW_MAX_ORDER + 1, 100, 140):
        with pytest.raises(fd.MeasureError, match="above the cap"):
            fd.smooth_cut(LEB, (0.5, 0.1, order))
        with pytest.raises(fd.MeasureError, match="above the cap"):
            fd.measure_from_dict({"variant": "SmoothCutDensity", "inner": fd.measure_to_dict(LEB),
                                  "center": 0.5, "radius": 0.1, "order": order})


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


def test_smooth_cut_mixture_keeps_components_without_density():
    # The window meets the Cantor half, which has no explicit density: the
    # cut fails as it does for the Cantor measure alone, instead of dropping
    # that half and returning the cut of the other one.
    window = (0.5, 0.4, 2)
    for m in (fd.cantor_measure(), fd.Mixture((fd.cantor_measure(), LEB), (0.5, 0.5))):
        with pytest.raises(fd.MeasureError, match="no explicit density"):
            fd.smooth_cut(m, window)


def test_smooth_cut_mixture_drops_only_zero_cuts():
    # Atoms or intervals in the support hull where the window vanishes cut
    # to zero too, like a component outside the window.
    atoms = fd.Atomic(((0.05, 1.0), (0.95, 1.0)))
    gap = fd.UniformOnIntervals(((0.0, 0.05), (0.95, 1.0)))
    far = fd.AffineImage(LEB, 0.25, 4.0)
    window = (0.5, 0.4, 2)
    cut = fd.smooth_cut(fd.Mixture((atoms, gap, LEB, far), (0.2, 0.2, 0.4, 0.2)), window)
    assert cut == fd.Mixture((fd.smooth_cut(LEB, window),), (0.4,))
    assert fd.mass(cut) == pytest.approx(0.4 * 16.0 * 0.4 / 15.0, abs=1e-12)
    for m in (gap, fd.Mixture((atoms, gap, far), (0.5, 0.25, 0.25))):
        with pytest.raises(fd.MeasureError, match="zero measure"):
            fd.smooth_cut(m, window)


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
    assert asdict(wit)["found"] is False


def test_lower_bound_stops_at_the_first_chunk_with_a_witness(monkeypatch):
    sizes = []
    real = dimension.ft_grid

    def counted(m, xis):
        sizes.append(np.size(xis))
        return real(m, xis)

    monkeypatch.setattr(dimension, "ft_grid", counted)
    wit = fd.lower_bound_search(fd.Atomic(((1.0, 1.0),)), 1.0, 10 ** 6)
    assert wit.found and wit.j == 1
    assert sum(sizes) <= 16


def _brute_force_witness(m, eps, j_max):
    bound = math.pi * eps / (8.0 + 2.0 * math.pi * eps)
    vals = np.abs(fd.ft_grid(m, np.arange(1, j_max + 1, dtype=float)))
    hit = int(np.nonzero(vals >= bound)[0][0])
    return hit + 1, float(vals[hit])


@pytest.mark.parametrize("n", [16, 17, 48, 49, 200])
def test_lower_bound_equals_one_brute_force_grid_across_chunk_edges(n):
    # equal atoms at k/n cancel at every j below n and add up at j = n
    m = fd.Atomic(tuple((k / n, 1.0 / n) for k in range(1, n + 1)))
    wit = fd.lower_bound_search(m, 1.0 / n, 500)
    assert wit.found and wit.j == n == wit.searched_up_to
    j, value = _brute_force_witness(m, 1.0 / n, 500)
    assert (wit.j, np.float64(wit.value).tobytes()) == (j, np.float64(value).tobytes())


def test_lower_bound_miss_between_chunk_edges():
    m = fd.Atomic(tuple((k / 64, 1.0 / 64) for k in range(1, 65)))
    wit = fd.lower_bound_search(m, 1.0 / 64, 30)
    assert not wit.found
    assert wit.searched_up_to == 30


# the last three are numbers out of range: eps must lie in (0, 1], j_max >= 1
@pytest.mark.parametrize("eps, j_max", [(True, 100), ("0.5", 100),
                                        (1.0, True), (1.0, 10.5), (1.0, "10"),
                                        (0.0, 100), (1.5, 100), (1.0, 0)])
def test_lower_bound_refuses_what_is_not_a_number(eps, j_max):
    with pytest.raises(fd.MeasureError):
        fd.lower_bound_search(fd.Atomic(((1.0, 1.0),)), eps, j_max)


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


def test_translation_identity_failure_raises(monkeypatch):
    # a translate phase of -1 cancels the pair, against 2 |cos(pi t xi)| > 0
    monkeypatch.setattr(dimension, "phase_unit", lambda xi, t: -1.0 + 0.0j)
    with pytest.raises(ArithmeticError, match="translation identity violated"):
        fd.translation_pair_transform(LEB, 0.1, 0.3)


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
    # the scale is a real number: the 1x1-matrix form went with the matrix
    # path, as AffineImage refuses [[2.0]]
    with pytest.raises(fd.MeasureError):
        fd.matrix_image_experiment(LEB, ((2.0,),), SCHED)


def test_matrix_image_unit_modulus_rejected():
    for scale in (1.0, -1.0, ((0.0, 1.0), (-1.0, 0.0))):
        with pytest.raises(fd.MeasureError):
            fd.matrix_image_experiment(LEB, scale, SCHED)


def test_matrix_image_true_matrices_unsupported():
    with pytest.raises(fd.MeasureError):
        fd.matrix_image_experiment(LEB, ((2.0, 0.0), (0.0, 3.0)), SCHED)

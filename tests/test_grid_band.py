"""The grid band: where ft_grid takes a variant's float rule, and a
differential gate of that rule against ft at tiny frequencies.

Measure._grid_guard gives each measure a band (floor, ceiling); ft_grid
takes the float rule at 0 and within the band, and ft at every other point.
The gate draws measure trees up to two deep over all nine variants, with
affine scales out to 2^+-120, and frequencies from the smallest subnormal to
2^-880 and on both sides of each tree's floor.  Below the floor the float
rules lose their relative accuracy to gradual underflow; within it they
must match ft.
"""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fourierdim as fd
from fourierdim.measures import GRID_FLOOR, GRID_GUARD
from fourierdim.phase import _eplus_vec, _unit_turns

LEB = fd.UniformOnIntervals(((0.0, 1.0),))
TRIG = fd.TrigDensity(((0.5, 3),))
# the affine image whose inner frequency is subnormal at 2^-950 and 2^-940
# under a flat floor: the grid read inf - inf j there
AFFINE_TRIG = fd.AffineImage(TRIG, 2.0 ** -100)


# ---------------------------------------------------------------------------
# the composed bands


def test_primitive_band():
    for m in (LEB, TRIG, fd.cantor_measure(), fd.DigitProduct(6), fd.Atomic(((0.5, 1.0),))):
        assert m._grid_guard() == (GRID_FLOOR, GRID_GUARD), m
    assert GRID_FLOOR == 2.0 ** -960


def test_mixture_and_convolution_take_the_meet_of_their_parts():
    # largest floor, from the dilated part; smallest ceiling, from the shrunk one
    shrunk = fd.AffineImage(LEB, 2.0 ** 20)
    dilated = fd.AffineImage(LEB, 2.0 ** -30)
    assert shrunk._grid_guard() == (2.0 ** -980, 2.0 ** 40)
    assert dilated._grid_guard() == (2.0 ** -930, GRID_GUARD)
    for m in (fd.Mixture((shrunk, dilated, TRIG), (0.2, 0.3, 0.5)),
              fd.Convolution((dilated, TRIG, shrunk))):
        assert m._grid_guard() == (2.0 ** -930, 2.0 ** 40), m


def test_affine_band_runs_the_inner_band_at_xi_times_scale():
    assert AFFINE_TRIG._grid_guard() == (2.0 ** -860, GRID_GUARD)
    assert fd.AffineImage(TRIG, 2.0 ** 50)._grid_guard() == (2.0 ** -1010, 2.0 ** 10)
    # nested: the scales multiply; the floor may leave the float range
    twice = fd.AffineImage(fd.AffineImage(LEB, -2.0 ** 60), 2.0 ** 60)
    assert twice._grid_guard() == (0.0, 2.0 ** -60)
    # the offset is a position: it bounds the ceiling only
    assert fd.AffineImage(LEB, 2.0 ** -100, 2.0 ** 990)._grid_guard() == (2.0 ** -860, 2.0 ** 10)


def test_reach_past_the_split_takes_ft_at_every_nonzero_xi():
    for m in (fd.Atomic(((1e300, 1.0),)), fd.Atomic(((-1.7e301, 1.0), (0.5, 1.0))),
              fd.UniformOnIntervals(((-1e300, 1e300),)), fd.AffineImage(LEB, 1.0, 1e300),
              fd.Mixture((LEB, fd.Atomic(((1e300, 1.0),))), (0.5, 0.5))):
        assert m._grid_guard()[1] == 0.0, m
        xs = [1e-300, -0.3, 2.5]
        assert [s.method for s in fd.ft_batch(m, fd.ExplicitFrequencies(xs))] == ["exact"] * 3
        assert fd.ft_grid(m, xs).tobytes() == np.array([fd.ft(m, x) for x in xs]).tobytes()
        # 0 stays on the grid: it is wiener_average's first node
        assert fd.ft_grid(m, [0.0])[0] == fd.mass(m)


def test_positions_past_dekkers_split_take_ft():
    # the split of 1.7e301 overflows, and the grid's product error used to be
    # zeroed: 5.8e-3 off ft at 7.77e-289, on a value of modulus 1
    m = fd.Atomic(((1.7e301, 1.0),))
    xs = [1.2345e-290, 3.3e-295, 7.77e-289]
    assert fd.ft_grid(m, xs).tobytes() == np.array([fd.ft(m, x) for x in xs]).tobytes()


def test_batch_method_reads_the_band():
    # every non-integer float goes to ft_grid; the method says which rule took it
    freqs = (2.0 ** -1000, -(2.0 ** -960), 2.0 ** -959 * 3, 0.75, 3.0, 5)
    got = [(s.xi, s.method) for s in fd.ft_batch(TRIG, fd.ExplicitFrequencies(freqs))]
    assert got == [(2.0 ** -1000, "exact"), (-(2.0 ** -960), "grid"), (2.0 ** -959 * 3, "grid"),
                   (0.75, "grid"), (3.0, "exact"), (5, "exact")]


def test_stability_parts_equal_their_own_decay_reports():
    # the parts' bands differ, and each part takes its own
    m1 = fd.AffineImage(fd.cantor_measure(), 2.0 ** 48)
    m2 = fd.Mixture((LEB, TRIG), (0.5, 0.5))
    sched = fd.merge_schedules(fd.DyadicWindows(-4, 16, 8), fd.DyadicWindows(-1000, -950, 1))
    r1, r2, _ = fd.stability_experiment(m1, m2, sched)
    assert r1 == fd.decay_exponent(m1, sched)
    assert r2 == fd.decay_exponent(m2, sched)


# ---------------------------------------------------------------------------
# differential gate at tiny frequencies


def _float(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def atomics(draw):
    n = draw(st.integers(1, 3))
    return fd.Atomic(tuple((draw(_float(-8.0, 8.0)), draw(_float(0.1, 1.0))) for _ in range(n)))


@st.composite
def uniforms(draw):
    ends = sorted(draw(st.lists(_float(-4.0, 4.0), min_size=2, max_size=4, unique=True)))
    if len(ends) == 3:
        ends = ends[:2]
    intervals = tuple(zip(ends[::2], ends[1::2]))
    # a total length such as 5e-324, whose density 1 / length overflows, is refused
    assume(math.isfinite(1.0 / math.fsum(b - a for a, b in intervals)))
    return fd.UniformOnIntervals(intervals)


@st.composite
def trigs(draw):
    n = draw(st.integers(1, 3))
    return fd.TrigDensity(tuple((draw(_float(-1.0 / n, 1.0 / n)), draw(st.integers(1, 64)))
                                for _ in range(n)))


@st.composite
def self_similars(draw):
    base = draw(st.integers(2, 7))
    return fd.SelfSimilarDigit(base, tuple(draw(st.sets(st.integers(0, base - 1), min_size=1))))


@st.composite
def digit_products(draw):
    depth = draw(st.integers(1, 12))
    length = draw(st.integers(1, depth))
    offset = draw(st.integers(0, depth - length))
    pattern = format(draw(st.integers(0, (1 << length) - 1)), f"0{length}b")
    blocks = (fd.DigitBlock(offset, length, pattern),) if draw(st.booleans()) else ()
    return fd.DigitProduct(depth, blocks)


@st.composite
def smooth_cuts(draw):
    # a window centred in the support of an interval or a trig density
    # always meets it
    a = draw(_float(-4.0, 4.0))
    b = a + draw(_float(0.1, 4.0))
    inner = draw(st.one_of(st.just(fd.UniformOnIntervals(((a, b),))), trigs()))
    lo, hi = fd.support_interval(inner)
    return fd.SmoothCutDensity(inner, 0.5 * (lo + hi), (hi - lo) * draw(_float(0.2, 1.0)),
                               draw(st.integers(2, 4)))


PRIMITIVES = st.one_of(atomics(), uniforms(), trigs(), self_similars(), digit_products(),
                       smooth_cuts())
SCALES = st.builds(lambda s, f, e: s * f * 2.0 ** e, st.sampled_from((1.0, -1.0)),
                   _float(1.0, 2.0), st.integers(-120, 120))


def trees(depth):
    if depth == 0:
        return PRIMITIVES
    sub = trees(depth - 1)
    return st.one_of(
        PRIMITIVES,
        st.builds(lambda cs, ws: fd.Mixture(tuple(cs), tuple(ws[:len(cs)])),
                  st.lists(sub, min_size=1, max_size=3), st.lists(_float(0.1, 2.0), min_size=3,
                                                                  max_size=3)),
        st.builds(fd.AffineImage, sub, SCALES, st.one_of(st.just(0.0), _float(-2.0, 2.0))),
        st.builds(lambda cs: fd.Convolution(tuple(cs)), st.lists(sub, min_size=2, max_size=2)),
    )


@st.composite
def trees_and_frequencies(draw):
    m = draw(trees(2))
    floor = m._grid_guard()[0]
    near_floor = [floor * 2.0 ** k for k in (-2, -1, 1, 2)] + [
        math.nextafter(floor, 0.0), floor, math.nextafter(floor, math.inf)]
    tiny = _float(5e-324, 2.0 ** -880)
    near = st.sampled_from([x for x in near_floor if x > 0.0]) if floor > 0.0 else tiny
    mags = draw(st.lists(st.one_of(tiny, near), min_size=1, max_size=4))
    return m, [draw(st.sampled_from((1.0, -1.0))) * x for x in mags]


@given(trees_and_frequencies())
@example((fd.UniformOnIntervals(((-0.6974, 0.6230),)), [-4.2e-321]))
@example((TRIG, [5e-324]))
@example((AFFINE_TRIG, [2.0 ** -950, 2.0 ** -940]))
# xi times the cell length is subnormal: the cell's sin(pi g) / (pi g) read 0.9964
@example((fd.UniformOnIntervals(((0.0, 2.858357505338531e-56),)), [6.178112798024377e-266]))
@settings(max_examples=300, deadline=None)
def test_grid_matches_ft_at_tiny_frequencies(case):
    m, xs = case
    got = fd.ft_grid(m, np.array(xs))
    total = fd.mass(m)
    for xi, g in zip(xs, got.tolist()):
        want = fd.ft(m, xi)
        assert math.isfinite(g.real) and math.isfinite(g.imag), (m, xi, g)
        assert abs(g - want) <= 1e-12 * abs(want) + 1e-13 * total, (m, xi, g, want)


def test_cell_quotient_is_exactly_one_below_2_to_the_minus_30():
    # sin(pi g) / (pi g) = 1 - (pi g)^2 / 6 + ... rounds to 1 for |g| < 2^-30,
    # and the unit integral takes it as 1 there without dividing.  From
    # 2^-1021 up, where 0.5 g is exact, the division gives exactly 1 as well,
    # so no value there moved when it stopped being formed; in the lowest
    # normal binade and below, 0.5 g rounds and the division read a few u
    # off 1.
    rng = np.random.default_rng(2)
    mags = np.ldexp(rng.uniform(1.0, 2.0, 20000), rng.integers(-1074, -30, 20000))
    g = np.concatenate([mags, -mags, [2.0 ** -1021, 2.0 ** -31, math.nextafter(2.0 ** -30, 0.0)]])
    turns = _unit_turns(0.5 * g)
    assert np.array_equal(_eplus_vec(g), turns)
    exact = np.abs(g) >= 2.0 ** -1021
    assert np.all(turns.imag[exact] / (math.pi * g[exact]) == 1.0)

"""The exact scalar rules reduce each phase once; their values must not move.

TrigDensity shares one half turn per parity of the term frequency,
SelfSimilarDigit reduces the numerator once per level, DigitProduct keeps its
block plan and reads its supports from it, SmoothCutDensity keeps its product
pieces on the measure and sums their scalar transforms in ft and their grid
transforms in mass, and stability_experiment evaluates each part once.  The references below are
straightforward per-term, per-digit and per-call versions of the same closed
forms; every comparison is on the bits of the result, signed zeros included.
"""

import cmath
import math
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fourierdim as fd
from fourierdim import measures, transform
from fourierdim.density import cut_mass, decompose_density, piece_ft, window_piece
from fourierdim.phase import GRID_CHUNK, _product_turns, _ratio, _split, _unit_turns


def _bits(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


# ---------------------------------------------------------------------------
# per-term references


def _ref_phase_frac(num, den):
    return cmath.exp(-2j * math.pi * ((num % den) / den))


def _ref_eplus_frac(num, den):
    if num == 0:
        return 1.0 + 0.0j
    if num % den == 0:
        return 0.0j
    shift = num.bit_length() - den.bit_length()
    if shift > 1020:
        return 0.0j
    if shift < -60:
        return 1.0 + 0.0j
    rr = num % (2 * den)
    if rr > den:
        rr -= 2 * den
    # the sine and cosine at the nearer of r and +-1 - r
    flip = 2 * abs(rr) > den
    if flip:
        rr = (den if rr > 0 else -den) - rr
    angle = math.pi * (rr / den)
    c, s = math.cos(angle), math.sin(angle)
    g = num / den
    return complex(-c if flip else c, s) * (s / (math.pi * g))


def _ref_trig(m, xi):
    p, q = _ratio(xi)
    out = _ref_eplus_frac(-p, q)
    for c, f in m.terms:
        plus = _ref_eplus_frac(f * q - p, q)
        minus = _ref_eplus_frac(-(f * q + p), q)
        out += c * (plus - minus) / 2j
    return out


def _ref_self_similar(m, xi):
    # level n is kept while |xi| / base^(n - 1) >= 2^-27, and level 1
    # always; the levels past the last kept one, N, become their mean phase
    # e(-|xi| mu / base^N) with mu = (mean digit) / (base - 1)
    p, q = _ratio(abs(xi))
    out = 1.0 + 0.0j
    den = q
    inv = 1.0 / len(m.allowed_digits)
    while den == q or p * 2 ** 27 >= den:
        den *= m.base
        s = 0.0 + 0.0j
        for d in m.allowed_digits:
            s += _ref_phase_frac(p * d, den)
        out *= s * inv
    out *= _ref_phase_frac(p * sum(m.allowed_digits),
                           den * len(m.allowed_digits) * (m.base - 1))
    return out.conjugate() if xi < 0 else out


def _ref_self_similar_grid(m, xs):
    # one level at a time, one digit at a time, each position d / base^n a
    # double-double from Fractions (the float rule before its level table)
    depths = 1 + np.searchsorted(measures._level_powers(m.base),
                                 np.abs(xs) * 2.0 ** 27, side="right")
    deepest = int(depths.max())
    parts = _split(xs)
    digits = [d for d in m.allowed_digits if d]
    start = 1.0 if m.allowed_digits[0] == 0 else 0.0
    inv = 1.0 / len(m.allowed_digits)
    out = np.ones(xs.shape, dtype=complex)
    den = 1
    for n in range(1, deepest + 1):
        den *= m.base
        level = np.full(xs.shape, complex(start))
        for d in digits:
            pos = Fraction(d, den)
            hi = float(pos)
            level += _unit_turns(*_product_turns(xs, -hi, parts, -float(pos - Fraction(hi))))
        level.real *= inv
        level.imag *= inv
        out = out * np.where(depths >= n, level, 1.0)
    mu = Fraction(sum(digits), len(m.allowed_digits) * (m.base - 1))
    steps = [float(mu / m.base ** n) for n in range(deepest + 1)]
    return out * _unit_turns(-xs * np.take(steps, depths))


def _ref_digit_product(m, xi):
    p, q = _ratio(xi)
    pre = _ref_eplus_frac(-p, q << m.depth)
    blocked = {b.offset: b for b in m.blocks}
    factors = 1.0 + 0.0j
    pos = 1
    while pos <= m.depth:
        b = blocked.get(pos - 1)
        if b is None:
            factors *= 1.0 + _ref_phase_frac(p, q << pos)
            pos += 1
            continue
        block_prod = 1.0 + 0.0j
        for r in range(1, b.length + 1):
            block_prod *= 1.0 + _ref_phase_frac(p, q << (b.offset + r))
        v = int(b.forbidden_pattern, 2)
        block_prod -= _ref_phase_frac(p * v, q << (b.offset + b.length))
        factors *= block_prod
        pos = b.offset + b.length + 1
    return pre * factors / m.cylinder_count()


def _ref_cut_ft(cut, xi):
    # the per-piece scalar rule: each piece's transform at the exact p / q,
    # summed from 0j, conjugated below 0; cut_mass at xi = 0
    p, q = _ratio(xi)
    if p == 0:
        return complex(cut_mass(cut))
    out = 0.0j
    for piece in decompose_density(cut):
        out += piece_ft(piece, abs(p), q)
    return out.conjugate() if p < 0 else out


# ---------------------------------------------------------------------------
# strategies

_SIGN = st.sampled_from((1, -1))
FLOATS = st.builds(lambda x, s: s * x,
                   st.floats(min_value=2.0 ** -30, max_value=2.0 ** 60,
                             allow_nan=False, allow_infinity=False), _SIGN)
INTS = st.integers(min_value=-(2 ** 4096), max_value=2 ** 4096)
LACUNARY_INTS = st.builds(lambda e, j, s: s * j << e,
                          st.integers(0, 4096), st.integers(1, 7), _SIGN)
FREQS = st.one_of(FLOATS, INTS, LACUNARY_INTS)


@st.composite
def lacunary_and_xi(draw):
    """A lacunary density and a frequency on, next to or between its spikes."""
    depth = draw(st.integers(1, 36))
    m = fd.lacunary_trig_measure(draw(_SIGN), depth)
    f = 2 ** (draw(st.integers(1, depth)) ** 2)
    near = [f + draw(st.integers(-3, 3))]
    if f < 2 ** 52:
        near.append(f + draw(st.floats(-1.0, 1.0, allow_nan=False)))
    return m, draw(st.one_of(st.sampled_from(near), FREQS))


@st.composite
def trig_densities(draw):
    n = draw(st.integers(1, 6))
    amps = draw(st.lists(st.floats(-1.0 / n, 1.0 / n), min_size=n, max_size=n))
    freqs = draw(st.lists(st.one_of(st.integers(1, 64), st.integers(1, 2 ** 1100)),
                          min_size=n, max_size=n))
    return fd.TrigDensity(tuple(zip(amps, freqs)))


@st.composite
def self_similar_measures(draw):
    base = draw(st.integers(2, 7))
    digits = draw(st.sets(st.integers(0, base - 1), min_size=1))
    return fd.SelfSimilarDigit(base, tuple(digits))


@st.composite
def digit_products(draw, max_depth=24):
    depth = draw(st.integers(1, max_depth))
    blocks = []
    pos = 0
    while pos < depth:
        pos += draw(st.integers(0, 3))
        length = draw(st.integers(1, 4))
        if pos + length > depth or draw(st.booleans()):
            break
        pattern = format(draw(st.integers(0, (1 << length) - 1)), f"0{length}b")
        blocks.append(fd.DigitBlock(pos, length, pattern))
        pos += length
    return fd.DigitProduct(depth, tuple(blocks))


# ---------------------------------------------------------------------------
# bit identity of the shared reductions


@given(lacunary_and_xi())
@settings(max_examples=300, deadline=None)
def test_trig_shared_half_turns_match_per_term_rule_on_lacunary(case):
    m, xi = case
    assert _bits(m._ft(*_ratio(xi))) == _bits(_ref_trig(m, xi))


@given(trig_densities(), FREQS)
@settings(max_examples=300, deadline=None)
def test_trig_shared_half_turns_match_per_term_rule(m, xi):
    assert _bits(m._ft(*_ratio(xi))) == _bits(_ref_trig(m, xi))


@given(self_similar_measures(),
       st.one_of(FLOATS, st.integers(-(2 ** 1200), 2 ** 1200), LACUNARY_INTS))
@settings(max_examples=150, deadline=None)
def test_self_similar_level_residues_match_per_digit_rule(m, xi):
    assert _bits(m._ft_signed(*_ratio(xi))) == _bits(_ref_self_similar(m, xi))


@pytest.mark.parametrize("digits", [(0, 2), (1, 2), (0,), (2,), (0, 1, 3, 4)])
def test_self_similar_level_residues_at_4096_bits(digits):
    m = fd.SelfSimilarDigit(5, digits)
    for xi in (2 ** 4096, -(3 ** 2500), 2 ** 4095 + 12345, 5 ** 1700):
        assert _bits(m._ft_signed(*_ratio(xi))) == _bits(_ref_self_similar(m, xi)), xi


# Frequencies whose shallow levels have residue 0, which the rule skips
# where |D| (1/|D|) rounds to 1.  For 49 digits it does not (49 (1/49) < 1),
# so those levels must stay.
@pytest.mark.parametrize("m,freqs", [
    (fd.cantor_measure(), [3 ** k for k in range(0, 700, 23)]
     + [Fraction(3 ** k, 4) for k in range(1, 60, 7)] + [-(3 ** 40) * 7, 3.0 ** 30]),
    (fd.SelfSimilarDigit(4, (0, 1, 3)), [(2 ** e) * j for e in range(0, 400, 13)
                                        for j in (1, 3, 5, 6)]),
    (fd.SelfSimilarDigit(50, tuple(range(49))), [50 ** e * j for e in range(0, 200, 9)
                                                 for j in (1, 7)] + [Fraction(50 ** 9, 3)]),
    (fd.SelfSimilarDigit(60, tuple(range(1, 50))), [60 ** e for e in range(0, 120, 11)]),
], ids=("cantor-3k", "base4-2e", "49-digits", "49-digits-no-0"))
def test_self_similar_levels_past_a_zero_residue_match_per_digit_rule(m, freqs):
    for xi in freqs:
        assert _bits(m._ft_signed(*_ratio(xi))) == _bits(_ref_self_similar(m, xi)), xi


# sizes 1 and 2, a 225-point schedule, either side of a block of 7, 6, 2
# and 1 rows (8192 // N), and either side of the grid chunk
GRID_SIZES = (1, 2, 225, 1170, 1171, 1365, 1366, 4096, 4097, 8192, 8193)


def _grid_points(n: int, seed: int) -> np.ndarray:
    # magnitudes from the grid band's floor to its ceiling, both signs, a
    # few zeros, integers and half-integers
    rng = np.random.default_rng(seed)
    kind = rng.integers(0, 8, n)
    xs = 2.0 ** rng.uniform(-960.0, 60.0, n)
    xs[kind == 0] = np.rint(2.0 ** rng.uniform(0.0, 60.0, np.sum(kind == 0)))
    xs[kind == 1] = np.floor(2.0 ** rng.uniform(0.0, 51.0, np.sum(kind == 1))) + 0.5
    xs[kind == 2] = rng.uniform(0.0, 64.0, np.sum(kind == 2))
    xs[(kind == 3) & (rng.random(n) < 0.1)] = 0.0
    return xs * rng.choice((-1.0, 1.0), n)


@given(self_similar_measures(), st.sampled_from(GRID_SIZES), st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_self_similar_grid_blocks_match_per_level_rule(m, n, seed):
    xs = _grid_points(n, seed)
    assert m._grid(xs).tobytes() == _ref_self_similar_grid(m, xs).tobytes()


def test_self_similar_grid_takes_blocks_of_rows_and_no_fraction(monkeypatch):
    # one _unit_turns call per block of (level, digit) rows and one for the
    # tail; the level table is built from ints, and _grid forms no Fraction
    def no_fraction(*args, **kwargs):
        raise AssertionError("Fraction formed")

    calls = []

    def counting(*args):
        calls.append(np.shape(args[0]))
        return _unit_turns(*args)

    monkeypatch.setattr(Fraction, "__new__", no_fraction)
    monkeypatch.setattr(measures, "_unit_turns", counting)
    measures._level_table.cache_clear()
    results = []
    for m, digits in ((fd.cantor_measure(), 1), (fd.SelfSimilarDigit(5, (0, 1, 3, 4)), 3),
                      (fd.SelfSimilarDigit(7, range(7)), 6)):
        for xs in (2.0 ** np.linspace(2.0, 16.0, 225) + 0.375, np.linspace(-900.0, 900.0, 8192),
                   np.array([2.0 ** 59 + 2048.0])):
            calls.clear()
            results.append((m, xs, m._grid(xs)))
            depths = 1 + np.searchsorted(measures._level_powers(m.base),
                                         np.abs(xs) * 2.0 ** 27, side="right")
            rows = int(depths.max()) * digits
            assert len(calls) <= 2 * math.ceil(rows * xs.size / max(xs.size, GRID_CHUNK)) + 1
            assert all(math.prod(c) <= max(xs.size, GRID_CHUNK) for c in calls)
    monkeypatch.undo()
    for m, xs, got in results:
        assert got.tobytes() == _ref_self_similar_grid(m, xs).tobytes()


def test_self_similar_grid_temporaries_stay_within_a_chunk():
    # 999 nonzero digits over 8192 points: one row per block, so no
    # temporary passes GRID_CHUNK cells; a block of one whole level would
    # hold 999 * 8192 of them (131 MB as complex)
    m = fd.SelfSimilarDigit(1024, range(1000))
    xs = np.linspace(-1.0, 1.0, 8192)
    m._grid(xs[:1])  # builds the level table, which stays cached
    tracemalloc.start()
    try:
        m._grid(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * GRID_CHUNK * 16, peak  # sixteen complex chunks, 2 MiB


@given(digit_products(), FREQS)
@settings(max_examples=300, deadline=None)
def test_digit_product_plan_matches_per_call_rule(m, xi):
    assert _bits(m._ft(*_ratio(xi))) == _bits(_ref_digit_product(m, xi))


@given(digit_products())
@settings(max_examples=100, deadline=None)
def test_digit_supports_build_no_second_product(m):
    # _support and _wrapped_support walk the measure's own factor plan:
    # neither builds a DigitProduct or a DigitBlock
    built = []
    originals = {cls: cls.__post_init__ for cls in (fd.DigitProduct, fd.DigitBlock)}
    for cls, original in originals.items():
        def counting(self, original=original):
            built.append(type(self).__name__)
            original(self)

        cls.__post_init__ = counting
    try:
        got = [m._support()] + [m._wrapped_support(1 << l) for l in range(m.depth + 2)]
    finally:
        for cls, original in originals.items():
            cls.__post_init__ = original
    assert built == []
    assert got[0] == got[1] and all(lo <= hi for lo, hi in got)


# ---------------------------------------------------------------------------
# cached window-cut pieces


@st.composite
def uniforms(draw):
    # one to three intervals from a start, widths and gaps
    a = draw(st.floats(-0.5, 0.5))
    intervals = []
    for _ in range(draw(st.integers(1, 3))):
        b = a + draw(st.floats(0.01, 0.5))
        intervals.append((a, b))
        a = b + draw(st.floats(0.0, 0.3))
    return fd.UniformOnIntervals(tuple(intervals))


@st.composite
def small_trig_densities(draw):
    # term frequencies below 2^53, where a trig density has pieces
    n = draw(st.integers(1, 4))
    amps = draw(st.lists(st.floats(-1.0 / n, 1.0 / n), min_size=n, max_size=n))
    freqs = draw(st.lists(st.integers(1, 2 ** 40), min_size=n, max_size=n))
    return fd.TrigDensity(tuple(zip(amps, freqs)))


CUT_INNERS = st.one_of(uniforms(), small_trig_densities(), digit_products(max_depth=8))


@st.composite
def window_cuts(draw):
    """A window cut of a uniform, trig, digit-product or mixture inner."""
    inner = draw(st.one_of(CUT_INNERS, st.builds(
        lambda parts, ws: fd.Mixture(tuple(parts), tuple(ws[:len(parts)])),
        st.lists(CUT_INNERS, min_size=1, max_size=3),
        st.lists(st.floats(0.01, 4.0), min_size=3, max_size=3))))
    cut = fd.SmoothCutDensity(inner, draw(st.floats(-0.2, 1.2)), draw(st.floats(0.01, 0.8)),
                              draw(st.integers(2, 8)))
    assume(cut._pieces)
    return cut


# floats, ints past 2^53 (some past 2^1020, where every term underflows)
# and Fractions
CUT_FREQS = st.one_of(
    FLOATS,
    st.builds(lambda e, j, s: s * ((1 << e) + j), st.integers(53, 1100),
              st.integers(-3, 3), _SIGN),
    st.fractions(min_value=-(2 ** 60), max_value=2 ** 60, max_denominator=10 ** 6),
)


@given(window_cuts(), st.lists(CUT_FREQS, min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_cut_transform_and_mass_match_per_piece_rule(cut, freqs):
    # ft is bit for bit the per-piece scalar sum, and mass the grid rule on
    # a 0-d array, which is cut_mass
    for xi in freqs:
        assert _bits(fd.ft(cut, xi)) == _bits(_ref_cut_ft(cut, xi)), xi
    assert struct.pack("<d", fd.mass(cut)) == struct.pack("<d", cut_mass(cut))
    assert type(fd.mass(cut)) is float


def test_cut_transform_takes_the_scalar_rule_and_mass_the_grid_rule(monkeypatch):
    cut = fd.smooth_cut(fd.TrigDensity(((0.5, 7),)), (0.37, 0.3, 2))
    shapes = []
    original = fd.SmoothCutDensity._grid

    def recording(self, xs):
        shapes.append(xs.shape)
        return original(self, xs)

    monkeypatch.setattr(fd.SmoothCutDensity, "_grid", recording)
    for xi in (7.25, -(2 ** 70) - 1, 2 ** 1030, Fraction(1, 3)):
        assert fd.ft(cut, xi) == _ref_cut_ft(cut, xi)
    assert shapes == []
    fd.mass(cut)
    assert shapes == [()]


def _fresh_pieces(cut):
    wpiece = window_piece(cut.center, cut.radius, cut.order)
    out = [wpiece.multiply(p) for p in decompose_density(cut.inner)]
    return tuple(p for p in out if p is not None)


@pytest.mark.parametrize("inner,window", [
    (fd.UniformOnIntervals(((0.0, 0.3), (0.5, 1.0))), (0.4, 0.35, 3)),
    (fd.TrigDensity(((0.5, 31), (-0.25, 40))), (0.45, 0.4, 2)),
    (fd.DigitProduct(6, (fd.DigitBlock(1, 2, "01"),)), (0.6, 0.3, 4)),
])
def test_cut_pieces_are_built_once_and_stay_fixed(inner, window):
    cut = fd.smooth_cut(inner, window)
    fresh = _fresh_pieces(cut)
    pieces = decompose_density(cut)
    assert pieces == fresh
    fd.ft(cut, 7.25)
    fd.ft(cut, 2 ** 40)
    fd.ft_grid(cut, np.linspace(-50.0, 50.0, 101))
    fd.mass(cut)
    assert decompose_density(cut) is pieces
    assert pieces == fresh
    # the cached pieces do not enter equality, hashing or the description
    twin = fd.SmoothCutDensity(inner, *window)
    assert twin == cut and hash(twin) == hash(cut)
    assert fd.measure_to_dict(twin) == fd.measure_to_dict(cut)


def test_cut_that_misses_every_piece_raises_on_every_call():
    # the window meets the support hull but neither interval
    cut = fd.SmoothCutDensity(fd.UniformOnIntervals(((0.0, 0.2), (0.8, 1.0))), 0.5, 0.1, 2)
    for _ in range(2):
        with pytest.raises(fd.MeasureError):
            fd.ft(cut, 3.5)
        with pytest.raises(fd.MeasureError):
            fd.mass(cut)


# ---------------------------------------------------------------------------
# shared stability samples


LEB = fd.UniformOnIntervals(((0.0, 1.0),))
SCHED = fd.DyadicWindows(2, 12, 4)
SIGNED = fd.ExplicitFrequencies(tuple(s * 2.0 ** (e + 0.25)
                                      for e in range(10) for s in (1, -1)) + (-3, 5, -(2 ** 70)))

PAIRS = [
    (LEB, fd.cantor_measure(), SCHED),
    (fd.lacunary_trig_measure(1, 6), fd.lacunary_trig_measure(-1, 6),
     fd.merge_schedules(SCHED, fd.Lacunary(tuple(k * k for k in range(1, 7))))),
    (fd.DigitProduct(8, (fd.DigitBlock(2, 3, "000"),)),
     fd.smooth_cut(LEB, (0.5, 0.4, 2)), SIGNED),
    (fd.Atomic(((0.25, 0.5), (0.75, 0.5))), fd.TrigDensity(((0.5, 3),)), SIGNED),
]


@pytest.mark.parametrize("m1,m2,sched", PAIRS)
def test_stability_equals_three_decay_reports(m1, m2, sched):
    got = fd.stability_experiment(m1, m2, sched)
    both = fd.Mixture((m1, m2), (1.0, 1.0))
    assert got == (fd.decay_exponent(m1, sched), fd.decay_exponent(m2, sched),
                   fd.decay_exponent(both, sched))


@pytest.mark.parametrize("m1,m2,sched", PAIRS)
def test_mixture_combine_matches_mixture_transform_bit_for_bit(m1, m2, sched):
    # At a negative xi the sum of the parts is the conjugate of the sum at
    # -xi up to the sign of a zero imaginary part, which == ignores.
    both = fd.Mixture((m1, m2), (1.0, 1.0))
    for xi in sched.frequencies():
        got = both._combine((fd.ft(m1, xi), fd.ft(m2, xi)))
        assert got == fd.ft(both, xi), xi
        if xi > 0:
            assert _bits(got) == _bits(fd.ft(both, xi)), xi


def test_matrix_image_equals_two_decay_reports():
    m = fd.smooth_cut(LEB, (0.5, 0.4, 2))
    image = fd.AffineImage(m, 2.5, 0.0, False)
    got = fd.matrix_image_experiment(m, 2.5, SIGNED)
    assert got == (fd.decay_exponent(m, SIGNED),
                   fd.decay_exponent(fd.Mixture((m, image), (1.0, 1.0)), SIGNED))


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_decay_reads_the_schedule_once(monkeypatch):
    reads = _count_calls(monkeypatch, fd.DyadicWindows, "frequencies")
    fd.decay_exponent(LEB, SCHED)
    assert len(reads) == 1


def test_stability_reads_the_schedule_once_and_each_part_once(monkeypatch):
    # every frequency is evaluated once per part, on one of the two routes:
    # as a point of an ft_grid call or as an ft call (SIGNED has both
    # non-integer floats and ints)
    freqs = SIGNED.frequencies()
    reads = _count_calls(monkeypatch, fd.ExplicitFrequencies, "frequencies")
    scalar = _count_calls(monkeypatch, transform, "ft")
    grid = _count_calls(monkeypatch, transform, "ft_grid")
    fd.stability_experiment(LEB, fd.cantor_measure(), SIGNED)
    assert len(reads) == 1
    per_part = {}
    for m, xi in scalar:
        per_part.setdefault(id(m), []).append(xi)
    for m, xs in grid:
        per_part.setdefault(id(m), []).extend(xs.tolist())
    assert len(per_part) == 2
    for got in per_part.values():
        assert sorted(got) == sorted(freqs)
    assert scalar and grid


def test_short_schedule_still_raises_before_any_evaluation(monkeypatch):
    evals = _count_calls(monkeypatch, transform, "ft")
    grid = _count_calls(monkeypatch, transform, "ft_grid")
    with pytest.raises(fd.ScheduleError, match="spans 6 dyadic windows"):
        fd.stability_experiment(LEB, LEB, fd.DyadicWindows(4, 9))
    assert evals == [] and grid == []

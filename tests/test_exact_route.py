"""The exact scalar rules reduce each phase once; their values must not move.

TrigDensity shares one half turn per parity of the term frequency,
SelfSimilarDigit reduces the numerator once per level, DigitProduct keeps its
block plan and SmoothCutDensity its product pieces on the measure, and
stability_experiment evaluates each part once.  The references below are
straightforward per-term, per-digit and per-call versions of the same closed
forms; every comparison is on the bits of the result, signed zeros included.
"""

import cmath
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fourierdim as fd
from fourierdim import dimension
from fourierdim.density import DensityPiece, decompose_density, window_poly
from fourierdim.measures import _self_similar_depth
from fourierdim.phase import _ratio


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
    r = rr / den
    g = num / den
    return cmath.exp(1j * math.pi * r) * (math.sin(math.pi * r) / (math.pi * g))


def _ref_trig(m, xi):
    p, q = _ratio(xi)
    out = _ref_eplus_frac(-p, q)
    for c, f in m.terms:
        plus = _ref_eplus_frac(f * q - p, q)
        minus = _ref_eplus_frac(-(f * q + p), q)
        out += c * (plus - minus) / 2j
    return out


def _ref_self_similar(m, xi):
    p, q = _ratio(xi)
    depth = _self_similar_depth(m.base, xi)
    out = 1.0 + 0.0j
    den = q
    inv = 1.0 / len(m.allowed_digits)
    for _ in range(depth):
        den *= m.base
        s = 0.0 + 0.0j
        for d in m.allowed_digits:
            s += _ref_phase_frac(p * d, den)
        out *= s * inv
    return out


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
def digit_products(draw):
    depth = draw(st.integers(1, 24))
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
    assert _bits(m._ft(xi)) == _bits(_ref_trig(m, xi))


@given(trig_densities(), FREQS)
@settings(max_examples=300, deadline=None)
def test_trig_shared_half_turns_match_per_term_rule(m, xi):
    assert _bits(m._ft(xi)) == _bits(_ref_trig(m, xi))


@given(self_similar_measures(),
       st.one_of(FLOATS, st.integers(-(2 ** 1200), 2 ** 1200), LACUNARY_INTS))
@settings(max_examples=150, deadline=None)
def test_self_similar_level_residues_match_per_digit_rule(m, xi):
    assert _bits(m._ft(xi)) == _bits(_ref_self_similar(m, xi))


@pytest.mark.parametrize("digits", [(0, 2), (1, 2), (0,), (2,), (0, 1, 3, 4)])
def test_self_similar_level_residues_at_4096_bits(digits):
    m = fd.SelfSimilarDigit(5, digits)
    for xi in (2 ** 4096, -(3 ** 2500), 2 ** 4095 + 12345, 5 ** 1700):
        assert _bits(m._ft(xi)) == _bits(_ref_self_similar(m, xi)), xi


@given(digit_products(), FREQS)
@settings(max_examples=300, deadline=None)
def test_digit_product_plan_matches_per_call_rule(m, xi):
    assert _bits(m._ft(xi)) == _bits(_ref_digit_product(m, xi))


# ---------------------------------------------------------------------------
# cached window-cut pieces


def _fresh_pieces(cut):
    wpiece = DensityPiece(cut.center - cut.radius, cut.center + cut.radius,
                          cut.center, window_poly(cut.radius, cut.order), 1.0 + 0.0j, 0.0)
    out = [p.multiply(wpiece) for p in decompose_density(cut.inner)]
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
    both = fd.Mixture((m1, m2), (1.0, 1.0))
    for xi in sched.frequencies():
        parts = (fd.ft(m1, xi), fd.ft(m2, xi))
        assert _bits(both._combine_signed(xi, parts)) == _bits(fd.ft(both, xi)), xi


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
    n = len(SCHED.frequencies())
    reads = _count_calls(monkeypatch, fd.DyadicWindows, "frequencies")
    evals = _count_calls(monkeypatch, dimension, "ft")
    fd.stability_experiment(LEB, fd.cantor_measure(), SCHED)
    assert len(reads) == 1
    assert len(evals) == 2 * n


def test_short_schedule_still_raises_before_any_evaluation(monkeypatch):
    evals = _count_calls(monkeypatch, dimension, "ft")
    with pytest.raises(fd.ScheduleError, match="spans 6 dyadic windows"):
        fd.stability_experiment(LEB, LEB, fd.DyadicWindows(4, 9))
    assert evals == []

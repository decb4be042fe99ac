"""The exact scalar route against a 60-digit mpmath oracle.

The oracle evaluates each closed form in its textbook shape, not in the
shape the package uses: e(t) = exp(2 pi i t) after an exact reduction of t
mod 1, and integral_0^1 e(g x) dx = (e(g) - 1) / (2 pi i g).  Frequencies
run over ints from 2^0 to 2^4096 and floats from 2^-30 to 2^60, of both
signs.  For the self-similar measures the oracle multiplies the same number
of levels as the package, so the comparison measures rounding, not
truncation.

The pinned bounds are the largest errors measured on these frequencies,
rounded up to a power of two, in units of u = 2^-53:

* relative error at most 16 u for TrigDensity (lacunary spikes, frequencies
  next to a spike) and for UniformOnIntervals whose interval lengths are
  floats;
* relative error at most 256 u per level for SelfSimilarDigit (bases 3-5).
  Every frequency but one stays under 6 u per level.  The exception is
  2^896 in base 3 (224 u per level): at level 299 of 583 the digit sum
  has modulus 5.6e-6 of its maximum, so its rounding, a few u in absolute
  terms, is large relative to the value.

An exact zero of the closed form (the Cantor measure at 3/4, say) is
compared in absolute terms, and values below 2^-1000 against 2^-1000: the
package flushes them to zero.
"""

import math
import random
from fractions import Fraction

import pytest

import fourierdim as fd
from fourierdim.measures import _self_similar_depth

mpmath = pytest.importorskip("mpmath")

U = 2.0 ** -53
TRIG_UNIFORM_BOUND = 16 * U
SELF_SIMILAR_BOUND_PER_LEVEL = 256 * U
FLOOR = mpmath.mpf(2) ** -1000


@pytest.fixture(autouse=True)
def sixty_digits():
    with mpmath.workdps(60):
        yield


def _e(t: Fraction):
    """exp(2 pi i t), t reduced mod 1 exactly."""
    return _e_ratio(t.numerator, t.denominator)


def _e_ratio(num: int, den: int):
    return mpmath.expjpi(2 * mpmath.mpf(num % den) / den)


def _mpf(t: Fraction):
    return mpmath.mpf(t.numerator) / t.denominator


def _unit_integral(g: Fraction):
    """integral_0^1 exp(2 pi i g x) dx."""
    if g == 0:
        return mpmath.mpc(1)
    return (_e(g) - 1) / (2j * mpmath.pi * _mpf(g))


def oracle_uniform(m, xi):
    x = Fraction(xi)
    total = sum(Fraction(b) - Fraction(a) for a, b in m.intervals)
    out = mpmath.mpc(0)
    for a, b in m.intervals:
        out += (_e(-x * Fraction(a)) - _e(-x * Fraction(b))) / (2j * mpmath.pi * _mpf(x))
    return out / _mpf(total)


def oracle_trig(m, xi):
    # sin(2 pi f x) = (e(f x) - e(-f x)) / 2i
    x = Fraction(xi)
    out = _unit_integral(-x)
    for c, f in m.terms:
        out += mpmath.mpf(c) * (_unit_integral(f - x) - _unit_integral(-f - x)) / 2j
    return out


def oracle_self_similar(m, xi):
    # prod over levels n of the mean over digits d of e(-xi d / base^n)
    p, q = Fraction(xi).as_integer_ratio()
    out = mpmath.mpc(1)
    den = q
    for _ in range(_self_similar_depth(m.base, abs(xi))):
        den *= m.base
        out *= sum(_e_ratio(-p * d, den) for d in m.allowed_digits) / len(m.allowed_digits)
    return out


def relative_error(got: complex, want) -> float:
    """|got - want| / |want|, absolute where want is 0 and floored at 2^-1000."""
    scale = max(abs(want), FLOOR) if want != 0 else 1
    return float(abs(mpmath.mpc(got) - want) / scale)


_RNG = random.Random(1406_1480)
INTS = sorted({1 << e for e in range(0, 4097, 128)} | {3 << e for e in (1, 40, 700, 2000)}
              | {_RNG.getrandbits(_RNG.randint(2, 4096)) | 1 for _ in range(12)})
FLOATS = ([_RNG.uniform(1.0, 2.0) * 2.0 ** _RNG.uniform(-30, 60) for _ in range(24)]
          + [2.0 ** e + 0.5 for e in (1, 13, 31, 51)] + [0.75, 1.5, 2.0 ** -30, 2.0 ** 60 + 2.0 ** 8])
FREQS = INTS + FLOATS
# about 2600 levels at 2^4096 in base 3, so the self-similar oracle gets fewer ints
SELF_SIMILAR_FREQS = INTS[::3] + [1 << 4096] + FLOATS


def _signed(freqs):
    return [s * x for x in freqs for s in (1, -1)]


def _spike_neighbours(depth):
    """Ints on and next to each spike 2^(k^2), and floats within 1 of the
    spikes that floats resolve."""
    out = []
    for k in range(1, depth + 1):
        f = 2 ** (k * k)
        out += [f - 1, f, f + 1]
        if f < 2 ** 52:
            out += [float(f) + d for d in (-0.75, -2.0 ** -20, 2.0 ** -30, 0.5)]
    return out


UNIFORMS = [
    fd.UniformOnIntervals(((0.0, 1.0),)),
    fd.UniformOnIntervals(((0.0, 0.3), (0.5, 1.0))),
    fd.UniformOnIntervals(((0.25, 0.375), (0.5, 0.8125))),
]
TRIGS = [
    (fd.lacunary_trig_measure(1, 36), _spike_neighbours(8)),
    (fd.lacunary_trig_measure(-1, 12), _spike_neighbours(7)),
    (fd.TrigDensity(((0.3, 5), (-0.25, 40), (0.4, 2 ** 70 + 1))), [5, 40.5, 39.75, 2 ** 70 + 1]),
]
SELF_SIMILAR = [fd.SelfSimilarDigit(3, (0, 2)), fd.SelfSimilarDigit(4, (0, 1, 3)),
                fd.SelfSimilarDigit(5, (0, 1, 4))]


@pytest.mark.parametrize("m", UNIFORMS, ids=lambda m: str(m.intervals))
def test_uniform_against_oracle(m):
    worst = max(relative_error(fd.ft(m, xi), oracle_uniform(m, xi)) for xi in _signed(FREQS))
    assert worst <= TRIG_UNIFORM_BOUND, worst / U


@pytest.mark.xfail(strict=True, reason=(
    "UniformOnIntervals._ft takes the interval length as the float b - a; when "
    "that subtraction rounds, the far endpoint moves by up to half an ulp, so the "
    "relative error grows like |xi| 2^-53 (absolute error stays near 2^-53)"))
def test_uniform_with_rounded_length_against_oracle():
    m = fd.UniformOnIntervals(((0.1, 0.7),))  # 0.7 - 0.1 is not the float 0.6 exactly
    worst = max(relative_error(fd.ft(m, xi), oracle_uniform(m, xi)) for xi in _signed(FREQS))
    assert worst <= TRIG_UNIFORM_BOUND, worst / U


@pytest.mark.parametrize("m,extra", TRIGS, ids=("lacunary36", "lacunary12-neg", "mixed"))
def test_trig_against_oracle(m, extra):
    worst = max(relative_error(fd.ft(m, xi), oracle_trig(m, xi))
                for xi in _signed(FREQS + extra))
    assert worst <= TRIG_UNIFORM_BOUND, worst / U


def test_lacunary_spikes_are_exact():
    m = fd.lacunary_trig_measure(1, 36)
    for k in (1, 6, 20, 36):
        assert fd.ft(m, 2 ** (k * k)) == -1j * 2.0 ** (-(k + 1))
        assert fd.ft(m, 2 ** (k * k) + 1) == 0.0j


@pytest.mark.parametrize("m", SELF_SIMILAR, ids=lambda m: f"base{m.base}")
def test_self_similar_against_oracle(m):
    worst = 0.0
    for xi in SELF_SIMILAR_FREQS:
        depth = _self_similar_depth(m.base, xi)
        worst = max(worst, relative_error(fd.ft(m, xi), oracle_self_similar(m, xi)) / depth)
    assert worst <= SELF_SIMILAR_BOUND_PER_LEVEL, worst / U


def test_oracle_closed_forms_agree_with_known_values():
    # guards the oracle itself: Lebesgue at 1/2 is -2i/pi, at integers 0
    leb = fd.UniformOnIntervals(((0.0, 1.0),))
    assert abs(oracle_uniform(leb, 0.5) - mpmath.mpc(0, -2) / mpmath.pi) < mpmath.mpf(10) ** -55
    assert oracle_uniform(leb, 2 ** 4000) == 0
    assert math.isclose(abs(complex(oracle_trig(fd.lacunary_trig_measure(1, 3), 2 ** 9))),
                        2.0 ** -4, rel_tol=1e-15)

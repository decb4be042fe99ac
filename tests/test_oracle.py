"""The exact scalar route against a 60-digit mpmath oracle, and window cuts
against 120- and 200-digit ones (at the end of this module).

The oracle evaluates each closed form in its textbook shape, not in the
shape the package uses: e(t) = exp(2 pi i t) after an exact reduction of t
mod 1, and integral_0^1 e(g x) dx = (e(g) - 1) / (2 pi i g).  Frequencies
run over ints from 2^0 to 2^4096 and floats from 2^-30 to 2^60, of both
signs.  For the self-similar measures the oracle multiplies levels until
|xi| / base^n < 2^-64, so the comparison measures the package's truncation
(its tail phase included) as well as its rounding; the per-level bound
divides by the levels the package keeps, counted here from the documented
rule.  ``phase_unit`` and ``oscillatory_integral`` are checked on the same
frequencies.

The pinned bounds are the largest errors measured on these frequencies,
rounded up to a power of two, in units of u = 2^-53:

* relative error at most 16 u for TrigDensity (lacunary spikes, frequencies
  next to a spike) and for UniformOnIntervals whose interval lengths are
  floats;
* relative error at most 256 u per level for SelfSimilarDigit (bases 3-5,
  and single digits, whose measure is a point mass).  Every frequency but
  one stays under 6 u per level.  The exception is 2^896 in base 3 (224 u
  per level): at level 299 of 583 the digit sum has modulus 5.6e-6 of its
  maximum, so its rounding, a few u in absolute terms, is large relative to
  the value.  Truncating at the old float threshold 1e-8 without the tail
  phase was about 1e7 to 2e8 u per level off.

An exact zero of the closed form (the Cantor measure at 3/4, say) is
compared in absolute terms, and values below 2^-1000 against 2^-1000: the
package flushes them to zero.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import fourierdim as fd
from fourierdim.density import poly_exp_integral
from fourierdim.measures import WINDOW_MAX_ORDER, _level_powers
from fourierdim.transform import _filon_moments

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
    # prod over levels n of the mean over digits d of e(-xi d / base^n), until
    # |xi| / base^n < 2^-64: the factors left out differ from 1 by less than 2^-60
    p, q = Fraction(xi).as_integer_ratio()
    stop = abs(p) << 64
    out = mpmath.mpc(1)
    den = q
    while den <= stop:
        den *= m.base
        out *= sum(_e_ratio(-p * d, den) for d in m.allowed_digits) / len(m.allowed_digits)
    return out


def documented_levels(base, xi):
    """The levels the package keeps at xi: level n while |xi| / base^(n - 1)
    >= 2^-27, and level 1 always."""
    x = abs(Fraction(xi))
    n = 1
    while x * 2 ** 27 >= base ** n:
        n += 1
    return n


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


def test_uniform_with_rounded_length_against_oracle():
    # the cell length comes from the exact ratios of a and b, not from the
    # float b - a, which rounds here and used to cost |xi| 2^-53 relative
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
        err = relative_error(fd.ft(m, xi), oracle_self_similar(m, xi))
        worst = max(worst, err / documented_levels(m.base, xi))
    assert worst <= SELF_SIMILAR_BOUND_PER_LEVEL, worst / U


# ---------------------------------------------------------------------------
# ft_grid: the float rules against the same oracles, up to the grid guard
#
# The float rules reduce every phase from an error-free product (TwoProduct,
# TwoSum, double-double digit positions), so their error does not grow with
# |xi|; they are held to the scalar route's bounds at non-integer floats of
# both signs from 2^-30 to 2^52 (past it every float is an integer), at
# floats within 2^-20 of an integer, and at integer floats up to the guard.
# The largest errors measured were 3.3 u (uniform and trig), 3.4 u (atoms)
# and 4.5 u per level (base 5, digits 1 and 3); digit products have their
# own bound below.

GUARD = fd.measures.GRID_GUARD
GRID_FLOATS = sorted({_RNG.uniform(1.0, 2.0) * 2.0 ** e for e in range(-30, 52)}
                     | {2.0 ** e + 0.5 for e in (1, 13, 31, 51)} | {0.75, 1.5})
NEAR_INTEGERS = [float(k) + d for k in (1, 7, 3 ** 10, 2 ** 33 + 1) for d in (-2.0 ** -20, 2.0 ** -20)]
WHOLE_FLOATS = [float(k) for k in (1, 3, 2 ** 20 + 5, 3 ** 30)] + [2.0 ** e for e in (53, 59, 60)]


def _grid_worst(m, oracle, freqs, per_level=False):
    xs = _signed(freqs)
    worst = 0.0
    for xi, got in zip(xs, fd.ft_grid(m, np.array(xs)).tolist()):
        err = relative_error(got, oracle(m, xi))
        if per_level:
            err /= documented_levels(m.base, xi)
        worst = max(worst, err)
    return worst


def test_grid_guard_is_the_tested_range():
    assert GUARD == 2.0 ** 60 and max(WHOLE_FLOATS) == GUARD
    for m in UNIFORMS + [m for m, _ in TRIGS] + SELF_SIMILAR:
        assert m._grid_guard()[1] == GUARD


@pytest.mark.parametrize("m", UNIFORMS + [fd.UniformOnIntervals(((0.1, 0.7),))],
                         ids=lambda m: str(m.intervals))
def test_uniform_grid_against_oracle(m):
    freqs = GRID_FLOATS + WHOLE_FLOATS
    if len(m.intervals) == 1:
        # near a zero of one cell the relative error stays small; two cells
        # that cancel lose it on both routes alike
        freqs += NEAR_INTEGERS
    worst = _grid_worst(m, oracle_uniform, freqs)
    assert worst <= TRIG_UNIFORM_BOUND, worst / U


@pytest.mark.parametrize("m,extra", TRIGS, ids=("lacunary36", "lacunary12-neg", "mixed"))
def test_trig_grid_against_oracle(m, extra):
    floats = [float(x) for x in extra if abs(x) <= GUARD]
    worst = _grid_worst(m, oracle_trig, GRID_FLOATS + NEAR_INTEGERS + WHOLE_FLOATS + floats)
    assert worst <= TRIG_UNIFORM_BOUND, worst / U


@pytest.mark.parametrize("m", SELF_SIMILAR + [fd.SelfSimilarDigit(5, (1, 3))],
                         ids=lambda m: f"base{m.base}{m.allowed_digits}")
def test_self_similar_grid_against_oracle(m):
    worst = _grid_worst(m, oracle_self_similar, GRID_FLOATS + NEAR_INTEGERS + WHOLE_FLOATS,
                        per_level=True)
    assert worst <= SELF_SIMILAR_BOUND_PER_LEVEL, worst / U


@pytest.mark.parametrize("base,digit", [(7, 4), (3, 2), (10, 9), (2, 1)])
def test_single_digit_is_its_point_mass_on_both_routes(base, digit):
    # every level is one exact phase, and the tail's mean phase is the rest
    m = fd.SelfSimilarDigit(base, (digit,))
    assert fd.atom_weights(m) == {digit / (base - 1): 1.0}

    def point_mass(m, xi):
        return _e(-Fraction(xi) * Fraction(digit, base - 1))

    worst = max(relative_error(fd.ft(m, xi), point_mass(m, xi)) / documented_levels(base, xi)
                for xi in _signed(SELF_SIMILAR_FREQS))
    assert worst <= SELF_SIMILAR_BOUND_PER_LEVEL, worst / U
    worst = _grid_worst(m, point_mass, GRID_FLOATS + NEAR_INTEGERS + WHOLE_FLOATS,
                        per_level=True)
    assert worst <= SELF_SIMILAR_BOUND_PER_LEVEL, worst / U


@pytest.mark.parametrize("base", [2, 3, 5, 4096])
def test_grid_level_count_is_the_documented_rule(base):
    # ft_grid counts the levels as 1 plus the m >= 1 with base^m <= |xi| 2^27,
    # searched in base^m rounded up to floats; checked at |xi| = base^m 2^-27
    # rounded and at its float neighbours, where a rounding would show
    powers = _level_powers(base)
    assert powers[-1] <= 2.0 ** 88 < base * powers[-1]
    for m in range(1, len(powers) + 1):
        near = float(Fraction(base ** m, 2 ** 27))
        xs = np.array([math.nextafter(near, 0.0), near, math.nextafter(near, math.inf)])
        got = 1 + np.searchsorted(powers, xs * 2.0 ** 27, side="right")
        assert got.tolist() == [documented_levels(base, x) for x in xs.tolist()], m


def oracle_atomic(m, xi):
    x = Fraction(xi)
    return sum(mpmath.mpf(w) * _e(-x * Fraction(p)) for p, w in m.atoms)


def oracle_digit_product(m, xi):
    # the mean of e(-xi v / 2^L) over the admissible cylinders v, times the
    # transform of one cylinder; a sum that cancels to below 10^-40 is an
    # exact zero of the product form
    x = Fraction(xi)
    unit = Fraction(1, 2 ** m.depth)
    out = (_unit_integral(-x * unit) * sum(_e(-x * v * unit) for v in m._admissible_values())
           / m.cylinder_count())
    return 0 if abs(out) < mpmath.mpf(10) ** -40 else out


def test_atomic_grid_against_oracle():
    m = fd.Atomic(((0.3, 0.5), (0.71, 0.25), (-1.3, 0.25), (1e3 / 3, 0.1)))
    worst = _grid_worst(m, oracle_atomic, GRID_FLOATS + NEAR_INTEGERS + WHOLE_FLOATS)
    assert worst <= TRIG_UNIFORM_BOUND, worst / U


# The product of digit factors loses relative accuracy where one factor
# nearly vanishes, on both routes: next to the integer 7, 33 000 u on the
# grid and 717 000 u on the exact route for the first measure below.  Away
# from integers the grid measured 73 u.
DIGIT_PRODUCT_BOUND = 2 ** 8 * U


@pytest.mark.parametrize("m", [fd.DigitProduct(6, (fd.DigitBlock(1, 2, "01"),)),
                               fd.DigitProduct(8, (fd.DigitBlock(0, 3, "000"),
                                                   fd.DigitBlock(5, 2, "11")))],
                         ids=("depth6", "depth8"))
def test_digit_product_grid_against_oracle(m):
    worst = _grid_worst(m, oracle_digit_product, GRID_FLOATS + WHOLE_FLOATS)
    assert worst <= DIGIT_PRODUCT_BOUND, worst / U


def test_grid_keeps_exact_zeros_at_integer_products():
    whole = np.array(_signed(WHOLE_FLOATS + [16.0, 2.0 ** 40]))
    assert not fd.ft_grid(fd.UniformOnIntervals(((0.0, 1.0),)), whole).any()
    # at multiples of 16, xi (b - a) is an integer for both cells
    sixteenths = fd.UniformOnIntervals(((0.25, 0.375), (0.5, 0.8125)))
    assert not fd.ft_grid(sixteenths, whole[whole % 16 == 0]).any()
    trig = fd.TrigDensity(((0.3, 5), (-0.25, 40)))
    assert not fd.ft_grid(trig, whole).any()
    assert fd.ft_grid(trig, np.array([5.0, -40.0])).tolist() == [0.15 / 1j, 0.125 / 1j]
    # the pre-factor of a depth-4 digit product vanishes at multiples of 16
    digits = fd.DigitProduct(4, (fd.DigitBlock(1, 2, "01"),))
    assert not fd.ft_grid(digits, 16.0 * np.array([1.0, -3.0, 2.0 ** 50])).any()


# ---------------------------------------------------------------------------
# the frequency contract on ft: Fractions and affine images are exact
#
# ft takes a Fraction at its exact value, and an affine image hands its
# inner measure the exact product of the ratios of scale and frequency.
# Both used to be rounded to a float first: ft(leb, Fraction(2**60 + 1, 3))
# read 0j, and AffineImage(leb, 0.3, 0.1) was 1061 u off at 1000.7 and off
# by its whole size at 3 * 2^70 + 1.  The largest errors measured were
# 4.6 u (uniform), 3.2 u (trig), 1.7 u per level (self-similar), 6.9 u
# (atoms) and 4.5 u (the affine image).  Digit products have no pinned
# exact-route bound yet (ROADMAP item 4): they measured 239 u at 1000.007,
# next to an integer, and 382 u at the ratio near -4.2e29, where
# |ft| = 1e-32; both are pinned at the power of two above.

FRACTIONS = [Fraction(2 ** 60 + 1, 3), Fraction(-7, 5), Fraction(1, 3),
             Fraction(10 ** 30 + 1, 7), Fraction(3 ** 40, 2 ** 20 + 1),
             Fraction(-(2 ** 200 + 1), 3 * 2 ** 100 + 1), Fraction(1000007, 1000),
             Fraction(5, 10 ** 12)]
ATOMS = fd.Atomic(((0.3, 0.5), (0.71, 0.25), (-1.3, 0.25), (1e3 / 3, 0.1)))
DIGIT_PRODUCTS = [fd.DigitProduct(6, (fd.DigitBlock(1, 2, "01"),)),
                  fd.DigitProduct(8, (fd.DigitBlock(0, 3, "000"), fd.DigitBlock(5, 2, "11")))]
FRACTION_CASES = (
    [(m, oracle_uniform, TRIG_UNIFORM_BOUND)
     for m in UNIFORMS + [fd.UniformOnIntervals(((0.1, 0.7),))]]
    + [(m, oracle_trig, TRIG_UNIFORM_BOUND) for m, _ in TRIGS]
    + [(m, oracle_self_similar, SELF_SIMILAR_BOUND_PER_LEVEL) for m in SELF_SIMILAR]
    + [(ATOMS, oracle_atomic, TRIG_UNIFORM_BOUND)]
    + [(m, oracle_digit_product, 2 ** 9 * U) for m in DIGIT_PRODUCTS])


@pytest.mark.parametrize("m,oracle,bound", FRACTION_CASES,
                         ids=[f"{type(m).__name__}-{i}" for i, (m, _, _) in enumerate(FRACTION_CASES)])
def test_fractions_against_oracle(m, oracle, bound):
    worst = 0.0
    for xi in _signed(FRACTIONS):
        err = relative_error(fd.ft(m, xi), oracle(m, xi))
        if oracle is oracle_self_similar:
            err /= documented_levels(m.base, xi)
        worst = max(worst, err)
    assert worst <= bound, worst / U


def oracle_affine_leb(scale, offset, xi):
    """ft of the image of Lebesgue measure on [0, 1] under x -> scale x + offset."""
    x = Fraction(xi)
    return oracle_uniform(UNIFORMS[0], x * Fraction(scale)) * _e(-x * Fraction(offset))


def test_affine_image_with_a_rounding_scale_against_oracle():
    m = fd.AffineImage(UNIFORMS[0], 0.3, 0.1)
    worst = max(relative_error(fd.ft(m, xi), oracle_affine_leb(0.3, 0.1, xi))
                for xi in _signed([1000.7, 2.0 ** 30 + 0.5, 2.0 ** 40 + 0.5, 3 * 2 ** 70 + 1]))
    assert worst <= TRIG_UNIFORM_BOUND, worst / U


def test_oracle_closed_forms_agree_with_known_values():
    # guards the oracle itself: Lebesgue at 1/2 is -2i/pi, at integers 0
    leb = fd.UniformOnIntervals(((0.0, 1.0),))
    assert abs(oracle_uniform(leb, 0.5) - mpmath.mpc(0, -2) / mpmath.pi) < mpmath.mpf(10) ** -55
    assert oracle_uniform(leb, 2 ** 4000) == 0
    assert math.isclose(abs(complex(oracle_trig(fd.lacunary_trig_measure(1, 3), 2 ** 9))),
                        2.0 ** -4, rel_tol=1e-15)


# ---------------------------------------------------------------------------
# phase_unit and oscillatory_integral
#
# phase_unit measured at most 8.7 u (at a 4096-bit int times 0.3), and
# oscillatory_integral at most 3.2 u; both are pinned at 16 u.
# oscillatory_integral is (E(a + b) - E(a - b)) / 2i, and where |a| >> |b|
# and 2b is near an integer the two terms nearly cancel: at a = 3^30,
# b = 2.5 each is about 1.5e-15 and the value is -1.877e-29.  The package
# factors e(a) out of both terms there; their plain difference, which it
# keeps where a is close to +-b, reads 5.4e13 u at that point.  With |a|
# and |b| both at most 1/8 both forms lost about u / |b| (3.5e7 u at
# (2^-30, 2^-31), and 0j at (2^-70, 2^-71), where the value is 1.33e-21);
# the package sums the power series there, measured at most 3.1 u.

POSITIONS = [0.3, -1.3, 1e3 / 3, 0.71, 2.0 ** -20 + 0.125, 12345.678, 0.5, 3,
             Fraction(1, 3), Fraction(-7, 5)]
PHASE_FREQS = _signed(INTS + [3 ** k for k in (1, 5, 20, 40, 100, 700)] + FLOATS + FRACTIONS)


def _digits_below_one(t: Fraction) -> int:
    """Decimal digits of 1 / |t| for 0 < |t| < 1, else 0."""
    return len(str(math.ceil(1 / abs(t)))) if 0 < abs(t) < 1 else 0


def oracle_oscillatory(alpha, beta):
    # (e(g) - 1) / g loses the digits of 1 / |g| to cancellation, and where
    # both terms are near 1 their difference loses those of 1 / |b|: at 60
    # digits alone the oracle read 2.8 % off at (1/(3 10^30), -1/(7 10^30))
    a, b = Fraction(alpha), Fraction(beta)
    extra = _digits_below_one(min(abs(a + b), abs(a - b))) + _digits_below_one(b)
    with mpmath.workdps(60 + extra):
        return (_unit_integral(a + b) - _unit_integral(a - b)) / 2j


def test_phase_unit_against_oracle():
    worst = max(relative_error(fd.phase_unit(xi, x), _e(-Fraction(xi) * Fraction(x)))
                for xi in PHASE_FREQS for x in POSITIONS)
    assert worst <= TRIG_UNIFORM_BOUND, worst / U


# b away from the half-integers, against every kind of a, and integer pairs
OSCILLATORY_PAIRS = (
    [(a, b) for a in _signed(INTS[::4] + [3 ** k for k in (1, 5, 30, 40)] + FLOATS[::2] + FRACTIONS)
     for b in (0.3, -1.7, 1e3 / 3, 2.0 ** 20 + 0.375, Fraction(1, 3), Fraction(-7, 5),
               2.0 ** 40 + 0.3)]
    + [(a, b) for a in _signed(INTS[::4] + [3 ** 30]) for b in (1, 3, 3 ** 40, 2 ** 300 + 1)]
    # a next to +-b, where the factored form would cancel
    + [(0.3, 0.3 + 2.0 ** -50), (2.0 ** 20 + 0.5, -(2.0 ** 20 + 0.5 - 2.0 ** -30)),
       (1 + 2.0 ** -40, 1)]
    # |a| and |b| both at most 1/8, where the power series is summed, and
    # pairs just past 1/8 on either side
    + [(2.0 ** -70, 2.0 ** -71), (2.0 ** -30, 2.0 ** -31), (1e-5, 3e-5),
       (Fraction(1, 3 * 10 ** 30), Fraction(-1, 7 * 10 ** 30))]
    + [(sa * 0.125, sb * 0.125) for sa in (1, -1) for sb in (1, -1)]
    + [(0.125 + 2.0 ** -40, 0.1), (0.1, 0.125 + 2.0 ** -40), (0.13, 0.12), (0.126, 1e-9),
       (1e-9, 0.126), (Fraction(-1, 9), Fraction(1, 8))])


def test_oscillatory_integral_against_oracle():
    worst = max(relative_error(fd.oscillatory_integral(a, b), oracle_oscillatory(a, b))
                for a, b in OSCILLATORY_PAIRS)
    assert worst <= TRIG_UNIFORM_BOUND, worst / U


@pytest.mark.parametrize("a, b", [(3 ** 30, 2.5), (2.0 ** 40 + 0.3, 1)])
def test_oscillatory_integral_where_its_terms_cancel_against_oracle(a, b):
    err = relative_error(fd.oscillatory_integral(a, b), oracle_oscillatory(a, b))
    assert err <= TRIG_UNIFORM_BOUND, err / U


# ---------------------------------------------------------------------------
# window cuts on the Gauss-Legendre branch of poly_exp_integral
#
# The oracle integrates the program's own pieces (float coefficients taken
# exactly) at 120 digits by parts:
#   integral_{t1}^{t2} P(t) e^{i theta t} dt
#     = sum_k (-1)^k [P^(k)(t) e^{i theta t} / (i theta)^(k+1)]_{t1}^{t2}.
# Bounds, in units of u, are the largest errors measured on these cases
# rounded up to a power of two with at least 4x headroom: 3.4e-13 (about
# 3100 u) for single pieces and 9.9e-12 (about 89000 u, at xi = 6.92 where
# |ft| = 9.8e-6 of a mass 0.3) for the cut.  The Taylor-series branch this
# rule replaced read 3.5e-4 and 1.4e-3 on the same cases.

PIECE_BOUND = 2 ** 14 * U
CUT_BOUND = 2 ** 19 * U


def oracle_piece_integral(poly, theta, t1, t2):
    """integral_{t1}^{t2} (sum_r poly[r] t^r) exp(i theta t) dt."""
    deriv = [mpmath.mpf(c) for c in poly]
    t1, t2 = mpmath.mpf(t1), mpmath.mpf(t2)
    if theta == 0:
        return mpmath.mpc(sum(c * (t2 ** (r + 1) - t1 ** (r + 1)) / (r + 1)
                              for r, c in enumerate(deriv)))
    it = 1j * theta
    out = mpmath.mpc(0)
    for k in range(len(deriv)):
        at = [mpmath.polyval(deriv[::-1], t) * mpmath.exp(it * t) for t in (t1, t2)]
        out += (-1) ** k * (at[1] - at[0]) / it ** (k + 1)
        deriv = [r * c for r, c in enumerate(deriv)][1:]
    return out


def oracle_cut(m, xi):
    """ft of a window cut, summed over its own density pieces."""
    x = mpmath.mpf(xi)
    out = mpmath.mpc(0)
    for p in m._density():
        theta = 2 * mpmath.pi * (mpmath.mpf(p.frequency) - x)
        inner = oracle_piece_integral(p.poly, theta, p.a - p.center, p.b - p.center)
        out += (mpmath.mpc(complex(p.amplitude)) * mpmath.expjpi(-2 * x * mpmath.mpf(p.center))
                * inner)
    return out


def _switch_gamma(poly, t1, t2):
    """The |gamma| at which poly_exp_integral leaves the Gauss-Legendre branch
    (|theta| max|t| = 12 + 2 deg)."""
    return (12.0 + 2.0 * (len(poly) - 1)) / (2.0 * math.pi * max(abs(t1), abs(t2)))


def _random_pieces():
    rng = random.Random(5)
    for _ in range(60):
        deg = rng.randint(0, 8)
        poly = tuple(rng.uniform(-1.0, 1.0) for _ in range(deg + 1))
        t1 = rng.uniform(-1.0, 0.5)
        yield poly, t1, t1 + rng.uniform(0.05, 1.5)


def test_poly_exp_integral_gauss_branch_against_oracle():
    worst = 0.0
    with mpmath.workdps(120):
        for poly, t1, t2 in _random_pieces():
            top = _switch_gamma(poly, t1, t2)
            for f in (0.0, 1e-6, 0.1, 0.37, 0.5, 0.8, 0.99, 1.0 - 1e-12):
                for g in (f * top, -f * top):
                    got = complex(poly_exp_integral(poly, g, t1, t2))
                    want = oracle_piece_integral(poly, 2 * mpmath.pi * mpmath.mpf(g), t1, t2)
                    worst = max(worst, relative_error(got, want))
    assert worst <= PIECE_BOUND, worst / U


def test_uniform_cut_against_oracle():
    # every piece stays on the Gauss-Legendre branch up to xi = 7.64
    m = fd.smooth_cut(fd.UniformOnIntervals(((0.0, 1.0),)), (0.4221, 0.4592, 3))
    with mpmath.workdps(120):
        worst = max(relative_error(fd.ft(m, xi), oracle_cut(m, xi))
                    for xi in np.linspace(0.05, 8.0, 200).tolist())
    assert worst <= CUT_BOUND, worst / U


# Each product piece is centred at the window, so the window polynomial keeps
# its own coefficients.  Centred at the trig piece's 0 instead, its Taylor
# shift cancelled and the masses below were 4.9e-12 and 5.0e-12 relative off;
# now 2.6e-15 and 2.5e-15.

@pytest.mark.parametrize("terms", [((0.0, 39),), ((0.5, 7),)], ids=("flat", "trig7"))
def test_trig_cut_mass_against_oracle(terms):
    center, radius, order = 0.6901, 0.2158, 3
    m = fd.smooth_cut(fd.TrigDensity(terms), (center, radius, order))
    c, r = mpmath.mpf(center), mpmath.mpf(radius)

    def density(x):
        trig = sum(mpmath.mpf(a) * mpmath.sin(2 * mpmath.pi * f * x) for a, f in terms)
        return (1 - ((x - c) / r) ** 2) ** order * (1 + trig)

    want = mpmath.quad(density, mpmath.linspace(c - r, c + r, 30))
    if not terms[0][0]:
        assert abs(want - r * 32 / 35) < mpmath.mpf(10) ** -50  # r * 32/35 exactly
    assert abs(fd.mass(m) - want) <= 1e-14 * want


# Window orders stop at measures.WINDOW_MAX_ORDER = 20, where the window's
# monomial coefficients have not yet cancelled past the cut bound.  On this
# digit product the largest error relative to the mass, over three windows
# and five frequencies, read 9.5e4 u at order 20 against a 40-digit
# quadrature, 4.9e5 u at order 24 and 2.2e8 u at order 32.  The oracle here
# takes the window's binomial coefficients exactly and integrates each run of
# admissible cylinders by parts.

@pytest.mark.parametrize("center,radius", [(0.5, 0.1), (0.45, 0.3), (0.5, 0.5)])
def test_digit_cut_at_the_order_cap_against_oracle(center, radius):
    order = WINDOW_MAX_ORDER
    inner = fd.DigitProduct(8, (fd.DigitBlock(0, 3, "000"), fd.DigitBlock(5, 2, "11")))
    m = fd.smooth_cut(inner, (center, radius, order))
    # admissible cylinders [k/256, (k+1)/256] have digits 1-3 not 000 and
    # digits 6-7 not 11: the runs [8j/256, (8j+6)/256] for j = 4 .. 31
    runs = [(8 * j, 8 * j + 6) for j in range(4, 32)]
    with mpmath.workdps(120):
        c, r = mpmath.mpf(center), mpmath.mpf(radius)
        window = [0] * (2 * order + 1)  # (1 - (t/r)^2)^order in t = x - c
        for j in range(order + 1):
            window[2 * j] = mpmath.binomial(order, j) * (-1) ** j / r ** (2 * j)
        density = mpmath.mpf(256) / inner.cylinder_count()

        def oracle(xi):
            x, out = mpmath.mpf(xi), mpmath.mpc(0)
            for lo, hi in runs:
                a = max(mpmath.mpf(lo) / 256, c - r)
                b = min(mpmath.mpf(hi) / 256, c + r)
                if a < b:
                    out += oracle_piece_integral(window, -2 * mpmath.pi * x, a - c, b - c)
            return density * mpmath.expjpi(-2 * x * c) * out

        want_mass = oracle(0.0).real
        worst = max(abs(fd.ft(m, xi) - oracle(xi)) / want_mass
                    for xi in (0.0, 0.75, 3.3, 20.5, 100.25))
    assert worst <= CUT_BOUND, worst / U


# window cuts past the Gauss-Legendre branch
#
# There each piece takes the integration-by-parts sum over its endpoint
# jets, with the window edges at the exact reals center +- radius.  The
# oracle integrates the exact window (binomial coefficients) times each part
# of the inner density, amp * e(f x) on [a, b], by parts between the exact
# ends.  Bounds are the largest relative errors measured on these cases, on
# both routes, rounded up to a power of two with at least 4x headroom:
#
# * 8.8 u for the trig and Lebesgue cuts (the trig cut's ft at 2^10 + 0.3),
#   bounded at 2^6 u.  The trig cut's first five points are where the moment
#   recurrence this rule replaced read 3.0e-10, 1.3e-4, 4.4e2, 1.1e26 and
#   1.6e26 relative, and gave one value at 2^70 + 1 and 2^70 + 3.
# * 4.2e5 u for the digit cut (ft at 2^70 + 1), bounded at 2^21 u.  Its 19
#   pieces' end terms cancel: at 2^70 + 1 each is about 1e4 times their sum.
#   The recurrence read 2.1e21 u there.

FAR_CUT_BOUND = 2 ** 6 * U
FAR_DIGIT_CUT_BOUND = 2 ** 21 * U
FAR_FLOATS = [2.0 ** 10 + 0.3, 2.0 ** 20 + 0.5, 2.0 ** 30 + 0.25]
FAR_INTS = [2 ** 70 + 1, 2 ** 70 + 3, 3 ** 100, 2 ** 400 + 5]


def oracle_window_cut(m, parts, xi):
    """ft of m = smooth_cut(inner, (center, radius, order)), with the inner
    density given as parts (a, b, amp, f): amp * e(f x) on [a, b]."""
    c, r = mpmath.mpf(m.center), mpmath.mpf(m.radius)
    window = [mpmath.mpf(0)] * (2 * m.order + 1)  # (1 - (t/r)^2)^order in t = x - c
    for j in range(m.order + 1):
        window[2 * j] = mpmath.binomial(m.order, j) * (-1) ** j / r ** (2 * j)
    x = _mpf(Fraction(xi))
    out = mpmath.mpc(0)
    for a, b, amp, f in parts:
        lo, hi = max(mpmath.mpf(a), c - r), min(mpmath.mpf(b), c + r)
        if lo < hi:
            theta = 2 * mpmath.pi * (f - x)
            out += (amp * mpmath.exp(1j * theta * c)
                    * oracle_piece_integral(window, theta, lo - c, hi - c))
    return out


def _trig_cut():
    # 1 + 0.5 sin(2 pi 7 x) on [0, 1], as exponential parts
    parts = [(0, 1, mpmath.mpc(1), 0), (0, 1, mpmath.mpf(0.5) / 2j, 7),
             (0, 1, -mpmath.mpf(0.5) / 2j, -7)]
    return fd.TrigDensity(((0.5, 7),)), (0.37, 0.3, 2), parts


def _lebesgue_cut():
    # the window overhangs 0, so the lower end is the inner's, not the window's
    return fd.UniformOnIntervals(((0.0, 1.0),)), (0.2, 0.3, 3), [(0, 1, mpmath.mpc(1), 0)]


def _digit_cut():
    # blocks 000 at digits 1-3 and 11 at digits 6-7: the admissible cylinders
    # are the runs [8j/256, (8j+6)/256] for j = 4 .. 31
    inner = fd.DigitProduct(8, (fd.DigitBlock(0, 3, "000"), fd.DigitBlock(5, 2, "11")))
    density = mpmath.mpf(256) / inner.cylinder_count()
    parts = [(mpmath.mpf(8 * j) / 256, mpmath.mpf(8 * j + 6) / 256, density, 0)
             for j in range(4, 32)]
    return inner, (0.45, 0.3, 4), parts


FAR_CUTS = {"trig": _trig_cut, "lebesgue": _lebesgue_cut, "digit": _digit_cut}


def far_cut_errors(name):
    """(xi, route, relative error) of one far cut, on both routes at floats.
    The phases lose the digits of |xi| (121 at 2^400), so 200 are kept."""
    with mpmath.workdps(200):
        inner, window, parts = FAR_CUTS[name]()
        m = fd.smooth_cut(inner, window)
        out = []
        for xi in FAR_FLOATS + FAR_INTS:
            want = oracle_window_cut(m, parts, xi)
            out.append((xi, "ft", relative_error(fd.ft(m, xi), want)))
            if isinstance(xi, float):
                got = complex(fd.ft_grid(m, [xi])[0])
                out.append((xi, "grid", relative_error(got, want)))
    return out


@pytest.mark.parametrize("name,bound", [("trig", FAR_CUT_BOUND), ("lebesgue", FAR_CUT_BOUND),
                                        ("digit", FAR_DIGIT_CUT_BOUND)])
def test_window_cut_past_the_gauss_branch_against_oracle(name, bound):
    worst = max(far_cut_errors(name), key=lambda row: row[2])
    assert worst[2] <= bound, (worst[0], worst[1], worst[2] / U)


def test_window_cut_far_values_stay_apart_and_finite():
    m = fd.smooth_cut(fd.TrigDensity(((0.5, 7),)), (0.37, 0.3, 2))
    assert fd.ft(m, 2 ** 70 + 1) != fd.ft(m, 2 ** 70 + 3)
    for xi in (2 ** 1030 + 1, 2 ** 4096, -(2 ** 4096) + 1, 3 ** 2584):
        z = fd.ft(m, xi)
        assert math.isfinite(z.real) and math.isfinite(z.imag), xi


# The Filon moments m_r(theta) = integral_{-1}^{1} u^r e^{i theta u} du take a
# Gauss-Legendre rule for |theta| <= 10 and the recurrence above.  The oracle
# integrates u^r by parts at 120 digits.  The largest absolute error measured
# on this grid is 50.3 u (theta = 2.925, r = 0), bounded at 2^7 u; the Taylor
# series the rule replaced read 1311 u (theta = -9.925, r = 3).

FILON_BOUND = 2 ** 7 * U


def test_filon_moments_against_oracle():
    thetas = np.linspace(-10.0, 10.0, 801).tolist() + [0.0, 10.0 - 1e-9, -(10.0 - 1e-9)]
    worst = 0.0
    with mpmath.workdps(120):
        for theta in thetas:
            got = _filon_moments(theta)
            for r in range(5):
                want = oracle_piece_integral((0.0,) * r + (1.0,), mpmath.mpf(theta), -1.0, 1.0)
                worst = max(worst, abs(complex(got[r]) - complex(want)))
    assert worst <= FILON_BOUND, worst / U

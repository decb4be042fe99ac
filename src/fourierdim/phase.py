"""Phase kernels: exact rational phase arithmetic and its float counterparts.

A float is a dyadic rational p/q, a Fraction is p/q and an integer is p/1, so
exp(-2 pi i xi x) equals exp(-2 pi i ((p1 p2) mod (q1 q2)) / (q1 q2)) with
the modulus taken in exact integer arithmetic.  That makes lacunary probes
such as xi = 2**2304 evaluable with correctly rounded phases, far beyond
float range, and it makes transform values at integer frequencies exact (for
instance, the transform of Lebesgue measure on [0, 1] is exactly 0 at every
nonzero integer).

The float route (grid rules, density pieces, Filon panels) forms the phase
exp(-2 pi i xi x) of a frequency and a float position through
``_phase_vec``, and every unit-interval integral through ``_eplus_vec``.
Both reduce their argument from exact parts: ``_phase_vec`` takes xi * x
mod 1 from the error-free product of the two floats, and ``_eplus_vec``
takes g mod 2 from the parts its caller formed without rounding (TwoSum,
TwoProduct).  Their
phase error is therefore a few units of the last place whatever the size of
xi * x, where reducing the rounded product would lose |xi x| units.  Both
end in one kernel, ``_unit_turns``, which gives exp(2 pi i (hi + lo)) as a
complex array for a turn in two parts: hi of any finite size, reduced
exactly, and lo, added after that reduction.  lo need not be small against a
turn (a self-similar position, a double-double, passes a few turns at large
xi).  ``SelfSimilarDigit._grid`` takes its level phases from double-double
positions through ``_product_turns`` and ``_unit_turns`` itself, since
``_phase_vec`` takes no low part; its tail phase and ``TrigDensity._grid``'s
half turn go straight to ``_unit_turns``.

``_ratio`` is the package's one reader of a scalar frequency: ints of any
size and Fractions stay exact, and anything else must be a finite real
number (``_finite``), so a bool, a string or a NaN is a MeasureError at
every entry point.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .errors import MeasureError

__all__ = ["phase_unit", "oscillatory_integral"]


def _finite(value, what: str) -> float:
    """value as a finite float; bools and strings are not numbers here."""
    try:
        # a plain float skips the isinstance test, which would double the
        # cost of building an Atomic
        if type(value) is not float and isinstance(value, (bool, np.bool_, str, bytes)):
            raise TypeError
        v = float(value)
    except (TypeError, ValueError, OverflowError):
        raise MeasureError(f"{what} must be a finite real number, got {value!r}") from None
    if not math.isfinite(v):
        raise MeasureError(f"{what} must be finite, got {value!r}")
    return v


def _in_float_range(what: str, compute, *args):
    """compute(*args), a float or a tuple of floats, with numpy's overflow
    and invalid flags raised: a MeasureError where a step overflows or turns
    invalid, or a float of the result is not finite, in numpy or in Python
    (whose float power raises OverflowError and whose product turns inf)."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            out = compute(*args)
    except (FloatingPointError, OverflowError):
        out = math.inf
    if not all(map(math.isfinite, np.ravel(out))):
        raise MeasureError(f"{what} leaves the float range")
    return out


def _ratio(x, what: str = "frequency") -> tuple:
    """(p, q) with x = p / q exactly, q > 0; anything but an int or a Fraction via _finite."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return int(x), 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    return _finite(x, what).as_integer_ratio()


def _phase_frac(num: int, den: int) -> complex:
    """exp(-2 pi i num/den) with the fraction reduced mod 1 in exact arithmetic."""
    return cmath.exp(-2j * math.pi * ((num % den) / den))


def phase_unit(xi, x) -> complex:
    """exp(-2 pi i xi x) with the phase reduced exactly.

    Both arguments may be ints of any size, Fractions or finite floats; the
    product xi*x is formed as an exact rational before reduction mod 1, so
    the result is a correctly rounded unit complex number even when xi*x is
    astronomically large.
    """
    return _phase_at(*_ratio(xi), x)


def _phase_at(p: int, q: int, x) -> complex:
    """exp(-2 pi i (p/q) x) for the exact frequency p/q and a position x."""
    px, qx = _ratio(x, "position")
    return _phase_frac(p * px, q * qx)


def _eplus_frac(num: int, den: int, turn=None) -> complex:
    """integral_0^1 exp(2 pi i g x) dx for g = num/den, exactly reduced.

    Equals exp(i pi g) sin(pi g)/(pi g); zero at nonzero integers, one at
    zero.  The sine argument is reduced mod 2 in integer arithmetic so the
    value stays accurate for huge |g|.  turn is _half_turn(num, den), for
    callers that share one half turn between numerators of the same residue
    mod 2*den; by default it is computed here.
    """
    if num == 0:
        return 1.0 + 0.0j
    if num % den == 0:
        return 0.0j
    shift = num.bit_length() - den.bit_length()
    if shift > 1020:
        return 0.0j  # modulus below 1/(pi 2^1019); underflows anyway
    if shift < -60:
        return 1.0 + 0.0j  # |g| < 2^-59: integral is 1 + O(g)
    rotation, sine = _half_turn(num, den) if turn is None else turn
    return rotation * (sine / (math.pi * (num / den)))


def _half_turn(num: int, den: int) -> tuple:
    """(exp(i pi r), sin(pi r)) for r = num/den, reduced mod 2 in exact
    arithmetic.

    The sine and cosine come from one pair at the nearer of r and +-1 - r,
    an angle of at most pi/2, so sin(pi r) keeps its relative accuracy near
    r = +-1 as well as near 0.  It depends on num only through num mod
    2*den, so callers whose numerators share that residue compute it once.
    """
    rr = num % (2 * den)  # g mod 2, exact, in [0, 2*den)
    if rr > den:
        rr -= 2 * den  # (-den, den]
    flip = 2 * abs(rr) > den
    if flip:
        rr = (den if rr > 0 else -den) - rr  # sin(pi r) = sin(pi (+-1 - r))
    angle = math.pi * (rr / den)
    c, s = math.cos(angle), math.sin(angle)
    return complex(-c if flip else c, s), s


# ---------------------------------------------------------------------------
# float kernels
#
# numpy exposes no fused multiply-add, so the exact product of two floats comes
# from Dekker's split (Dekker 1971): a = hi + lo with halves of at most 26
# significant bits, whose pairwise products are exact.  The error of the
# rounded product then follows in four exact steps (TwoProduct, as in Ogita,
# Rump and Oishi 2005).  A phase in turns is reduced to the nearest quarter
# turn exactly, so np.cos and np.sin only see angles of at most pi/4: their
# fast range, and every multiple of a quarter turn comes out exact.

_SPLITTER = 134217729.0  # 2^27 + 1

# Points per call of a variant's float rule, and the most cells a
# temporary of a self-similar grid block holds when the grid has fewer
# points.  The rules make a few dozen passes over their arrays, and at this
# size the temporaries stay in cache: on a 2-vCPU container a 200 000-point
# grid of a depth-14 digit product took 352 ms in one call and 101 ms in
# chunks of 8192.  Timed again on the grid-scan benchmark (seed 1, three
# 25 s runs each, medians): 117.7 ops/s at 4096, 120.0 at 8192 and 112.9 at
# 16384.
GRID_CHUNK = 1 << 13


def _split(a):
    """Dekker's split: (hi, lo) with a = hi + lo exactly, each of at most 26
    significant bits.  Valid below 2^995 in modulus."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_sum(a: float, b: float) -> tuple:
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_product(xs, y, parts=None) -> tuple:
    """(t, e) with t = fl(xs * y) and t + e = xs * y exactly, for an array xs
    (split once by the caller into parts, or here) and a float y, or a
    column of floats, one row of products each.  Where a
    split overflows (|xs| or |y| past 2^995) e is 0.  Two callers still
    reach that: a grid rule at xi = 0 with a position past 2^995, where t
    and the true error are both 0; and ft_quadrature's panel phases at |xi|
    past 2^995.  The grid band keeps every other grid point clear of it
    (Measure._grid_guard).  A scalar y of at most 26
    significant bits (grid positions such as k/32 or k/1024) splits with a
    zero low half, whose two products are left out: adding a zero to e
    changes no bit of it but its sign, which _frac clears."""
    t = xs * y
    with np.errstate(invalid="ignore", over="ignore"):
        xh, xl = _split(xs) if parts is None else parts
        yh, yl = _split(y)
        column = isinstance(y, np.ndarray)
        e = xh * yh - t
        if column or yl:
            e += xh * yl
        e += xl * yh
        if column or yl:
            e += xl * yl
    if not np.all(np.isfinite(e)):
        e = np.where(np.isfinite(e), e, 0.0)
    return t, e


def _exact_in_floats(y: float) -> bool:
    """True when every product with y is exact up to range: y is 0 or a
    power of two."""
    return y == 0.0 or abs(math.frexp(y)[0]) == 0.5


def _frac(x):
    """x minus its nearest integer, in [-1/2, 1/2]; exact."""
    return x - np.rint(x)


def _product_turns(xs, y, parts=None, y_lo=0.0) -> tuple:
    """(hi, lo) with hi + lo = xs * (y + y_lo) mod 1, from the exact product
    xs * y: hi is the rounded product, left for _unit_turns to reduce, and
    lo the rest, reduced to [-1/2, 1/2] turn.  y_lo is a small correction
    to y (the low half of a double-double position), whose product with xs
    is formed in floats and added to lo unreduced.  y and y_lo may be
    columns, one row of turns each; a column takes every product, and the
    zero ones that a scalar skips change no bit of hi + lo but the sign of
    a zero."""
    if not isinstance(y, np.ndarray) and _exact_in_floats(y):
        hi, lo = xs * y, 0.0
    else:
        hi, lo = _two_product(xs, y, parts)
        lo = _frac(lo)
    if isinstance(y_lo, np.ndarray) or y_lo:
        lo = lo + xs * y_lo
    return hi, lo


# exp(i k pi/2) at index k & 7, for every integer k.  The period is 8 rather
# than 4 so that the zero sine at a half turn carries the sign of
# k - 4 rint(k/4) (rounding half to even): +0.0 where k = 2 mod 8 and -0.0
# where k = 6 mod 8.  Every zero cosine is +0.0.
_QUARTER_TURNS = np.array([complex(1.0, 0.0), complex(0.0, 1.0), complex(-1.0, 0.0),
                           complex(0.0, -1.0), complex(1.0, 0.0), complex(0.0, 1.0),
                           complex(-1.0, -0.0), complex(0.0, -1.0)])


def _unit_turns(hi, lo=0.0):
    """exp(2 pi i r) over an array of turns r = hi + lo (or a scalar).

    hi is any finite float.  lo is a correction that need not be small
    against a turn: the self-similar rule passes a few turns.  hi is
    reduced exactly, once, to its offset from the quarter turn k/4 nearest
    hi + lo; lo is added to that offset, so the sum rounds at the size of
    the offset, not of hi, and a value near a zero of the sine or cosine
    keeps its relative accuracy (less about |lo| 2^-53 turns).  The cosine
    and sine at the offset (at most about 1/8 turn) are written straight
    into the real and imaginary parts, which one complex multiply then
    rotates by k quarter turns, read exactly from _QUARTER_TURNS.
    """
    r = _frac(hi)
    if np.ndim(lo) == 0 and lo == 0.0:
        k = np.rint(4.0 * r)
        r -= 0.25 * k
        turn = k.astype(np.intp)
    else:
        k = np.rint(4.0 * (r + lo))
        r -= 0.25 * k
        r += lo
        # An lo past 2^61 turns (an interval's product error, at
        # |xi (b - a)| past 2^115) puts k past the int range.  Such a k is
        # 0 mod 8, as is the INT_MIN that the quiet cast gives on x86-64;
        # where a cast saturates instead, those phases would take a wrong
        # quarter turn.
        with np.errstate(invalid="ignore"):
            turn = k.astype(np.intp)
    r *= 2.0 * math.pi
    out = np.empty(np.shape(r), dtype=complex)
    np.cos(r, out=out.real)
    np.sin(r, out=out.imag)
    out *= _QUARTER_TURNS.take(turn & 7)
    return out[()]


def _phase_vec(xs, x, parts=None, x_lo=0.0):
    """Float counterpart of phase_unit: exp(-2 pi i xs (x + x_lo)) over an
    array of xs (or a scalar), with xs * x reduced mod 1 from the exact
    product.

    No correction is made when x is a power of two, whose products are
    exact.  parts is the split of xs, for callers that form several phases
    of one frequency array.  x_lo is the low half of a double-double
    position (a window edge), whose product with xs is formed in floats.
    """
    return _unit_turns(*_product_turns(xs, -x, parts, -x_lo))


def _eplus_vec(hi, lo=0.0):
    """Float counterpart of _eplus_frac: integral_0^1 exp(2 pi i g x) dx over
    an array of g = hi + lo, given as parts formed without rounding, with lo
    of the order of an ulp of hi.

    g is reduced mod 2 from its parts exactly, and exp(i pi g) and
    sin(pi g) come from one unit; the value is exactly 1 at g = 0 and
    exactly 0 at every other integer.
    """
    out = _unit_turns(0.5 * hi, 0.5 * lo)
    # sin(pi g) / (pi g) rounds to 1 below 2^-30; it is not formed there,
    # because 0.5 * hi rounds below 2^-1021
    q = np.divide(out.imag, math.pi * hi, out=np.ones(np.shape(out)),
                  where=np.abs(hi) >= 2.0 ** -30)
    out.real *= q
    out.imag *= q
    return out


def oscillatory_integral(alpha, beta) -> complex:
    """integral_0^1 exp(2 pi i alpha x) sin(2 pi beta x) dx, in closed form.

    Splitting the sine into exponentials gives
    (E(alpha + beta) - E(alpha - beta)) / (2i) with E the unit-interval
    exponential integral.  Integer arguments are exact: (-l, l) gives -i/2
    for every positive integer l.  The modulus never exceeds
    1 / | |alpha| - |beta| | when the two moduli differ.  tests/test_oracle.py
    holds it to 16 u (u = 2^-53) relative against a 60-digit oracle, also
    where the two terms cancel and where |alpha| and |beta| are far below 1.
    """
    pa, qa = _ratio(alpha)
    pb, qb = _ratio(beta)
    if 8 * abs(pa) <= qa and 8 * abs(pb) <= qb:
        # Both E(a +- b) are 1 + O(a +- b) here, so their difference, about
        # pi b, would lose about u / |b|.  The power series instead,
        #   sum_k i^(k-1) / (k+1)! sum_{odd j <= k} C(k, j) A^(k-j) B^j,
        # with A = 2 pi a and B = 2 pi b: for each k the inner terms share
        # one sign, and with |A| + |B| <= pi / 2 the terms past k = 29 are
        # below 2^-85 of the first.  The smallest terms are added first.
        big_a = 2.0 * math.pi * (pa / qa)
        big_b = 2.0 * math.pi * (pb / qb)
        re = im = 0.0
        for k in range(29, 0, -1):
            term = sum(math.comb(k, j) * big_a ** (k - j) * big_b ** j
                       for j in range(1, k + 1, 2)) / math.factorial(k + 1)
            if k % 4 in (0, 3):
                term = -term  # i^(k-1) is -i or -1
            if k % 2:
                re += term
            else:
                im += term
        return complex(re, im)
    den = qa * qb
    plus = pa * qb + pb * qa  # (a + b) den
    minus = pa * qb - pb * qa  # (a - b) den
    near, far = sorted((abs(plus), abs(minus)))
    # E(a + b) and E(a - b) cancel where a + b and a - b are within a factor
    # of two of each other, as for |b| small against |a|.  There
    # e(a) = exp(2 pi i a) is factored out of both:
    #   -e(a) [4 kb sin(pi (a+b)) sin(pi (b-a)) + 2i (ka sin 2 pi b - kb sin 2 pi a)] / (4 pi)
    # with ka = a / (a^2 - b^2) and kb = b / (a^2 - b^2), each rounded once
    # from exact ints, and every sine from _half_turn.  That form cancels in
    # turn where a is close to +-b, where the plain difference is kept; so
    # it is below 2^-60, where ka and kb could leave the float range.
    if 2 * near < far or far < den >> 60:
        return (_eplus_frac(plus, den) - _eplus_frac(minus, den)) / 2j
    sq_diff = plus * minus  # (a^2 - b^2) den^2
    ka = pa * qa * qb * qb / sq_diff
    kb = pb * qb * qa * qa / sq_diff
    ea, sin2a = _half_turn(2 * pa, qa)
    sin2b = _half_turn(2 * pb, qb)[1]
    sines = _half_turn(plus, den)[1] * _half_turn(-minus, den)[1]
    return -ea * complex(4.0 * kb * sines, 2.0 * (ka * sin2b - kb * sin2a)) / (4.0 * math.pi)

"""Finite incidence models for the annihilator ("perp") calculus.

An IncidenceModel is an nx-by-ny matrix of nonnegative pairings between two
index families.  perp maps a subset of one side to the subset of the other
side pairing to exactly zero with every member.  Subsets are bitmasks
(Python ints, so any width), and each index carries the mask of the
opposite-side indices it pairs to zero with, so perp(D) is the AND of the
zero masks of D's members.  The lattice identities checked here
(double-perp containment, antitonicity, triple-perp collapse, and the two
de-Morgan style family laws) hold for any Galois connection and are
verified exactly, with random counterexample search as the test harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .measures import Atomic, MeasureError, _finite, _integer

__all__ = [
    "IncidenceModel",
    "SubsetPair",
    "perp",
    "check_perp_properties",
    "quasiconvex_weights",
    "decompose_atomic",
]

_SIDES = ("left", "right")
# Per trial of check_perp_properties: D, D2, the mask that thins D2 to D1,
# and up to three family members.
_SUBSETS = 6
# Random bytes per block of trials (one trial's at least), so that memory
# stays flat however many trials are asked for.
_BLOCK_BYTES = 1 << 16


def _shape(nx, ny) -> tuple:
    """(nx, ny) as ints, each at least 1."""
    nx, ny = _integer(nx, "nx"), _integer(ny, "ny")
    if nx < 1 or ny < 1:
        raise MeasureError("model needs at least one index on each side")
    return nx, ny


@dataclass(frozen=True)
class IncidenceModel:
    """Nonnegative pairing matrix between a left and a right index family.

    zero_right[i] has bit j set, and zero_left[j] has bit i set, when
    pairing[i][j] == 0.0.
    """

    nx: int
    ny: int
    pairing: tuple
    zero_right: tuple = field(init=False, repr=False, compare=False)
    zero_left: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nx, ny = _shape(self.nx, self.ny)
        rows = tuple(tuple(_finite(x, "pairing") for x in row) for row in self.pairing)
        if len(rows) != nx or any(len(r) != ny for r in rows):
            raise MeasureError(f"pairing must be {nx} x {ny}")
        if any(x < 0 for r in rows for x in r):
            raise MeasureError("pairings must be nonnegative")
        for name, value in (("nx", nx), ("ny", ny), ("pairing", rows)):
            object.__setattr__(self, name, value)
        zero_right, zero_left = [0] * nx, [0] * ny
        for i, r in enumerate(rows):
            for j, x in enumerate(r):
                if x == 0.0:
                    zero_right[i] |= 1 << j
                    zero_left[j] |= 1 << i
        object.__setattr__(self, "zero_right", tuple(zero_right))
        object.__setattr__(self, "zero_left", tuple(zero_left))

    @classmethod
    def random(cls, rng, nx: int, ny: int, zero_prob: float = 0.5):
        """Random model: each pairing is 0 with probability zero_prob, a
        number in [0, 1].

        One array draw decides the zero pattern and one the nonzero values,
        integers 1 to 9, both row by row.
        """
        shape = _shape(nx, ny)
        zero_prob = _finite(zero_prob, "zero_prob")
        if not 0.0 <= zero_prob <= 1.0:
            raise MeasureError(f"zero_prob must lie in [0, 1], got {zero_prob}")
        zero = rng.random(shape) < zero_prob
        values = np.where(zero, 0.0, rng.integers(1, 10, shape))
        return cls(nx, ny, tuple(map(tuple, values.tolist())))


@dataclass(frozen=True)
class SubsetPair:
    """A subset of one side of a model: side is 'left' or 'right'."""

    side: str
    members: frozenset

    def __post_init__(self):
        if self.side not in _SIDES:
            raise MeasureError(f"side must be one of {_SIDES}")
        object.__setattr__(self, "members", frozenset(_integer(i, "member") for i in self.members))


def _check_range(model: IncidenceModel, d: SubsetPair) -> None:
    size = model.nx if d.side == "left" else model.ny
    if any(i < 0 or i >= size for i in d.members):
        raise MeasureError(f"subset indices out of range for side {d.side}")


def _perp_mask(masks: tuple, full: int, d: int) -> int:
    """perp on bitmasks: the AND of masks[i] over the members i of d.

    masks[i] is the zero mask of index i on d's side; the empty set maps to
    full, the whole opposite side.
    """
    out = full
    while d and out:
        low = d & -d
        out &= masks[low.bit_length() - 1]
        d ^= low
    return out


def perp(model: IncidenceModel, d: SubsetPair) -> SubsetPair:
    """Elements of the opposite side pairing to exactly 0.0 with all of d.

    The empty subset maps to the full opposite side.
    """
    _check_range(model, d)
    if d.side == "left":
        other, masks, size = "right", model.zero_right, model.ny
    else:
        other, masks, size = "left", model.zero_left, model.nx
    members = sum(1 << i for i in d.members)
    return _subset(other, _perp_mask(masks, (1 << size) - 1, members))


def _subset(side: str, mask: int) -> SubsetPair:
    return SubsetPair(side, frozenset(
        i for i in range(mask.bit_length()) if mask >> i & 1))


def _trial_draws(rng, trials: int, sizes: tuple):
    """Per trial: its side k (an index into sizes), D, D2, D1 and the family.

    A block of trials takes three draws: the sides, the family sizes (2 or
    3) and _SUBSETS random bitmasks per trial as bytes, eight members a
    byte, each mask cut to its trial's side.  D1 is D2 thinned by the third
    mask.  Every member is kept with probability 1/2, independently.
    """
    nbytes = (max(sizes) + 7) // 8
    step = _SUBSETS * nbytes
    block = max(1, _BLOCK_BYTES // step)
    full = [(1 << n) - 1 for n in sizes]
    for start in range(0, trials, block):
        n = min(block, trials - start)
        ks = rng.integers(0, 2, n).tolist()
        n_fams = rng.integers(2, 4, n).tolist()
        raw = rng.bytes(n * step)
        for off, k, n_fam in zip(range(0, n * step, step), ks, n_fams):
            d, d2, keep, *fam = (
                int.from_bytes(raw[o:o + nbytes], "little") & full[k]
                for o in range(off, off + (3 + n_fam) * nbytes, nbytes))
            yield k, d, d2, d2 & keep, fam


def check_perp_properties(model: IncidenceModel, trials: int, rng) -> dict:
    """Random exact verification of the five lattice laws of perp.

    Per trial: draw subsets D, D1 subset D2 and a family of 2 or 3 subsets,
    all on a random side, and check

      i   D is contained in perp(perp(D)),
      ii  D1 subset D2 implies perp(D2) subset perp(D1),
      iii perp(perp(perp(D))) == perp(D),
      iv  the union of the perps is contained in the perp of the
          family's intersection,
      v   the intersection of the perps equals the perp of the union.

    Subsets are bitmasks; a <= b is a & ~b == 0.  Each subset keeps each
    member with probability 1/2, drawn for a block of trials at a time
    (_trial_draws).  Returns violation counts per law and the first
    counterexample found.
    """
    trials = _integer(trials, "trials")
    if trials < 0:
        raise MeasureError(f"trials must be >= 0, got {trials}")
    counts = {"double_perp": 0, "antitone": 0, "triple_perp": 0,
              "family_intersection": 0, "family_union": 0}
    first = None
    # per side: its members' zero masks, the opposite full mask
    sides = ((model.zero_right, (1 << model.ny) - 1),
             (model.zero_left, (1 << model.nx) - 1))

    for t, (k, d, d2, d1, fam) in enumerate(
            _trial_draws(rng, trials, (model.nx, model.ny))):
        side = _SIDES[k]
        fwd, full = sides[k]
        back, full_back = sides[1 - k]

        p = _perp_mask(fwd, full, d)
        dpp = _perp_mask(back, full_back, p)
        if d & ~dpp:
            counts["double_perp"] += 1
            first = first or ("double_perp", t, _subset(side, d))

        if _perp_mask(fwd, full, d2) & ~_perp_mask(fwd, full, d1):
            counts["antitone"] += 1
            first = first or ("antitone", t, (_subset(side, d1), _subset(side, d2)))

        if _perp_mask(fwd, full, dpp) != p:
            counts["triple_perp"] += 1
            first = first or ("triple_perp", t, _subset(side, d))

        inter, union = full_back, 0
        union_of_perps, inter_of_perps = 0, full
        for f in fam:
            inter &= f
            union |= f
            pf = _perp_mask(fwd, full, f)
            union_of_perps |= pf
            inter_of_perps &= pf
        if union_of_perps & ~_perp_mask(fwd, full, inter):
            counts["family_intersection"] += 1
            first = first or ("family_intersection", t, [_subset(side, f) for f in fam])
        if inter_of_perps != _perp_mask(fwd, full, union):
            counts["family_union"] += 1
            first = first or ("family_union", t, [_subset(side, f) for f in fam])

    return {"trials": trials, "violations": counts,
            "total_violations": sum(counts.values()),
            "first_counterexample": repr(first) if first else None}


def quasiconvex_weights(constants) -> tuple:
    """Weights p_k proportional to 1 / (2^k C_k), k counted from 1.

    Each C_k must be >= 1.  The weights sum to 1, and p_k C_k is
    proportional to 2^-k, so the mixed constant sum_k p_k C_k stays finite
    even when the C_k are unbounded.
    """
    cs = tuple(_finite(c, "constant") for c in constants)
    if not cs or min(cs) < 1.0:
        raise MeasureError("need at least one constant, each >= 1")
    # exact rationals, rounded once at the end: a float 2^(k+1) C_k would
    # overflow to inf for a large constant and drop its weight to 0
    raw = [Fraction(1, 2 ** (k + 1)) / Fraction(c) for k, c in enumerate(cs)]
    total = sum(raw)
    return tuple(float(a / total) for a in raw)


def decompose_atomic(mu: Atomic, family) -> tuple:
    """Split mu into the part supported on the family's atoms and the rest.

    family is an iterable of Atomic measures; E is the sorted tuple of
    positions of mu that some family member charges.  Returns (mu_on_E,
    mu_off_E, E); either part may be the empty (zero) measure.  The split is
    an exact partition: weights are moved, never recomputed.
    """
    if not isinstance(mu, Atomic):
        raise MeasureError("decompose_atomic needs an atomic measure")
    covered = set()
    for member in family:
        if not isinstance(member, Atomic):
            raise MeasureError("family members must be atomic measures")
        covered.update(pos for pos, _ in member.atoms)
    on = tuple((pos, w) for pos, w in mu.atoms if pos in covered)
    off = tuple((pos, w) for pos, w in mu.atoms if pos not in covered)
    e = tuple(sorted(pos for pos, _ in on))
    return Atomic(on), Atomic(off), e

"""Seeded generators of experiment configs for the three workloads.

Each workload is a fixed deck of op slots dealt in the same order every
cycle; the seed only draws the measures, schedules and sizes inside each
slot.  The op mix and the share of each frequency class are therefore the
same in every run, while the inputs differ from seed to seed.  The program
sees nothing but the configs written from these dicts.

Frequencies past 2^1020 ("deep" slots: one exponent in [1040, 1100] per deep
Lacunary schedule, one power 3^k with k in [660, 700] per deep explicit
schedule) appear on the lacunary-trig, digit-product and window-cut families
of ``exact-probe``.  Ops the program gets wrong today are kept out of the
timed workloads and dealt by the ``known-defects`` deck instead (README.md).
"""

from __future__ import annotations

import random

# (experiment, family, schedule) per slot; see README.md for the reasons.
# Eight slots cost less than slot 9 (trig transform with Filon checks), so
# the median falls inside its band, and the 90th percentile inside slot 16's.
EXACT_PROBE = (
    ("decay", "self_similar", "dyadic"),
    ("decay", "digit_product", "dyadic"),
    ("decay", "smooth_cut", "dyadic_cut"),
    ("decay", "lacunary_trig", "lacunary_deep"),
    ("decay", "self_similar", "lacunary"),
    ("decay", "mixture", "dyadic"),
    ("transform", "digit_product", "lacunary_deep"),
    ("transform", "lacunary_trig", "lacunary_deep"),
    ("transform", "smooth_cut", "lacunary_deep"),
    ("transform", "trig", "dyadic_quad"),
    ("transform", "self_similar", "explicit3k"),
    ("transform", "mixture", "explicit3k"),
    ("stability", ("self_similar", "digit_product"), "dyadic"),
    ("stability", ("smooth_cut", "intervals"), "lacunary"),
    ("cantor", None, None),
    ("measex", None, None),
    ("transform", "smooth_cut_trig", "dyadic_cut_quad"),
)

# The exact-probe slots whose outputs are wrong today: self-similar
# transforms past 2^1020 are truncated (ROADMAP item 1), and window cuts are
# inexact where poly_exp_integral's series branch runs near its cutoff
# (2 pi |xi - f| * radius just below 12 + 2 * degree, f a trig frequency).
# Not part of any timed workload, so that a run's outputs can all be
# correct; run this deck to see whether they still fail.
KNOWN_DEFECTS = (
    ("decay", "self_similar", "lacunary_deep"),
    ("transform", "mixture", "explicit3k_deep"),
    ("decay", "smooth_cut", "dyadic_short"),
    ("transform", "smooth_cut_trig_low", "dyadic_short_quad"),
)

# Slots sit in cost bands (cheap, wiener and setex, mid energy, digit-product
# energy) so that the median falls inside the wiener/setex band and the 90th
# percentile inside the digit-product pair, not on a boundary between bands.
GRID_SCAN = (
    ("energy", "digit_product", None),
    ("energy", "digit_product", None),
    ("energy", "smooth_cut", None),
    ("energy", "intervals", None),
    ("wiener", "atomic", 1500.0),
    ("wiener", "atomic", 1500.0),
    ("lowerbound", "intervals", None),
    ("lowerbound", "affine", None),
    ("energy", "atomic_mixture", None),
    ("setex", None, None),
)

# Four light ops and one heavy: the median falls inside the light band and
# the 90th percentile inside the heavy one.
LATTICE = (("galois", "light", None),) * 4 + (("galois", "heavy", None),)

DECKS = {"exact-probe": EXACT_PROBE, "grid-scan": GRID_SCAN, "lattice": LATTICE,
         "known-defects": KNOWN_DEFECTS}
# Deck cycles in the set of distinct ops a run replays: a pass over the set
# takes 2-3 s, so a 25 s run times every op eight or more times.
PASS_CYCLES = {"exact-probe": 8, "grid-scan": 3, "lattice": 8, "known-defects": 8}


def _grid(rng: random.Random, lo: float, hi: float, n: int, step: float = 1 / 1024) -> list:
    """n distinct sorted multiples of step in (lo, hi)."""
    k_lo, k_hi = int(lo / step) + 1, int(hi / step) - 1
    return [k * step for k in sorted(rng.sample(range(k_lo, k_hi + 1), n))]


# ---------------------------------------------------------------------------
# measure families


def intervals(rng, lo=0.0, hi=1.0) -> dict:
    pts = _grid(rng, lo, hi, 4)
    return intervals_of(zip(pts[::2], pts[1::2]))


def trig(rng, n=2, freqs=range(1, 25)) -> dict:
    freqs = rng.sample(freqs, n)
    amps = [rng.uniform(-0.9, 0.9) / n for _ in freqs]
    return {"variant": "TrigDensity",
            "terms": [{"amplitude": c, "frequency": f} for c, f in zip(amps, freqs)]}


def lacunary_trig(rng, depth: int) -> dict:
    """1 + sign * sum_k 2^-k sin(2 pi 2^(k^2) x): spikes of modulus 2^-(k+1)."""
    sign = rng.choice((1, -1))
    return {"variant": "TrigDensity",
            "terms": [{"amplitude": sign * 2.0 ** -k, "frequency": 2 ** (k * k)}
                      for k in range(1, depth + 1)]}


def self_similar(rng, base=None) -> dict:
    base = base or rng.choice((3, 3, 4, 5))
    digits = sorted(rng.sample(range(base), 2))
    return {"variant": "SelfSimilarDigit", "base": base, "allowed_digits": digits}


def digit_product(rng, depth=14, block_length=None) -> dict:
    """Two blocks of 1-3 digits (or of block_length) with a random forbidden
    pattern each, within the first 8 digits."""
    blocks, pos = [], rng.randint(0, 1)
    for _ in range(2):
        length = block_length or rng.randint(1, 3)
        pattern = "".join(rng.choice("01") for _ in range(length))
        blocks.append({"offset": pos, "length": length, "forbidden_pattern": pattern})
        pos += length + rng.randint(0, 1)
    return {"variant": "DigitProduct", "base": 2, "depth": depth, "blocks": blocks}


def smooth_cut(rng, inner=None) -> dict:
    """Order-3 polynomial window on a uniform density on [0, 1] (or on the
    given single interval, centred inside it)."""
    if inner is None:
        inner = intervals_of([(0.0, 1.0)])
    (iv,) = inner["intervals"]
    return {"variant": "SmoothCutDensity", "inner": inner,
            "center": round(rng.uniform(max(iv["a"], 0.3), min(iv["b"], 0.7)), 4),
            "radius": round(rng.uniform(0.2, 0.5), 4), "order": 3}


def smooth_cut_trig(rng, freqs=range(25, 41)) -> dict:
    """Order-3 polynomial window on a one-term trigonometric density.

    Frequencies of 25 or more keep every piece integral off the inexact
    series branch; the known-defects deck draws them from 1 .. 24.
    """
    m = smooth_cut(rng)
    m["inner"] = trig(rng, n=1, freqs=freqs)
    return m


def intervals_of(pairs) -> dict:
    return {"variant": "UniformOnIntervals",
            "intervals": [{"a": a, "b": b} for a, b in pairs]}


def mixture(rng) -> dict:
    other = intervals(rng) if rng.random() < 0.5 else trig(rng)
    w = round(rng.uniform(0.2, 0.8), 4)
    return {"variant": "Mixture",
            "components": [{"variant": "SelfSimilarDigit", "base": 3,
                            "allowed_digits": [0, 2]}, other],
            "weights": [w, 1.0 - w]}


def atomic(rng) -> dict:
    """Three atoms at least 1/32 apart, so Wiener averages settle by T = 1000."""
    pos = _grid(rng, 0.0, 1.0, 3, 1 / 32)
    w = [rng.uniform(0.2, 1.0) for _ in pos]
    return {"variant": "Atomic", "atoms": [{"position": p, "weight": x} for p, x in zip(pos, w)]}


_FAMILIES = {"self_similar": self_similar, "digit_product": digit_product,
             "smooth_cut": smooth_cut, "smooth_cut_trig": smooth_cut_trig,
             "smooth_cut_trig_low": lambda rng: smooth_cut_trig(rng, range(1, 25)),
             "trig": trig, "mixture": mixture,
             "intervals": intervals}


# ---------------------------------------------------------------------------
# schedules


def dyadic(name: str) -> dict:
    """Windows 2^2 .. 2^16, 16 samples each.  Window cuts, whose scalar
    transform costs ten times more per frequency, get 8 samples per window on
    2^6 .. 2^16 ("cut") or, in the known-defects deck, on 2^2 .. 2^12 ("short")."""
    if "_cut" in name:
        return {"variant": "DyadicWindows", "min_exp": 6, "max_exp": 16,
                "samples_per_window": 8}
    if "_short" in name:
        return {"variant": "DyadicWindows", "min_exp": 2, "max_exp": 12,
                "samples_per_window": 8}
    return {"variant": "DyadicWindows", "min_exp": 2, "max_exp": 16,
            "samples_per_window": 16}


def lacunary(rng, deep: bool, exps=()) -> dict:
    exps = set(exps) | set(rng.sample(range(8, 1001), 10))
    if deep:
        exps.add(rng.randint(1040, 1100))
    return {"variant": "Lacunary", "exponents": sorted(exps), "multipliers": 2}


def explicit3k(rng, deep: bool) -> dict:
    ks = set(rng.sample(range(1, 601), 10))
    if deep:
        ks.add(rng.randint(660, 700))
    return {"variant": "Explicit", "frequencies": [3 ** k for k in sorted(ks)]}


# ---------------------------------------------------------------------------
# ops


class Generator:
    """Deals op dicts {"kind", "slot", "config"} for one workload and seed."""

    def __init__(self, workload: str, seed: int):
        self.deck = DECKS[workload]
        self.rng = random.Random(f"{workload}:{seed}")
        self.count = 0

    def __iter__(self):
        return self

    def __next__(self) -> dict:
        slot = self.count % len(self.deck)
        self.count += 1
        kind, family, extra = self.deck[slot]
        cfg = {"experiment": kind, "seed": self.rng.randrange(1 << 30)}
        cfg.update(getattr(self, "_" + kind)(family, extra))
        return {"kind": kind, "slot": slot, "config": cfg}

    # exact-probe ---------------------------------------------------------

    def _measure(self, family):
        if family == "lacunary_trig":
            return lacunary_trig(self.rng, self.rng.randint(4, 8))
        return _FAMILIES[family](self.rng)

    def _schedule(self, name, measure):
        rng = self.rng
        if name.startswith("dyadic"):
            return dyadic(name)
        if name.startswith("explicit3k"):
            return explicit3k(rng, name.endswith("deep"))
        spikes = [int(t["frequency"]).bit_length() - 1 for t in measure.get("terms", ())]
        return lacunary(rng, name.endswith("deep"), spikes)

    def _decay(self, family, sched):
        rng = self.rng
        if family == "lacunary_trig" and sched.endswith("deep"):
            m = lacunary_trig(rng, rng.randint(33, 36))  # spikes past 2^1020
        elif family == "self_similar" and sched.endswith("deep"):
            # base 4: ft(2^e j) = ft(2^(e mod 2) j) keeps its size at any depth
            m = self_similar(rng, 4)
        else:
            m = self._measure(family)
        return {"measure": m, "schedule": self._schedule(sched, m),
                "params": {"max_capped_dim": 1.0}}

    def _transform(self, family, sched):
        m = self._measure(family)
        params = {}
        if sched.endswith("quad"):
            params = {"quadrature_count": 2, "quadrature_tol": 1e-9}
        return {"measure": m, "schedule": self._schedule(sched, m), "params": params}

    def _stability(self, families, sched):
        m1, m2 = (_FAMILIES[f](self.rng) for f in families)
        return {"measure": m1, "schedule": self._schedule(sched, m1),
                "params": {"measure2": m2, "slack": 0.05}}

    def _cantor(self, family, extra):
        return {"params": {"k_max": self.rng.randint(16, 24)}}

    def _measex(self, family, extra):
        rng = self.rng
        return {"params": {"identity_depth": 4,
                           "decay_depth": rng.randint(30, 36),
                           "seed": rng.randrange(1 << 20)}}

    # grid-scan -----------------------------------------------------------

    def _energy(self, family, extra):
        rng = self.rng
        if family == "atomic_mixture":
            m = {"variant": "Mixture", "components": [atomic(rng), intervals(rng)],
                 "weights": [0.5, 0.5]}  # an atom makes both energies infinite
        elif family == "digit_product":
            m = digit_product(rng, 8, block_length=2)  # the cost goes with the block lengths
        elif family == "smooth_cut":
            a = round(rng.uniform(0.05, 0.3), 4)
            m = smooth_cut(rng, intervals_of([(a, round(a + rng.uniform(0.4, 0.65), 4))]))
        else:
            m = intervals(rng)
        return {"measure": m, "params": {"s": round(rng.uniform(0.2, 0.8), 3)}}

    def _wiener(self, family, horizon):
        return {"measure": atomic(self.rng), "params": {"T": horizon}}

    def _lowerbound(self, family, extra):
        rng = self.rng
        eps = round(rng.uniform(0.1, 0.5), 4)
        if family == "intervals":
            m = intervals(rng, eps, 1.0)
        else:
            inner = trig(rng) if rng.random() < 0.5 else digit_product(rng, 10)
            start = round(rng.uniform(eps, 0.6), 4)
            m = {"variant": "AffineImage", "inner": inner, "scale": 1.0 - start,
                 "offset": start, "mod1": False}
        return {"measure": m, "params": {"eps": eps, "j_max": 100000}}

    def _setex(self, family, extra):
        return {"params": {"n": 1, "K": 4, "j_max": 100000}}

    # lattice -------------------------------------------------------------

    def _galois(self, size, extra):
        # The cost goes with models * trials * nx * ny: the seed draws the
        # model count and the shape, and trials and ny follow from them, so
        # that the cost of a slot varies little from seed to seed.
        rng = self.rng
        if size == "heavy":
            models, work, nx, sides = rng.randint(24, 30), 480, rng.randint(9, 10), 19
        else:
            models, work, nx, sides = rng.randint(8, 12), 100, rng.randint(6, 8), 14
        return {"params": {"models": models, "trials": round(work / models), "nx": nx,
                           "ny": sides - nx, "decompositions": rng.randint(20, 30)}}


def freq_class(x) -> str:
    """Magnitude class of a schedule frequency, as counted in the shares."""
    if not isinstance(x, int):
        return "float"
    if abs(x) > 1 << 1020:
        return "int_gt_2^1020"
    return "int_ge_2^53" if abs(x) >= 1 << 53 else "int_lt_2^53"


FREQ_CLASSES = ("float", "int_lt_2^53", "int_ge_2^53", "int_gt_2^1020")

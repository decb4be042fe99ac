"""Output checks: each op's exit code and written JSON/CSV against references.

Transform values must agree with the reference to within
``ATOL * mass + RTOL * |reference|``.  ATOL and RTOL cover the program's
documented approximations (the self-similar product stops once
|xi| / base^n < 1e-8; the float grid route keeps phases to about 1e-8 below
its guard) and nothing larger.  Window exponents, liminf proxies and capped
dimensions are checked by interval arithmetic: every window maximum may
move within its tolerance, and the printed exponent must lie inside the
interval that movement allows.  Estimators without a finite closed form
for their own output (energies, Wiener averages with a density part) are
checked against the closed-form quantity they estimate, within the budget
of the experiment's own claim.
"""

from __future__ import annotations

import csv
import json
import math
import random

import reference as ref

ATOL = 1e-9
RTOL = 1e-6
ENERGY_RTOL = 0.02
PERP_MODELS = 3  # seeded incidence models per galois op
PERP_SUBSETS = 6  # random subsets per side of each model, besides empty and full


class Mismatch(Exception):
    """An op's output disagrees with its reference."""


def _expect(cond: bool, what: str):
    if not cond:
        raise Mismatch(what)


def _inside(x: float, interval: tuple) -> bool:
    return interval[0] - 1e-12 <= x <= interval[1] + 1e-12


def _xi(text: str):
    return float(text) if any(c in text for c in ".eEn") else int(text)


# ---------------------------------------------------------------------------
# schedules (the documented frequency sets)


def frequencies(s: dict) -> list:
    v = s["variant"]
    if v == "DyadicWindows":
        spw = s.get("samples_per_window", 16)
        return [2.0 ** (e + i / spw) for e in range(s["min_exp"], s["max_exp"] + 1)
                for i in range(spw)]
    if v == "Lacunary":
        return sorted({(1 << e) * j for e in s["exponents"]
                       for j in range(1, s.get("multipliers", 1) + 1)})
    if v == "Explicit":
        return sorted(s["frequencies"], key=abs)
    raise ValueError(f"no frequency rule for schedule {v}")


def _canonical(x):
    """Integer-valued floats below 2^53 are integers, as frequencies."""
    if isinstance(x, float) and x.is_integer() and abs(x) < 2 ** 53:
        return int(x)
    return x


def _window(x) -> int:
    return x.bit_length() - 1 if isinstance(x, int) else math.frexp(x)[1] - 1


_PRESET_DYADIC = {"variant": "DyadicWindows", "min_exp": 4, "max_exp": 20,
                  "samples_per_window": 16}
_CANTOR = {"variant": "SelfSimilarDigit", "base": 3, "allowed_digits": [0, 2]}


def _lacunary_trig(sign: int, depth: int) -> dict:
    return {"variant": "TrigDensity",
            "terms": [{"amplitude": sign * 2.0 ** -k, "frequency": 2 ** (k * k)}
                      for k in range(1, depth + 1)]}


# ---------------------------------------------------------------------------


class Checker:
    """Checks ops, memoising reference values by (measure, argument).

    lattice is the program's bandlattice module, whose perp the galois
    check compares with the reference.
    """

    def __init__(self, lattice, corrupt: bool = False):
        # corrupt=True scales every reference value by 1.01 and drops the
        # highest index from every reference perp; only the self-test sets
        # it, to show that the checks can fail.
        self.lattice = lattice
        self.scale = 1.01 if corrupt else 1.0
        self.corrupt = corrupt
        self._memo = {}
        self._alive = {}
        self._presets = {}

    def _preset(self, key, build):
        """The same measure dict for the same preset key, so references memoise."""
        if key not in self._presets:
            self._presets[key] = build()
        return self._presets[key]

    def _ref(self, fn, m: dict, arg):
        # measure dicts are keyed by identity, and kept alive so ids stay unique
        self._alive.setdefault(id(m), m)
        key = (fn.__name__, id(m), arg)
        if key not in self._memo:
            self._memo[key] = fn(m, arg) * self.scale
        return self._memo[key]

    def ft(self, m: dict, xi) -> complex:
        return self._ref(ref.ft, m, xi)

    def check(self, op: dict, rc: int, prefix: str) -> None:
        """Raise Mismatch when the op's exit code or outputs are wrong."""
        rows = None
        try:
            with open(prefix + ".json") as fh:
                summary = json.load(fh)
        except FileNotFoundError:
            raise Mismatch(f"no summary written (exit {rc})") from None
        try:
            with open(prefix + ".csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
        except FileNotFoundError:
            pass
        codes = getattr(self, "_" + op["kind"])(op["config"], summary, rows)
        _expect(rc in codes, f"exit code {rc}, expected {sorted(codes)}")

    # windowed decay ------------------------------------------------------

    def _tol(self, value, total: float) -> float:
        return ATOL * total + RTOL * abs(value)

    def _windows(self, m: dict, freqs) -> list:
        """Per window: (exponent, reference max |ft|, tolerance, exponent range).

        The exponent range holds -2 log2(M) / (e + 1/2) for every window
        maximum M within tolerance of the reference.
        """
        total = ref.mass(m)
        best = {}
        for x in freqs:
            v = abs(self.ft(m, _canonical(x)))
            e = _window(x)
            best[e] = max(v, best.get(e, 0.0))
        out = []
        for e in sorted(best):
            mx = best[e]
            tol = self._tol(mx, total)
            lo = -2.0 * math.log2(mx + tol) / (e + 0.5)
            hi = math.inf if mx <= tol else -2.0 * math.log2(mx - tol) / (e + 0.5)
            out.append((e, mx, tol, (lo, hi)))
        return out

    @staticmethod
    def _liminf(wins) -> tuple:
        """Allowed (liminf proxy, capped dimension) intervals: top half of windows."""
        top = [r for *_, r in wins[len(wins) // 2:]]
        lim = (min(lo for lo, _ in top), min(hi for _, hi in top))
        return lim, tuple(min(1.0, max(x, 0.0)) for x in lim)

    def _capped(self, m: dict, freqs) -> tuple:
        return self._liminf(self._windows(m, freqs))[1]

    def _window_rows(self, rows, m: dict, freqs) -> tuple:
        """Check one measure's window rows; return the allowed (liminf, capped)."""
        wins = self._windows(m, freqs)
        _expect(rows is not None and len(rows) == len(wins),
                f"{len(rows or ())} window rows, expected {len(wins)}")
        for row, (e, mx, tol, (lo, hi)) in zip(rows, wins):
            _expect(int(row["exp_lo"]) == e and int(row["exp_hi"]) == e + 1,
                    f"window {row['exp_lo']} where {e} was expected")
            got = float(row["max_abs"])
            _expect(abs(got - mx) <= tol,
                    f"window 2^{e}: max_abs {got!r}, reference {mx!r}")
            local = float(row["local_exponent"])
            _expect(_inside(local, (lo, hi)),
                    f"window 2^{e}: exponent {local!r} outside [{lo}, {hi}]")
        return self._liminf(wins)

    @staticmethod
    def _passed(summary, lo_ok: bool, hi_ok: bool) -> set:
        """Exit codes allowed when the claim holds (or not) at either end of
        the interval its inputs may take; the passed flag must match."""
        codes = {0 if lo_ok else 4, 0 if hi_ok else 4}
        _expect(summary["passed"] in {c == 0 for c in codes}, "passed flag")
        return codes

    # exact-probe -----------------------------------------------------------

    def _decay(self, cfg, summary, rows):
        lim, capped = self._window_rows(rows, cfg["measure"], frequencies(cfg["schedule"]))
        _expect(summary["windows"] == len(rows), "window count")
        _expect(_inside(float(summary["liminf_proxy"]), lim), "liminf_proxy")
        _expect(_inside(float(summary["capped_dim"]), capped),
                f"capped_dim {summary['capped_dim']!r} outside {capped}")
        params = cfg.get("params", {})
        top = params.get("max_capped_dim", math.inf)
        bottom = params.get("min_capped_dim", -math.inf)
        lo, hi = capped
        return self._passed(summary, bottom <= lo <= top, bottom <= hi <= top)

    def _transform(self, cfg, summary, rows):
        m = cfg["measure"]
        freqs = frequencies(cfg["schedule"])
        total = ref.mass(m)
        _expect(rows is not None and len(rows) == len(freqs),
                f"{len(rows or ())} rows for {len(freqs)} frequencies")
        _expect(summary["n_samples"] == len(freqs), "n_samples")
        _expect(abs(summary["mass"] - total) <= ATOL * total, "mass")
        biggest = 0.0
        for row, x in zip(rows, freqs):
            _expect(_xi(row["xi"]) == x, f"frequency {row['xi'][:40]} where {x} was expected")
            want = self.ft(m, _canonical(x))
            got = complex(float(row["re"]), float(row["im"]))
            _expect(abs(got - want) <= self._tol(want, total),
                    f"ft at {row['xi'][:40]}: {got!r}, reference {want!r}")
            biggest = max(biggest, abs(want))
        _expect(abs(summary["max_abs"] - biggest) <= self._tol(biggest, total), "max_abs")
        params = cfg.get("params", {})
        count = params.get("quadrature_count", 0)
        _expect(summary["quadrature_checked"] == count, "quadrature_checked")
        if count:
            budget = 100.0 * params.get("quadrature_tol", 1e-9) + 1e-9
            _expect(summary["quadrature_max_dev"] <= budget, "quadrature_max_dev")
        return self._passed(summary, True, True)

    def _stability(self, cfg, summary, rows):
        m1, m2 = cfg["measure"], cfg["params"]["measure2"]
        both = {"variant": "Mixture", "components": [m1, m2], "weights": [1.0, 1.0]}
        freqs = frequencies(cfg["schedule"])
        dims = {}
        for tag, m in (("first", m1), ("second", m2), ("sum", both)):
            mine = [r for r in rows or () if r["measure"] == tag]
            _, dims[tag] = self._window_rows(mine, m, freqs)
            got = float(summary["capped_dim_" + tag])
            _expect(_inside(got, dims[tag]), f"capped_dim_{tag} {got!r} outside {dims[tag]}")
        slack = cfg["params"].get("slack", 0.05)
        worst = dims["sum"][0] >= min(dims["first"][1], dims["second"][1]) - slack
        best = dims["sum"][1] >= min(dims["first"][0], dims["second"][0]) - slack
        return self._passed(summary, worst, best)

    def _cantor(self, cfg, summary, rows):
        mu = _CANTOR
        base = abs(self.ft(mu, 1))
        tol = self._tol(base, 1.0)
        _expect(abs(summary["base_abs"] - base) <= tol, "base_abs")
        k_max = cfg["params"]["k_max"]
        _expect(rows is not None and len(rows) == k_max, "row count")
        for row, k in zip(rows, range(1, k_max + 1)):
            _expect(int(row["xi"]) == 3 ** k, "xi column")
            want = abs(self.ft(mu, 3 ** k))  # equals |ft(mu, 1)|
            _expect(abs(float(row["abs_value"]) - want) <= tol,
                    f"|ft(3^{k})| {row['abs_value']}, reference {want!r}")
        _expect(summary["identity_max_dev"] <= 2 * tol, "identity_max_dev")
        # the preset's schedule: dyadic windows 2^4 .. 2^20 and 3^1 .. 3^40
        freqs = sorted(set(frequencies(_PRESET_DYADIC)) | {3 ** k for k in range(1, 41)})
        lo, hi = self._capped(mu, freqs)
        got = float(summary["capped_dim"])
        _expect(_inside(got, (lo, hi)), f"capped_dim {got!r} outside [{lo}, {hi}]")
        return self._passed(summary, lo <= 0.05 and base > 0.05, hi <= 0.05 and base > 0.05)

    def _measex(self, cfg, summary, rows):
        depth = cfg["params"]["decay_depth"]
        # spikes are exact: ft(g, 2^(k^2)) = -i 2^-(k+1); g + h = 2 Lebesgue
        _expect(summary["spike_max_dev"] <= ATOL, "spike_max_dev")
        _expect(summary["sum_max_dev"] <= 2 * ATOL, "sum_max_dev")
        lac = [1 << (k * k) for k in range(1, depth + 1)]
        g = self._preset(("g", depth), lambda: _lacunary_trig(1, depth))
        h = self._preset(("h", depth), lambda: _lacunary_trig(-1, depth))
        dims = {}
        for key, m in (("dim_g", g), ("dim_h", h)):
            dims[key] = self._capped(m, lac)
            got = float(summary[key])
            _expect(_inside(got, dims[key]), f"{key} {got!r} outside {dims[key]}")
        merged = sorted(set(frequencies(_PRESET_DYADIC)) | set(lac))
        both = self._preset(("g+h", depth), lambda: {
            "variant": "Mixture", "components": [g, h], "weights": [1.0, 1.0]})
        lo, hi = self._capped(both, merged)
        _expect(_inside(float(summary["dim_sum"]), (lo, hi)), "dim_sum")
        small = max(dims["dim_g"][1], dims["dim_h"][1]) <= 0.05
        return self._passed(summary, small and lo >= 0.95, small and hi >= 0.95)

    # lattice ---------------------------------------------------------------

    def _ref_perp(self, pairing, side: str, members) -> tuple:
        other, got = ref.perp(pairing, side, members)
        if self.corrupt and got:
            got = got - {max(got)}
        return other, got

    def _perp(self, cfg) -> None:
        """The program's perp against the reference on seeded models of the
        op's sizes: on each side the empty, the full and random subsets."""
        p = cfg["params"]
        nx, ny = p["nx"], p["ny"]
        lat = self.lattice
        rng = random.Random(cfg["seed"])
        for _ in range(PERP_MODELS):
            zero = rng.uniform(0.2, 0.8)
            pairing = [[0.0 if rng.random() < zero else float(rng.randint(1, 9))
                        for _ in range(ny)] for _ in range(nx)]
            model = lat.IncidenceModel(nx, ny, tuple(map(tuple, pairing)))
            for side, size in (("left", nx), ("right", ny)):
                subsets = [frozenset(), frozenset(range(size))] + [
                    frozenset(i for i in range(size) if rng.random() < 0.3)
                    for _ in range(PERP_SUBSETS)]
                for members in subsets:
                    want = self._ref_perp(pairing, side, members)
                    try:
                        out = lat.perp(model, lat.SubsetPair(side, members))
                        got = (out.side, out.members)
                    except Exception as exc:  # a crash in perp is a wrong answer
                        raise Mismatch(f"perp({side} {sorted(members)}) raised "
                                       f"{type(exc).__name__}: {exc}") from None
                    _expect(got == want, f"perp({side} {sorted(members)}) on "
                                         f"{pairing}: {got}, reference {want}")

    def _galois(self, cfg, summary, rows):
        # Every perp is a Galois connection, so the five laws hold exactly,
        # and an exact partition loses no atom.  The laws hold for a wrong
        # perp too, so perp itself is compared with the reference.
        params = cfg["params"]
        self._perp(cfg)
        _expect(summary["perp_violations"] == 0, "perp violations")
        _expect(summary["bad_partitions"] == 0, "bad partitions")
        _expect(summary["weights_exact"] is True, "quasiconvex weights")
        _expect(summary["models"] == params["models"]
                and summary["trials_per_model"] == params["trials"]
                and summary["decompositions"] == params["decompositions"], "echoed sizes")
        return self._passed(summary, True, True)

    # grid-scan -------------------------------------------------------------

    def _energy(self, cfg, summary, rows):
        m, s = cfg["measure"], cfg["params"]["s"]
        want = self._ref(ref.energy, m, s)
        for route in ("spatial", "fourier"):
            got = float(summary[route]["value"])
            if math.isinf(want):
                _expect(math.isinf(got), f"{route} energy {got!r}, expected inf")
                continue
            # the experiment's own agreement budget, against the closed form
            budget = 3.0 * float(summary[route]["err_estimate"]) + ENERGY_RTOL * max(1.0, want)
            _expect(abs(got - want) <= budget,
                    f"{route} energy {got!r}, reference {want!r}")
        return self._passed(summary, True, True)

    def _wiener(self, cfg, summary, rows):
        m, T = cfg["measure"], cfg["params"]["T"]
        if m["variant"] == "Atomic":
            atoms = [(a["position"], a["weight"]) for a in m["atoms"]]
        else:
            (inner, w), = [(c, w) for c, w in zip(m["components"], m["weights"])
                           if c["variant"] == "Atomic"]
            atoms = [(a["position"], w * a["weight"]) for a in inner["atoms"]]
        limit = math.fsum(w * w for _, w in atoms) * self.scale
        _expect(abs(summary["atomic_limit"] - limit) <= 1e-12, "atomic_limit")
        value = summary["value"]
        tol = cfg["params"].get("tol", 0.02)
        if m["variant"] != "Atomic":
            _expect(abs(value - limit) <= tol, f"wiener value {value!r} not within {tol} of {limit!r}")
            return self._passed(summary, True, True)
        want = ref.wiener_atomic(atoms, T)
        slack = RTOL * max(1.0, want)
        _expect(abs(value - want) <= slack, f"wiener value {value!r}, reference {want!r}")
        return self._passed(summary, abs(want - limit) + slack <= tol,
                            abs(want - limit) - slack <= tol)

    def _witness(self, m: dict, eps: float, wit: dict, j_max: int) -> bool:
        """Check a lower-bound witness: the smallest j with |ft(m, j)| >= bound."""
        bound = math.pi * eps / (8.0 + 2.0 * math.pi * eps)
        _expect(abs(wit["bound"] - bound) <= 1e-15, "bound")
        total = ref.mass(m)
        j = wit["j"] if wit["found"] else j_max + 1
        for k in range(1, j):
            v = abs(self.ft(m, k))
            _expect(v < bound + self._tol(v, total),
                    f"|ft({k})| = {v!r} already reaches the bound; witness {j}")
        if wit["found"]:
            want = abs(self.ft(m, j))
            _expect(abs(wit["value"] - want) <= self._tol(want, total),
                    f"witness value {wit['value']!r}, reference {want!r}")
            _expect(want >= bound - self._tol(want, total), "witness below bound")
        return wit["found"]

    def _lowerbound(self, cfg, summary, rows):
        p = cfg["params"]
        found = self._witness(cfg["measure"], p["eps"], summary["witness"], p["j_max"])
        return self._passed(summary, found, found)

    def _setex(self, cfg, summary, rows):
        p = cfg["params"]
        ks = range(p["n"], p["K"] + 1)
        # the preset: blocks of k zero digits after position k^2, k = n .. K
        mu = {"variant": "DigitProduct", "base": 2, "depth": p["K"] ** 2 + p["K"],
              "blocks": [{"offset": k * k, "length": k, "forbidden_pattern": "0" * k}
                         for k in ks]}
        key = json.dumps(mu)
        _expect(len(summary["witnesses"]) == len(ks), "witness rows")
        ok = True
        for k, row in zip(ks, summary["witnesses"]):
            eps = 2.0 ** -k
            _expect(row["k"] == k and row["dilation_log2"] == k * k, "row layout")
            dilated = self._preset((key, k), lambda: {
                "variant": "AffineImage", "inner": mu, "scale": 2 ** (k * k),
                "offset": 0.0, "mod1": True})
            found = self._witness(dilated, eps, row, p["j_max"])
            _expect(abs(row["weak_floor"] - eps / 5.0) <= 1e-15, "weak floor")
            ok = ok and found and row["value"] >= eps / 5.0
        return self._passed(summary, ok, ok)

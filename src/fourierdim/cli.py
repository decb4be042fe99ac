"""Command line experiment runner.

Reads a JSON config, runs one named experiment, writes <out>.json (always)
and <out>.csv (when the experiment produces rows).  Config shape:

    {
      "experiment": "transform",
      "measure":  {...},      # see measure_from_dict
      "schedule": {...},      # see schedule_from_dict
      "params":   {...},      # experiment-specific knobs
      "seed":     0,
      "output":   "run1"      # output prefix, overridden by --out
    }

Every field is read through _param, and checked, before the experiment's
first estimator or construction runs.  A config or params key that no reader
looked up is refused once the run returns, before any output is written.

Exit codes: 0 success, 2 config or usage error, 3 quadrature or convergence
failure, 4 a claimed inequality failed (the JSON report is still written).
Outputs are deterministic for a fixed config and seed: JSON keys are sorted
and any randomness flows through numpy's seeded generator.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from .bandlattice import (
    IncidenceModel,
    check_perp_properties,
    decompose_atomic,
    quasiconvex_weights,
)
from .constructions import (
    DigitScheduleSpec,
    cantor_measure,
    digit_constraint_measure,
    lacunary_trig_measure,
    tail_report,
)
from .dimension import (
    decay_exponent,
    energy_fourier,
    energy_spatial,
    lower_bound_search,
    stability_experiment,
    matrix_image_experiment,
)
from .measures import (
    AffineImage,
    Atomic,
    DyadicWindows,
    ExplicitFrequencies,
    Lacunary,
    MAX_ABS_FREQUENCY,
    MeasureError,
    Mixture,
    ScheduleError,
    UniformOnIntervals,
    _finite,
    _integer,
    mass,
    measure_from_dict,
    merge_schedules,
    schedule_from_dict,
)
from .transform import (
    QuadratureError,
    atom_weights,
    ft,
    ft_batch,
    ft_quadrature,
    wiener_average,
)


def _record(obj) -> dict:
    """The fields of a flat dataclass record (WindowStat, EnergyResult,
    LowerBoundWitness) by name, in field order: dataclasses.asdict without
    its deep copy, which scalar fields do not need."""
    return dict(vars(obj))


def _json_float(x: float):
    """x, or "inf" / "-inf" / "nan" where JSON has no number."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return x


def _clean(obj):
    """Make a summary JSON-safe and deterministic."""
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, float):
        return _json_float(obj)
    return obj


_REQUIRED = object()

# (test, description) bounds on a checked field: a count of zero checks would
# pass any claim, and a tolerance or slack must be a number the claim can use
_AT_LEAST_1 = (lambda x: x >= 1, "at least 1")
_AT_LEAST_0 = (lambda x: x >= 0, "at least 0")
_POSITIVE = (lambda x: x > 0.0, "positive and finite")
_NONNEGATIVE = (lambda x: x >= 0.0, "finite and at least 0")


class _Fields(dict):
    """A config section that records each key looked up in it, so that a
    key no reader asked for can be refused."""

    def __init__(self, section):
        super().__init__(section)
        self.read = set()

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


def _param(section: dict, key: str, check=None, default=_REQUIRED, bound=None):
    """section[key] checked by check (_integer, _finite, or None for as-is)
    and by bound, a (test, description) pair, or default when absent; a
    missing required or malformed value is a MeasureError."""
    if key not in section:
        if default is _REQUIRED:
            raise MeasureError(f"config is missing the '{key}' field")
        return default
    x = section[key] if check is None else check(section[key], f"config field '{key}'")
    if bound is not None and not bound[0](x):
        raise MeasureError(f"config field '{key}' must be {bound[1]}, got {x!r}")
    return x


def _seed(value: int) -> int:
    if value < 0:
        raise MeasureError(f"seeds must be nonnegative, got {value}")
    return value


def _experiment(name) -> str:
    if not isinstance(name, str) or name not in _EXPERIMENTS:
        known = ", ".join(sorted(_EXPERIMENTS))
        raise MeasureError(f"unknown experiment {name!r} (known: {known})")
    return name


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise MeasureError(f"{what} must be a JSON object")
    return value


def _prefix(value, what: str) -> str:
    if not isinstance(value, str) or "\0" in value:
        raise MeasureError(f"{what} must be a file name prefix, got {value!r}")
    return value


def _measure(cfg):
    return measure_from_dict(_param(cfg, "measure"))


def _schedule(cfg):
    return schedule_from_dict(_param(cfg, "schedule"))


# ---------------------------------------------------------------------------
# generic experiments


def _run_transform(cfg, params, rng):
    m = _measure(cfg)
    sched = _schedule(cfg)
    quad_count = _param(params, "quadrature_count", _integer, 0, _AT_LEAST_0)
    tol = _param(params, "quadrature_tol", _finite, 1e-9)
    panels = _param(params, "quadrature_max_panels", _integer, 1 << 17)
    total = mass(m)  # refuses a mass past the float range before the grid overflows
    samples = ft_batch(m, sched)
    max_abs = max((abs(s.value) for s in samples), default=0.0)
    rows = [{"xi": s.xi, "re": s.value.real, "im": s.value.imag,
             "abs": abs(s.value),
             "log2_abs_xi": math.log2(abs(s.xi)) if s.xi else 0.0,
             "log2_abs_value": math.log2(abs(s.value)) if s.value else "-inf",
             "method": s.method}
            for s in samples]
    quad_dev = 0.0
    if quad_count > 0:
        for s in samples[:quad_count]:
            q = ft_quadrature(m, s.xi, tol, panels)
            quad_dev = max(quad_dev, abs(q.value - s.value))
        if quad_dev > 100.0 * tol + 1e-9:
            raise QuadratureError(
                f"closed form and quadrature disagree by {quad_dev}")
    passed = max_abs <= total + 1e-12
    summary = {
        "n_samples": len(samples),
        "mass": total,
        "max_abs": max_abs,
        "quadrature_checked": quad_count,
        "quadrature_max_dev": quad_dev,
        "passed": passed,
    }
    return summary, rows


def _run_decay(cfg, params, rng):
    m = _measure(cfg)
    sched = _schedule(cfg)
    top = _param(params, "max_capped_dim", _finite, math.inf)
    bottom = _param(params, "min_capped_dim", _finite, -math.inf)
    report = decay_exponent(m, sched)
    passed = bottom <= report.capped_dim <= top
    rows = [_record(w) for w in report.windows]
    summary = {
        "windows": len(report.windows),
        "liminf_proxy": report.liminf_proxy,
        "capped_dim": report.capped_dim,
        "passed": passed,
    }
    return summary, rows


def _run_energy(cfg, params, rng):
    m = _measure(cfg)
    s = _param(params, "s", _finite)
    resolution = _param(params, "resolution", _integer, 4096)
    cutoff = _param(params, "cutoff", _finite, 4096.0)
    budget = _param(params, "tol", _finite, None, _POSITIVE)  # None: from the error bars
    spa = energy_spatial(m, s, resolution)
    fou = energy_fourier(m, s, cutoff)
    if math.isinf(spa.value) or math.isinf(fou.value):
        agree = math.isinf(spa.value) and math.isinf(fou.value)
        dev = 0.0 if agree else math.inf
    else:
        dev = abs(spa.value - fou.value)
        if budget is None:
            budget = (3.0 * (spa.err_estimate + fou.err_estimate)
                      + 0.02 * max(1.0, abs(spa.value)))
        agree = dev <= budget
    summary = {
        "s": s,
        "spatial": _record(spa),
        "fourier": _record(fou),
        "deviation": dev,
        "passed": agree,
    }
    return summary, None


def _run_wiener(cfg, params, rng):
    m = _measure(cfg)
    horizon = _param(params, "T", _finite, 1.0e4)
    tol = _param(params, "tol", _finite, 0.02, _POSITIVE)
    value = wiener_average(m, horizon)
    limit = math.fsum(w * w for w in atom_weights(m).values())
    passed = abs(value - limit) <= tol
    summary = {
        "T": horizon,
        "value": value,
        "atomic_limit": limit,
        "deviation": abs(value - limit),
        "passed": passed,
    }
    return summary, None


def _run_lowerbound(cfg, params, rng):
    m = _measure(cfg)
    eps = _param(params, "eps", _finite)
    j_max = _param(params, "j_max", _integer, 10 ** 6)
    wit = lower_bound_search(m, eps, j_max)
    summary = {
        "eps": eps,
        "j_max": j_max,
        "witness": _record(wit),
        "passed": wit.found,
    }
    return summary, None


def _run_stability(cfg, params, rng):
    m1 = _measure(cfg)
    m2 = measure_from_dict(_param(params, "measure2"))
    sched = _schedule(cfg)
    slack = _param(params, "slack", _finite, 0.05, _NONNEGATIVE)
    r1, r2, rsum = stability_experiment(m1, m2, sched)
    floor = min(r1.capped_dim, r2.capped_dim) - slack
    passed = rsum.capped_dim >= floor
    rows = [{"measure": tag, **_record(w)}
            for tag, rep in (("first", r1), ("second", r2), ("sum", rsum))
            for w in rep.windows]
    summary = {
        "capped_dim_first": r1.capped_dim,
        "capped_dim_second": r2.capped_dim,
        "capped_dim_sum": rsum.capped_dim,
        "floor": floor,
        "passed": passed,
    }
    return summary, rows


def _run_matrix_image(cfg, params, rng):
    m = _measure(cfg)
    scale = _param(params, "scale")
    sched = _schedule(cfg)
    slack = _param(params, "slack", _finite, 0.05, _NONNEGATIVE)
    base, summed = matrix_image_experiment(m, scale, sched)
    passed = abs(base.capped_dim - summed.capped_dim) <= slack
    summary = {
        "scale": scale,
        "capped_dim_base": base.capped_dim,
        "capped_dim_sum": summed.capped_dim,
        "passed": passed,
    }
    return summary, None


# ---------------------------------------------------------------------------
# presets


def _run_setex(cfg, params, rng):
    n = _param(params, "n", _integer, 1)
    top = _param(params, "K", _integer, 5)
    j_max = _param(params, "j_max", _integer, 100000)
    spec = DigitScheduleSpec.index_blocks(n, top)
    mu = digit_constraint_measure(spec)
    rows = []
    passed = True
    for k, l, length in zip(range(n, top + 1), spec.exponents, spec.lengths):
        eps = 2.0 ** (-length)
        dilated = AffineImage(mu, 2 ** l, 0.0, True)
        wit = lower_bound_search(dilated, eps, j_max)
        ok = wit.found and wit.value >= eps / 5.0
        passed = passed and ok
        rows.append({"k": k, "dilation_log2": l, "eps": eps,
                     "found": wit.found, "j": wit.j, "value": wit.value,
                     "bound": wit.bound, "weak_floor": eps / 5.0})
    summary = {
        "n": n,
        "K": top,
        "j_max": j_max,
        "depth": spec.depth,
        "witnesses": rows,
        "passed": passed,
    }
    return summary, rows


def _run_setexc(cfg, params, rng):
    n = _param(params, "n", _integer, 1)
    top = _param(params, "K", _integer, 6)
    s = _param(params, "s", _finite, 0.85)
    b = _param(params, "b", _finite, 0.0)
    spec = DigitScheduleSpec.proportional_blocks(n, top, s, b)
    mu = digit_constraint_measure(spec)
    report = tail_report(spec)
    total = mass(mu)
    passed = report["converges"] and abs(total - 1.0) <= 1e-12
    rows = [{"k": k, "position": e, "length": t, "term": term, "partial": p}
            for k, e, t, term, p in zip(
                range(n, top + 1), spec.exponents, spec.lengths,
                report["terms"], report["partial_sums"])]
    summary = {
        "n": n,
        "K": top,
        "s": s,
        "b": spec.b,
        "depth": spec.depth,
        "mass": total,
        "tail": report,
        "passed": passed,
    }
    return summary, rows


def _run_measex(cfg, params, rng):
    id_depth = _param(params, "identity_depth", _integer, 6)
    decay_depth = _param(params, "decay_depth", _integer, 48)
    seed = _seed(_param(params, "seed", _integer, 7))
    g = lacunary_trig_measure(1, id_depth)
    h = lacunary_trig_measure(-1, id_depth)

    spike_dev = 0.0
    for k in range(1, min(4, id_depth) + 1):
        xi = 2 ** (k * k)
        want = -1j * 2.0 ** (-(k + 1))
        spike_dev = max(spike_dev, abs(ft(g, xi) - want),
                        abs(ft(h, xi) + want))
    spikes_ok = spike_dev <= 1e-12  # the spikes are exact at integer frequencies

    both = Mixture((g, h), (1.0, 1.0))
    rng_local = np.random.default_rng(seed)
    freqs = np.sort(rng_local.uniform(0.5, 4096.0, size=100))
    leb = UniformOnIntervals(((0.0, 1.0),))
    sum_dev = 0.0
    for x in freqs:
        sum_dev = max(sum_dev,
                      abs(ft(both, float(x)) - 2.0 * ft(leb, float(x))))
    sum_ok = sum_dev <= 1e-12

    g_deep = lacunary_trig_measure(1, decay_depth)
    h_deep = lacunary_trig_measure(-1, decay_depth)
    lac = Lacunary(tuple(k * k for k in range(1, decay_depth + 1)))
    dim_g = decay_exponent(g_deep, lac).capped_dim
    dim_h = decay_exponent(h_deep, lac).capped_dim
    merged = merge_schedules(DyadicWindows(4, 20), lac)
    both_deep = Mixture((g_deep, h_deep), (1.0, 1.0))
    dim_sum = decay_exponent(both_deep, merged).capped_dim

    passed = (spikes_ok and sum_ok and dim_g <= 0.05 and dim_h <= 0.05
              and dim_sum >= 0.95)
    summary = {
        "identity_depth": id_depth,
        "decay_depth": decay_depth,
        "spike_max_dev": spike_dev,
        "sum_max_dev": sum_dev,
        "dim_g": dim_g,
        "dim_h": dim_h,
        "dim_sum": dim_sum,
        "passed": passed,
    }
    return summary, None


def _run_cantor(cfg, params, rng):
    k_max = _param(params, "k_max", _integer, 12, _AT_LEAST_1)
    if k_max >= MAX_ABS_FREQUENCY.bit_length() or 3 ** k_max > MAX_ABS_FREQUENCY:
        raise MeasureError(f"config field 'k_max' = {k_max} puts 3^k_max past the "
                           "frequency cap 2^4096")
    mu = cantor_measure()
    base = abs(ft(mu, 1))
    rows = []
    id_dev = 0.0
    for k in range(1, k_max + 1):
        v = abs(ft(mu, 3 ** k))
        id_dev = max(id_dev, abs(v - base))
        rows.append({"k": k, "xi": 3 ** k, "abs_value": v})
    sched = merge_schedules(
        DyadicWindows(4, 20),
        ExplicitFrequencies(tuple(3 ** k for k in range(1, 41))))
    report = decay_exponent(mu, sched)
    passed = (id_dev <= 1e-10 and base > 0.05
              and report.capped_dim <= 0.05)
    summary = {
        "base_abs": base,
        "identity_max_dev": id_dev,
        "k_max": k_max,
        "capped_dim": report.capped_dim,
        "passed": passed,
    }
    return summary, rows


def _run_galois(cfg, params, rng):
    n_models = _param(params, "models", _integer, 200, _AT_LEAST_1)
    trials = _param(params, "trials", _integer, 20, _AT_LEAST_1)
    nx = _param(params, "nx", _integer, 8)
    ny = _param(params, "ny", _integer, 8)
    n_decomp = _param(params, "decompositions", _integer, 200, _AT_LEAST_1)

    total_viol = 0
    first = None
    for _ in range(n_models):
        model = IncidenceModel.random(rng, nx, ny,
                                      zero_prob=float(rng.uniform(0.2, 0.8)))
        rep = check_perp_properties(model, trials, rng)
        total_viol += rep["total_violations"]
        if first is None and rep["first_counterexample"]:
            first = rep["first_counterexample"]

    bad_partitions = 0
    for _ in range(n_decomp):
        n_atoms = int(rng.integers(1, 12))
        positions = np.sort(rng.uniform(0.0, 1.0, size=n_atoms)).tolist()
        weights = rng.uniform(0.1, 1.0, size=n_atoms).tolist()
        mu = Atomic(tuple(zip(positions, weights)))
        # each member charges every atom of mu with probability 1/2, plus
        # two atoms past mu's support
        n_fam = int(rng.integers(1, 4))
        chosen = (rng.random((n_fam, n_atoms)) < 0.5).tolist()
        extras = rng.uniform(1.5, 2.0, (n_fam, 2)).tolist()
        fam = [Atomic(tuple((p, 1.0) for p, kept in zip(positions, row) if kept)
                      + tuple((x, 1.0) for x in extra))
               for row, extra in zip(chosen, extras)]
        on, off, covered = decompose_atomic(mu, fam)
        merged = sorted(on.atoms + off.atoms)
        ok = (merged == sorted(mu.atoms)
              and all(p in covered for p, _ in on.atoms)
              and all(p not in covered for p, _ in off.atoms))
        if not ok:
            bad_partitions += 1

    ws = quasiconvex_weights((1.0, 2.0, 4.0))
    weights_ok = (abs(math.fsum(ws) - 1.0) <= 1e-15
                  and ws == (16.0 / 21.0, 4.0 / 21.0, 1.0 / 21.0))

    passed = total_viol == 0 and bad_partitions == 0 and weights_ok
    summary = {
        "models": n_models,
        "trials_per_model": trials,
        "perp_violations": total_viol,
        "first_counterexample": first,
        "decompositions": n_decomp,
        "bad_partitions": bad_partitions,
        "weights_exact": weights_ok,
        "passed": passed,
    }
    return summary, None


# name -> (runner, --list description, the claim the run checks); a runner
# returns (summary, rows), and its summary's "passed" decides exit code 4
_EXPERIMENTS = {
    "transform": (_run_transform, "sample the transform along a schedule, check |ft| <= mass",
                "every sampled transform modulus is at most the total mass"),
    "decay": (_run_decay, "windowed decay exponents along a schedule",
                "windowed decay exponents bound the transform dimension"),
    "energy": (_run_energy, "s-energy by the spatial and frequency routes, check agreement",
                "spatial and frequency-side energies agree within budget"),
    "wiener": (_run_wiener, "time-averaged squared transform vs the atomic mass sum",
                "the transform's mean square tends to the atomic mass sum"),
    "lowerbound": (_run_lowerbound, "smallest integer frequency witnessing the modulus bound",
                "some integer frequency keeps the modulus above the bound"),
    "stability": (_run_stability, "decay of two measures and of their sum",
                "the sum's decay dimension is at least the smaller part's"),
    "matrix-image": (_run_matrix_image, "decay of a measure and of measure plus dilated image",
                "adding an off-circle dilated image preserves the dimension"),
    "setex": (_run_setex, "dilated digit-constraint measures: integer witnesses per block",
                "every dilated constraint measure has an integer witness "
                "above both the sharp and the eps/5 bound"),
    "setexc": (_run_setexc, "proportional digit schedule: removed-mass tail convergence",
                "the removed-mass tail of the proportional schedule "
                "converges geometrically"),
    "measex": (_run_measex, "lacunary densities: spike identities and decay split",
                "two lacunary densities have vanishing decay dimension "
                "while their sum is Lebesgue with full dimension"),
    "cantor": (_run_cantor, "ternary digit measure: transform recursion and non-decay",
                "the ternary digit measure repeats its modulus along powers "
                "of three and has zero decay dimension"),
    "galois": (_run_galois, "random incidence models: perp laws and exact decompositions",
                "the perp laws hold exactly on random incidence models and "
                "atomic decompositions partition without mass loss"),
}


def _write_outputs(prefix: str, summary: dict, rows) -> None:
    with open(prefix + ".json", "w") as fh:
        fh.write(json.dumps(_clean(summary), sort_keys=True, indent=2) + "\n")
    if rows:
        fieldnames = list(rows[0])
        with open(prefix + ".csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(fieldnames)
            writer.writerows([row[k] for k in fieldnames] for row in rows)
    else:
        # a CSV there is an earlier run's, and would read as this run's rows
        try:
            os.remove(prefix + ".csv")
        except FileNotFoundError:
            pass


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="fourierdim",
        description="Fourier-decay experiments on measures on the line.")
    parser.add_argument("--config", help="path to a JSON experiment config")
    parser.add_argument("--out", help="output prefix (default: config output "
                                      "field, then the experiment name)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--list", action="store_true",
                        help="list experiments and exit")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    if args.list:
        for name in sorted(_EXPERIMENTS):
            print(f"{name:14s} {_EXPERIMENTS[name][1]}")
        return 0

    if not args.config:
        print("error: --config is required (or use --list)", file=sys.stderr)
        return 2

    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8, JSON or int literal
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2

    try:
        cfg = _Fields(_object(cfg, "config"))
        name = _experiment(_param(cfg, "experiment", default=None))
        params = _Fields(_object(_param(cfg, "params", default={}), "params"))
        output = _prefix(_param(cfg, "output", default=""), "output")
        prefix = _prefix(args.out, "--out") if args.out else output or name
        seed = _seed(_param(cfg, "seed", _integer, 0))
        if args.seed is not None:
            seed = _seed(args.seed)
        runner, _, claim = _EXPERIMENTS[name]
        summary, rows = runner(cfg, params, np.random.default_rng(seed))
        # a key no reader looked up is a typo whose claim went unchecked
        for where, section in (("config", cfg), ("params", params)):
            unread = sorted(set(section) - section.read)
            if unread:
                raise MeasureError(
                    f"unknown {where} field {', '.join(map(repr, unread))}; {name} "
                    f"reads {', '.join(sorted(section.read))}")
    except QuadratureError as exc:
        print(f"error: quadrature failed to converge: {exc}", file=sys.stderr)
        return 3
    except (MeasureError, ScheduleError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return 2

    summary.update(experiment=name, claim=claim, seed=seed)
    passed = summary["passed"]
    try:
        _write_outputs(prefix, summary, rows)
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 2
    print(f"{name}: {'ok' if passed else 'FAILED CLAIM'} -> {prefix}.json")
    return 0 if passed else 4


if __name__ == "__main__":
    sys.exit(main())

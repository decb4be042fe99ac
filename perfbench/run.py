"""Closed-loop benchmark of the fourierdim experiment runner.

    python3 perfbench/run.py --workload exact-probe --seed 1 --seconds 25 --trace 0

One client, one process: each op is one in-process ``fourierdim.cli.main``
call on a config from the seeded generator (workloads.py), writing its
JSON/CSV under .perfbench_out/.  The next op starts when the previous one
returns.  The seed deals a fixed set of distinct ops (PASS_CYCLES deck
cycles); the timed loop runs that set in passes, in the same order, until
the time is up, so every op is timed many times spread over the run.  An
op's latency is the least of its timings: the host's speed switches between
a fast and a slow state for seconds at a time (README.md), and the least
timing is the one that state does not inflate.

After the timed loop every op's first outputs are checked against
independent references (check.py, reference.py), and every later call must
write the same bytes and exit code as the first.

--trace 0 prints the end-to-end metrics; --trace 1 runs every call twice,
untraced then with module-boundary spans (spans.py), and prints the
per-layer metrics and the tracing overhead.  The last stdout line is the
JSON result; the line before it gives the workload's exact shares.

The program is imported from ./src of the checkout this script sits in;
without it the script exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Single-threaded BLAS/OpenMP for the whole run, set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7

sys.path.insert(0, str(HERE))

from workloads import DECKS, PASS_CYCLES, Generator  # noqa: E402


def _program():
    if not (SRC / "fourierdim" / "__init__.py").is_file():
        print(f"error: no fourierdim sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    from fourierdim import bandlattice, cli

    return cli, bandlattice


def run_op(cli, cfg_path: str, out: str) -> tuple:
    """One op: the runner's main() on a config, its status lines swallowed.

    Returns (exit code, wall seconds); a crash counts as exit code 1.
    """
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(["--config", cfg_path, "--out", out])
    except Exception:  # a traceback from the program is a failed op
        rc = 1
    return rc, time.perf_counter() - t0


def _warm_up(cli, workdir: Path, workload: str) -> None:
    """One untimed op per experiment kind (the first of each kind, seed 0)."""
    gen = Generator(workload, 0)
    seen = set()
    for op in (next(gen) for _ in gen.deck):
        if op["kind"] not in seen:
            seen.add(op["kind"])
            prefix = str(workdir / f"warm-{op['kind']}")
            with open(prefix + ".cfg.json", "w") as fh:
                json.dump(op["config"], fh)
            run_op(cli, prefix + ".cfg.json", prefix)


def _setup_seconds(workload: str) -> float:
    """Median wall time of fresh interpreters doing import plus warm-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__)), "--setup-probe",
                        "--workload", workload], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _digest(prefix: str) -> bytes:
    """Hash of an op's written summary and rows (missing files hash as empty)."""
    h = hashlib.sha256()
    for suffix in (".json", ".csv"):
        try:
            with open(prefix + suffix, "rb") as fh:
                h.update(fh.read())
        except FileNotFoundError:
            pass
        h.update(b"\0")
    return h.digest()


def _quantile(values, q: float) -> float:
    """Value at quantile q by linear interpolation between order statistics."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _shares(ops) -> dict:
    """Exact counts: op mix by kind, schedule frequencies by magnitude class."""
    from check import frequencies
    from workloads import FREQ_CLASSES, freq_class

    kinds, classes = {}, dict.fromkeys(FREQ_CLASSES, 0)
    for op in ops:
        kinds[op["kind"]] = kinds.get(op["kind"], 0) + 1
        sched = op["config"].get("schedule")
        for x in frequencies(sched) if sched else ():
            classes[freq_class(x)] += 1
    return {"ops_by_kind": kinds, "schedule_freqs_by_class": classes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(DECKS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-reference", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cli, bandlattice = _program()
    workdir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        _warm_up(cli, workdir, args.workload)
        if args.setup_probe:
            return 0
        setup_s = None if args.trace else _setup_seconds(args.workload)

        gen = Generator(args.workload, args.seed)
        ops = [next(gen) for _ in range(len(gen.deck) * PASS_CYCLES[args.workload])]
        prefixes = []
        for i, op in enumerate(ops):
            prefixes.append(str(workdir / f"op{i}"))
            with open(prefixes[-1] + ".cfg.json", "w") as fh:
                json.dump(op["config"], fh)
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer("fourierdim")
        times = [[] for _ in ops]  # seconds of each untraced call, per op
        first = [None] * len(ops)  # (exit code, output digest) of the first call
        redone = [0] * len(ops)  # later calls whose exit code or bytes differ
        plain = traced = 0.0
        calls = 0
        deadline = time.perf_counter() + args.seconds
        while True:
            i = calls % len(ops)
            cfg_path = prefixes[i] + ".cfg.json"
            out = prefixes[i] if calls < len(ops) else prefixes[i] + "-again"
            rc, dt = run_op(cli, cfg_path, out)
            times[i].append(dt)
            results = [(rc, out)]
            if tracer is not None:
                plain += dt
                tracer.install()
                try:
                    rc2, dt2 = tracer.run_op(calls, lambda: run_op(cli, cfg_path, out + "-traced"))
                finally:
                    tracer.uninstall()
                traced += dt2
                results.append((rc2, out + "-traced"))
            if first[i] is None:
                first[i] = (rc, _digest(out))
                results = results[1:]
            if any((code, _digest(path)) != first[i] for code, path in results):
                redone[i] += 1
            calls += 1
            if calls >= len(ops) and time.perf_counter() >= deadline:
                break
        rss_mb = _peak_rss_mb()

        from check import Checker, Mismatch

        checker = Checker(bandlattice, corrupt=args.corrupt_reference)
        failed_by_slot = {}
        failed = 0
        for i, (op, prefix) in enumerate(zip(ops, prefixes)):
            bad = redone[i]
            try:
                checker.check(op, first[i][0], prefix)
            except (Mismatch, KeyError, TypeError, ValueError) as exc:
                if op["slot"] not in failed_by_slot:
                    print(f"op {i} ({op['kind']}, slot {op['slot']}): "
                          f"{type(exc).__name__}: {exc}", file=sys.stderr)
                bad = len(times[i])
            if bad:
                failed_by_slot[op["slot"]] = failed_by_slot.get(op["slot"], 0) + bad
                failed += bad
        best = [min(t) for t in times]
        latencies_ms = [1e3 * t for t in best]
        shares = _shares(ops)
        if tracer is None:
            metrics = {
                "setup_s": (setup_s, "s"),
                "ops_per_s": (len(ops) / sum(best), "ops/s"),
                "op_p50_ms": (_quantile(latencies_ms, 0.5), "ms"),
                "op_p90_ms": (_quantile(latencies_ms, 0.9), "ms"),
                "ops_ok_frac": ((calls - failed) / calls, "1"),
                "peak_rss_mb": (rss_mb, "MB"),
            }
        else:
            metrics = tracer.metrics(calls, traced / plain - 1.0)
            shares["routes"] = tracer.routes
            tracer.write(str(ROOT / ".perfbench_out" / f"spans-{args.workload}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"workload": args.workload, "seed": args.seed, "ops": len(ops),
                      "calls": calls, "timings_per_op": min(map(len, times)),
                      **shares, "failed_by_slot": failed_by_slot}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": calls,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

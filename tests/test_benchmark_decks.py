"""One cycle of each benchmark deck, and two of the `lattice` deck at seeds
1 to 5, through the runner, judged by the benchmark's own output checks, and
the benchmark tracer's patch targets.

Each op runs twice into the same prefix, as the benchmark's timed loop
reruns it: the checks judge what the first call wrote, and the second call,
a rewrite over existing outputs, must leave the same bytes and exit code.

``perfbench`` is only read here: its generator deals the configs (seeds 1
and 5, which draw different measures and frequencies) and its ``Checker``
compares every op's exit code and written JSON/CSV with independent
references, so an op that the benchmark would count as failed fails this
test too.
"""

import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

import pytest

from fourierdim import bandlattice, cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from check import Checker  # noqa: E402
from spans import BOUNDARIES, SCHEDULES, Tracer  # noqa: E402
from workloads import Generator  # noqa: E402

WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _run(prefix: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(["--config", prefix + ".cfg.json", "--out", prefix])


def _outputs(prefix: str) -> dict:
    """The bytes of the op's summary and table, None for a file not written."""
    out = {}
    for suffix in (".json", ".csv"):
        path = Path(prefix + suffix)
        out[suffix] = path.read_bytes() if path.exists() else None
    return out


def _deal_and_check(workload: str, seed: int, cycles: int, tmp_path) -> None:
    """Deal the workload's deck `cycles` times; check and rerun every op."""
    gen = Generator(workload, seed)
    checker = Checker(bandlattice)
    for i in range(cycles * len(gen.deck)):
        op = next(gen)
        prefix = str(tmp_path / f"op{i}")
        with open(prefix + ".cfg.json", "w") as fh:
            json.dump(op["config"], fh)
        rc = _run(prefix)
        checker.check(op, rc, prefix)
        first = _outputs(prefix)
        assert _run(prefix) == rc, f"op {i}: the rerun's exit code differs"
        assert _outputs(prefix) == first, f"op {i}: the rerun's outputs differ"


@pytest.mark.parametrize("seed", [1, 5])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_deck_cycle_passes_the_benchmark_checks(workload, seed, tmp_path):
    _deal_and_check(workload, seed, 1, tmp_path)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_two_lattice_deck_cycles_pass_the_benchmark_checks(seed, tmp_path):
    # galois summaries read no drawn value (0 violations, no counterexample,
    # the echoed sizes), so a change of its random stream must leave every
    # op's output passing the checks
    _deal_and_check("lattice", seed, 2, tmp_path)


def test_tracer_patches_and_restores_every_boundary():
    # some module globals exist only as the tracer's patch targets (the
    # "# noqa: F401" imports in transform and dimension): deleting one
    # breaks --trace without failing any deck
    targets = [(importlib.import_module(f"fourierdim.{mod}"), name)
               for mod, names in BOUNDARIES.items() for name in names]
    measures = importlib.import_module("fourierdim.measures")
    targets += [(getattr(measures, cls), "frequencies") for cls in SCHEDULES]
    for owner, name in targets:
        assert name in vars(owner), f"{owner.__name__}.{name} is not a patch target"
    before = [vars(owner)[name] for owner, name in targets]
    tracer = Tracer("fourierdim")
    try:
        tracer.install()
        for (owner, name), fn in zip(targets, before):
            patched = vars(owner)[name]
            assert patched is not fn and patched.__wrapped__ is fn, f"{name} not wrapped"
    finally:
        tracer.uninstall()
    for (owner, name), fn in zip(targets, before):
        assert vars(owner)[name] is fn, f"{owner.__name__}.{name} not restored"

"""End-to-end checks of the experiment runner CLI."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fourierdim.cli import main


LEB = {"variant": "UniformOnIntervals", "ambient_dim": 1,
       "intervals": [{"a": 0.0, "b": 1.0}]}
TWO_ATOMS = {"variant": "Atomic", "ambient_dim": 1,
             "atoms": [{"position": 0.5, "weight": 0.5},
                       {"position": 1.0, "weight": 0.5}]}
CANTOR = {"variant": "SelfSimilarDigit", "ambient_dim": 1,
          "base": 3, "allowed_digits": [0, 2]}
DYADIC = {"variant": "DyadicWindows", "min_exp": 4, "max_exp": 12,
          "samples_per_window": 16}
DYADIC_WIDE = {"variant": "DyadicWindows", "min_exp": 4, "max_exp": 16,
               "samples_per_window": 16}


def _write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _run(tmp_path, monkeypatch, cfg, extra=()):
    monkeypatch.chdir(tmp_path)
    return main(["--config", _write_config(tmp_path, cfg)] + list(extra))


def test_list_mode(capsys):
    assert main(["--list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    names = [ln.split()[0] for ln in lines]
    assert len(names) == 12
    assert names == sorted(names)
    assert "transform" in names and "galois" in names


def test_config_required(capsys):
    assert main([]) == 2
    assert "required" in capsys.readouterr().err


def test_unreadable_config(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad)]) == 2
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    assert main(["--config", str(arr)]) == 2


def test_unknown_experiment(tmp_path, monkeypatch, capsys):
    rc = _run(tmp_path, monkeypatch, {"experiment": "nope"})
    assert rc == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_bad_params_shape(tmp_path, monkeypatch):
    cfg = {"experiment": "transform", "measure": LEB, "schedule": DYADIC,
           "params": [1, 2]}
    assert _run(tmp_path, monkeypatch, cfg) == 2


def test_missing_measure_is_config_error(tmp_path, monkeypatch):
    cfg = {"experiment": "transform", "schedule": DYADIC}
    assert _run(tmp_path, monkeypatch, cfg) == 2


def test_transform_outputs(tmp_path, monkeypatch, capsys):
    cfg = {"experiment": "transform", "measure": LEB, "schedule": DYADIC,
           "output": "tr"}
    assert _run(tmp_path, monkeypatch, cfg) == 0
    assert "transform: ok -> tr.json" in capsys.readouterr().out

    text = (tmp_path / "tr.json").read_text()
    assert text.endswith("\n")
    summary = json.loads(text)
    assert summary["experiment"] == "transform"
    assert summary["passed"] is True
    assert list(summary) == sorted(summary)

    csv_lines = (tmp_path / "tr.csv").read_text().splitlines()
    assert len(csv_lines) == summary["n_samples"] + 1


def test_reruns_are_byte_identical(tmp_path, monkeypatch):
    cfg = {"experiment": "transform", "measure": LEB, "schedule": DYADIC}
    monkeypatch.chdir(tmp_path)
    path = _write_config(tmp_path, cfg)
    assert main(["--config", path, "--out", "a"]) == 0
    assert main(["--config", path, "--out", "b"]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_default_prefix_is_experiment_name(tmp_path, monkeypatch):
    cfg = {"experiment": "cantor"}
    assert _run(tmp_path, monkeypatch, cfg) == 0
    assert (tmp_path / "cantor.json").exists()


def test_seed_override_lands_in_summary(tmp_path, monkeypatch):
    cfg = {"experiment": "galois", "seed": 1,
           "params": {"models": 5, "trials": 3, "decompositions": 5}}
    monkeypatch.chdir(tmp_path)
    path = _write_config(tmp_path, cfg)
    assert main(["--config", path, "--out", "g", "--seed", "99"]) == 0
    assert json.loads((tmp_path / "g.json").read_text())["seed"] == 99
    # same seed, same bytes
    assert main(["--config", path, "--out", "g2", "--seed", "99"]) == 0
    assert (tmp_path / "g.json").read_bytes() == (tmp_path / "g2.json").read_bytes()


def test_failed_claim_exits_4_but_writes(tmp_path, monkeypatch, capsys):
    cfg = {"experiment": "decay", "measure": LEB, "schedule": DYADIC_WIDE,
           "params": {"max_capped_dim": -1.0}, "output": "d"}
    assert _run(tmp_path, monkeypatch, cfg) == 4
    assert "FAILED CLAIM" in capsys.readouterr().out
    summary = json.loads((tmp_path / "d.json").read_text())
    assert summary["passed"] is False


def test_quadrature_blowup_exits_3(tmp_path, monkeypatch, capsys):
    cfg = {"experiment": "transform",
           "measure": {"variant": "TrigDensity", "ambient_dim": 1,
                       "terms": [{"amplitude": 0.5, "frequency": 200}]},
           "schedule": {"variant": "Explicit", "frequencies": [0.3]},
           "params": {"quadrature_count": 1, "quadrature_tol": 1e-18,
                      "quadrature_max_panels": 8}}
    assert _run(tmp_path, monkeypatch, cfg) == 3
    assert "quadrature" in capsys.readouterr().err


BAD_CONFIGS = {
    "params-not-object": {"experiment": "transform", "measure": LEB,
                          "schedule": DYADIC, "params": [1, 2]},
    "missing-measure": {"experiment": "transform", "schedule": DYADIC},
    "missing-schedule": {"experiment": "transform", "measure": LEB},
    "experiment-not-string": {"experiment": ["decay"]},
    "seed-not-int": {"experiment": "cantor", "seed": "x"},
    "setex-n": {"experiment": "setex", "params": {"n": "x"}},
    "lowerbound-j-max": {"experiment": "lowerbound", "measure": LEB,
                         "params": {"eps": 0.5, "j_max": "x"}},
    "energy-s": {"experiment": "energy", "measure": LEB, "params": {"s": "abc"}},
    "energy-missing-s": {"experiment": "energy", "measure": LEB},
    "energy-cutoff-inf": {"experiment": "energy", "measure": LEB,
                          "params": {"s": 0.5, "cutoff": math.inf}},
    "energy-cutoff-nan": {"experiment": "energy", "measure": LEB,
                          "params": {"s": 0.5, "cutoff": math.nan}},
    "energy-resolution-huge": {"experiment": "energy", "measure": LEB,
                               "params": {"s": 0.5, "resolution": 10 ** 11}},
    "lacunary-exponents": {"experiment": "decay", "measure": LEB,
                           "schedule": {"variant": "Lacunary",
                                        "exponents": [1, 2, "a"]}},
    "schedule-not-object": {"experiment": "decay", "measure": LEB,
                            "schedule": "DyadicWindows"},
    "unknown-schedule": {"experiment": "decay", "measure": LEB,
                         "schedule": {"variant": "Nope"}},
    "matrix-image-scale": {"experiment": "matrix-image", "measure": LEB,
                           "schedule": DYADIC_WIDE, "params": {"scale": "abc"}},
    "matrix-image-2x2": {"experiment": "matrix-image", "measure": LEB,
                         "schedule": DYADIC_WIDE,
                         "params": {"scale": [[2.0, 0.0], [0.0, 3.0]]}},
    "unknown-measure": {"experiment": "transform", "schedule": DYADIC,
                        "measure": {"variant": "Nope"}},
    "measure-not-object": {"experiment": "transform", "schedule": DYADIC,
                           "measure": [0.5, 1.0]},
    "measure-missing-field": {"experiment": "transform", "schedule": DYADIC,
                              "measure": {"variant": "UniformOnIntervals"}},
    "planar-atom": {"experiment": "transform", "schedule": DYADIC,
                    "measure": {"variant": "Atomic",
                                "atoms": [{"position": [0.25, 0.5], "weight": 1.0}]}},
    "matrix-affine-scale": {"experiment": "transform", "schedule": DYADIC,
                            "measure": {"variant": "AffineImage", "inner": LEB,
                                        "scale": [[2.0]]}},
    "digit-base-not-int": {"experiment": "transform", "schedule": DYADIC,
                           "measure": {"variant": "SelfSimilarDigit", "base": "3",
                                       "allowed_digits": [0, 2]}},
    "wiener-T-huge": {"experiment": "wiener", "measure": TWO_ATOMS,
                      "params": {"T": 1e30}},
    "wiener-T-inf": {"experiment": "wiener", "measure": TWO_ATOMS,
                     "params": {"T": math.inf}},
    "wiener-T-nan": {"experiment": "wiener", "measure": TWO_ATOMS,
                     "params": {"T": math.nan}},
    "wiener-atom-huge": {"experiment": "wiener",
                         "measure": {"variant": "Atomic",
                                     "atoms": [{"position": 0.5, "weight": 0.5},
                                               {"position": 1e30, "weight": 0.5}]}},
    "wiener-diameter-overflows": {"experiment": "wiener",
                                  "measure": {"variant": "Atomic",
                                              "atoms": [{"position": -1e308, "weight": 0.5},
                                                        {"position": 1e308, "weight": 0.5}]}},
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_bad_config_exits_2_without_traceback(name, tmp_path, monkeypatch, capsys):
    # main runs in process, so any uncaught exception fails the test
    assert _run(tmp_path, monkeypatch, BAD_CONFIGS[name]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


EXPERIMENT_CONFIGS = {
    "transform": {"experiment": "transform", "measure": LEB,
                  "schedule": DYADIC},
    "decay": {"experiment": "decay", "measure": LEB, "schedule": DYADIC_WIDE,
              "params": {"min_capped_dim": 0.9}},
    "energy": {"experiment": "energy", "measure": LEB, "params": {"s": 0.5}},
    "wiener": {"experiment": "wiener", "measure": TWO_ATOMS,
               "params": {"T": 2000.0, "tol": 0.05}},
    "lowerbound": {"experiment": "lowerbound",
                   "measure": {"variant": "Atomic", "ambient_dim": 1,
                               "atoms": [{"position": 1.0, "weight": 1.0}]},
                   "params": {"eps": 1.0}},
    "stability": {"experiment": "stability", "measure": LEB,
                  "schedule": DYADIC_WIDE, "params": {"measure2": CANTOR}},
    "matrix-image": {"experiment": "matrix-image", "measure": LEB,
                     "schedule": DYADIC_WIDE, "params": {"scale": 2.0}},
    "setex": {"experiment": "setex"},
    "setexc": {"experiment": "setexc"},
    "measex": {"experiment": "measex"},
    "cantor": {"experiment": "cantor"},
    "galois": {"experiment": "galois",
               "params": {"models": 20, "trials": 5, "decompositions": 20}},
}


@pytest.mark.parametrize("name", sorted(EXPERIMENT_CONFIGS))
def test_every_experiment_runs_clean(name, tmp_path, monkeypatch):
    cfg = dict(EXPERIMENT_CONFIGS[name])
    cfg["output"] = "out"
    assert _run(tmp_path, monkeypatch, cfg) == 0
    summary = json.loads((tmp_path / "out.json").read_text())
    assert summary["experiment"] == name
    assert summary["passed"] is True
    assert isinstance(summary["claim"], str) and summary["claim"]


def test_console_entry_point(tmp_path):
    # the child finds the package where this process does, installed or not
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "fourierdim.cli", "--list"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "transform" in proc.stdout


# The committed outputs of EXPERIMENT_CONFIGS pin the numbers across changes
# of the program.  Keys, strings, ints and bools must match exactly.  Floats
# may move by a relative 1e-12: room for a reordered float sum, far below
# every tolerance an experiment itself applies.
SNAPSHOT_RTOL = 1e-12
SNAPSHOT = json.loads((Path(__file__).parent / "cli_snapshot.json").read_text())


def _cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _assert_matches(got, want, where):
    if isinstance(want, float):
        assert isinstance(got, float), where
        assert math.isclose(got, want, rel_tol=SNAPSHOT_RTOL, abs_tol=0.0), \
            f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(EXPERIMENT_CONFIGS))
def test_outputs_match_snapshot(name, tmp_path, monkeypatch):
    cfg = dict(EXPERIMENT_CONFIGS[name])
    cfg["output"] = "out"
    _run(tmp_path, monkeypatch, cfg)
    want = SNAPSHOT[name]
    _assert_matches(json.loads((tmp_path / "out.json").read_text()),
                    want["summary"], name)
    csv_path = tmp_path / "out.csv"
    assert csv_path.exists() == ("csv" in want)
    if "csv" in want:
        with open(csv_path, newline="") as fh:
            rows = [[_cell(c) for c in row] for row in csv.reader(fh)]
        _assert_matches(rows, [[_cell(c) for c in row] for row in want["csv"]],
                        f"{name}.csv")

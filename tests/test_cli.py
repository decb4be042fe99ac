"""End-to-end checks of the experiment runner CLI."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fourierdim import cli
from fourierdim.cli import main
from fourierdim.transform import QuadratureResult


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


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"experiment": "cantor", "output": "caf\xe9"}')
    assert main(["--config", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read config")


def test_config_with_an_int_past_the_digit_limit_exits_2(tmp_path, capsys):
    # Python refuses to parse an int literal of more than 4300 digits
    bad = tmp_path / "long.json"
    bad.write_text('{"experiment": "cantor", "seed": 1' + "0" * 5000 + "}")
    assert main(["--config", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read config")


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


@pytest.mark.parametrize("old_size", [100_000, 3])
def test_rerun_over_existing_outputs_leaves_no_stale_tail(tmp_path, monkeypatch, old_size):
    # a rerun replaces the old files whole: a longer old file must not
    # leave its tail, a shorter one must not cut the new text
    cfg = {"experiment": "transform", "measure": LEB, "schedule": DYADIC}
    monkeypatch.chdir(tmp_path)
    path = _write_config(tmp_path, cfg)
    assert main(["--config", path, "--out", "fresh"]) == 0
    for suffix in (".json", ".csv"):
        (tmp_path / ("old" + suffix)).write_bytes(b"x" * old_size)
    assert main(["--config", path, "--out", "old"]) == 0
    for suffix in (".json", ".csv"):
        assert (tmp_path / ("old" + suffix)).read_bytes() == \
            (tmp_path / ("fresh" + suffix)).read_bytes()


def test_run_without_rows_removes_an_earlier_csv(tmp_path, monkeypatch):
    # a transform run writes x.csv; a wiener run into the same prefix has
    # no rows, and must not leave the transform's rows beside its summary
    monkeypatch.chdir(tmp_path)
    transform = _write_config(tmp_path, {"experiment": "transform", "measure": LEB,
                                         "schedule": DYADIC}, "transform.json")
    wiener = _write_config(tmp_path, {"experiment": "wiener", "measure": TWO_ATOMS,
                                      "params": {"T": 100.0}}, "wiener.json")
    assert main(["--config", transform, "--out", "x"]) == 0
    assert (tmp_path / "x.csv").exists()
    assert main(["--config", wiener, "--out", "x"]) == 0
    assert json.loads((tmp_path / "x.json").read_text())["experiment"] == "wiener"
    assert not (tmp_path / "x.csv").exists()
    assert main(["--config", wiener, "--out", "x"]) == 0  # no CSV to remove


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


def test_quadrature_check_of_a_point_mass_at_a_big_int_is_exact(tmp_path, monkeypatch):
    # 3^40 is not a float: its atom phase used to be taken at the rounded
    # frequency, and the check failed with exit 3
    cfg = {"experiment": "transform",
           "measure": {"variant": "Atomic", "atoms": [{"position": 0.3, "weight": 1.0}]},
           "schedule": {"variant": "Explicit", "frequencies": [3 ** 40]},
           "params": {"quadrature_count": 1}, "output": "atom"}
    assert _run(tmp_path, monkeypatch, cfg) == 0
    assert json.loads((tmp_path / "atom.json").read_text())["quadrature_max_dev"] == 0.0


def test_quadrature_blowup_exits_3(tmp_path, monkeypatch, capsys):
    cfg = {"experiment": "transform",
           "measure": {"variant": "TrigDensity", "ambient_dim": 1,
                       "terms": [{"amplitude": 0.5, "frequency": 200}]},
           "schedule": {"variant": "Explicit", "frequencies": [0.3]},
           "params": {"quadrature_count": 1, "quadrature_tol": 1e-18,
                      "quadrature_max_panels": 8}}
    assert _run(tmp_path, monkeypatch, cfg) == 3
    assert "quadrature" in capsys.readouterr().err


def test_transform_below_the_grid_band_stays_within_the_mass(tmp_path, monkeypatch):
    # every sample is subnormal and takes ft; the float rule read max_abs
    # 1.444 there, and the run exited 4 as a failed claim
    cfg = {"experiment": "transform",
           "measure": {"variant": "UniformOnIntervals",
                       "intervals": [{"a": -0.6974, "b": 0.6230}]},
           "schedule": {"variant": "DyadicWindows", "min_exp": -1074, "max_exp": -1067,
                        "samples_per_window": 2},
           "output": "sub"}
    assert _run(tmp_path, monkeypatch, cfg) == 0
    assert json.loads((tmp_path / "sub.json").read_text())["max_abs"] == 1.0
    with open(tmp_path / "sub.csv", newline="") as fh:
        assert {row["method"] for row in csv.DictReader(fh)} == {"exact"}


BAD_CONFIGS = {
    "params-not-object": {"experiment": "transform", "measure": LEB,
                          "schedule": DYADIC, "params": [1, 2]},
    "missing-measure": {"experiment": "transform", "schedule": DYADIC},
    "missing-schedule": {"experiment": "transform", "measure": LEB},
    "experiment-not-string": {"experiment": ["decay"]},
    "seed-not-int": {"experiment": "cantor", "seed": "x"},
    "seed-negative": {"experiment": "cantor", "seed": -1},
    "setex-n": {"experiment": "setex", "params": {"n": "x"}},
    "lowerbound-j-max": {"experiment": "lowerbound", "measure": LEB,
                         "params": {"eps": 0.5, "j_max": "x"}},
    "energy-s": {"experiment": "energy", "measure": LEB, "params": {"s": "abc"}},
    "energy-missing-s": {"experiment": "energy", "measure": LEB},
    "energy-cutoff-inf": {"experiment": "energy", "measure": LEB,
                          "params": {"s": 0.5, "cutoff": math.inf}},
    "energy-cutoff-nan": {"experiment": "energy", "measure": LEB,
                          "params": {"s": 0.5, "cutoff": math.nan}},
    "energy-cutoff-huge": {"experiment": "energy", "measure": LEB,
                           "params": {"s": 0.5, "cutoff": 1e9}},
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
    # misspelt fields: each used to be ignored, running with the default
    "affine-unknown-field": {"experiment": "transform", "schedule": DYADIC,
                             "measure": {"variant": "AffineImage", "inner": LEB,
                                         "scale": 2, "mod_1": True}},
    "dyadic-unknown-field": {"experiment": "decay", "measure": LEB,
                             "schedule": {"variant": "DyadicWindows", "min_exp": 4,
                                          "max_exp": 12, "samples_per_windows": 8}},
    "lacunary-unknown-field": {"experiment": "decay", "measure": LEB,
                               "schedule": {"variant": "Lacunary",
                                            "exponents": list(range(4, 13)),
                                            "multiplier": 4}},
    # output prefixes that are not strings, or whose files cannot be written:
    # each used to end in a traceback after the run
    "output-int": {"experiment": "cantor", "output": 5},
    "output-bool": {"experiment": "cantor", "output": True},
    "output-list": {"experiment": "cantor", "output": ["a"]},
    "output-missing-dir": {"experiment": "cantor", "output": "nodir/x"},
    "output-nul": {"experiment": "cantor", "output": "a\0b"},
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
    # non-integer counts, digits and exponents, and a non-bool mod1: each
    # used to be truncated, end in a TypeError, be taken as given, or (a
    # block offset) drop the block silently
    "block-offset-float": {"experiment": "transform", "schedule": DYADIC,
                           "measure": {"variant": "DigitProduct", "depth": 8,
                                       "blocks": [{"offset": 0.5, "length": 2,
                                                   "forbidden_pattern": "00"}]}},
    "digit-depth-float": {"experiment": "transform", "schedule": DYADIC,
                          "measure": {"variant": "DigitProduct", "depth": 8.5}},
    "digit-product-base-float": {"experiment": "transform", "schedule": DYADIC,
                                 "measure": {"variant": "DigitProduct", "depth": 8,
                                             "base": 2.0}},
    # a 1x1 matrix scale, read as its entry before the matrix path went
    "matrix-image-1x1": {"experiment": "matrix-image", "measure": LEB,
                         "schedule": DYADIC_WIDE, "params": {"scale": [[2.0]]}},
    # past the window-order cap, where the window's coefficients cancel
    "cut-order-above-cap": {"experiment": "transform", "schedule": DYADIC,
                            "measure": {"variant": "SmoothCutDensity", "inner": LEB,
                                        "center": 0.5, "radius": 0.1, "order": 100}},
    "cut-order-float": {"experiment": "transform", "schedule": DYADIC,
                        "measure": {"variant": "SmoothCutDensity", "inner": LEB,
                                    "center": 0.5, "radius": 0.4, "order": 2.5}},
    "digit-float": {"experiment": "transform", "schedule": DYADIC,
                    "measure": {"variant": "SelfSimilarDigit", "base": 3,
                                "allowed_digits": [0, 1.5]}},
    "digit-base-float": {"experiment": "transform", "schedule": DYADIC,
                         "measure": {"variant": "SelfSimilarDigit", "base": 2.5,
                                     "allowed_digits": [0, 1]}},
    "lacunary-exponent-float": {"experiment": "decay", "measure": LEB,
                                "schedule": {"variant": "Lacunary",
                                             "exponents": [1.5] + list(range(4, 13))}},
    "mod1-not-bool": {"experiment": "transform", "schedule": {"variant": "IntegerRange",
                                                              "j_max": 20},
                      "measure": {"variant": "AffineImage", "inner": LEB,
                                  "scale": 2, "mod1": "no"}},
    # a pattern that is a list, not a string, used to end in a TypeError
    "block-pattern-list": {"experiment": "transform", "schedule": DYADIC,
                           "measure": {"variant": "DigitProduct", "depth": 4,
                                       "blocks": [{"offset": 0, "length": 2,
                                                   "forbidden_pattern": ["0", "0"]}]}},
    # 2^1024 cylinders: the normalisation used to overflow with a traceback
    "digit-depth-huge": {"experiment": "transform", "schedule": DYADIC,
                         "measure": {"variant": "DigitProduct", "depth": 1024}},
    # 2^(2^70) cylinders: the count itself used to end in an OverflowError
    "digit-depth-2-to-the-70": {"experiment": "transform", "schedule": DYADIC,
                                "measure": {"variant": "DigitProduct", "depth": 2 ** 70}},
    # below the floor 2^-1020 of s, where Gamma(s/2) overflows: each used to
    # end in a ValueError or an OverflowError traceback
    "energy-s-subnormal": {"experiment": "energy", "measure": LEB,
                           "params": {"s": 5e-324}},
    "energy-s-below-floor": {"experiment": "energy", "measure": LEB,
                             "params": {"s": 1e-310}},
    # a density 1 / 5e-324 that overflows, and cells of width 0: energy
    # used to let a RuntimeWarning escape
    "uniform-length-reciprocal-overflows": {
        "experiment": "energy", "params": {"s": 0.5},
        "measure": {"variant": "UniformOnIntervals", "intervals": [{"a": 0.0, "b": 5e-324}]}},
    "energy-cells-of-width-zero": {
        "experiment": "energy", "params": {"s": 0.5},
        "measure": {"variant": "AffineImage", "inner": LEB, "scale": 1e-320}},
    # squared total masses past the float range: the closed form's pair
    # terms used to meet as -inf + inf in fsum
    "wiener-mass-squared-overflows": {
        "experiment": "wiener", "params": {"T": 10.0},
        "measure": {"variant": "Atomic", "atoms": [{"position": 0.1, "weight": 1e308},
                                                   {"position": 0.5, "weight": 1.0}]}},
    "wiener-three-atoms-mass-squared-overflows": {
        "experiment": "wiener", "params": {"T": 10.0},
        "measure": {"variant": "Atomic", "atoms": [{"position": 0.1, "weight": 1e308},
                                                   {"position": 0.5, "weight": 1.0},
                                                   {"position": 0.7, "weight": 2.0}]}},
    # a density 1 / 1e-315 past the float range over cells wide enough to
    # pass: s = 0.99 used to end in an OverflowError traceback, and s = 0.5
    # in exit 4 with a value "nan" and a RuntimeWarning
    "energy-affine-density-overflows-s-099": {
        "experiment": "energy", "params": {"s": 0.99},
        "measure": {"variant": "AffineImage", "inner": LEB, "scale": 1e-315}},
    "energy-affine-density-overflows-s-half": {
        "experiment": "energy", "params": {"s": 0.5},
        "measure": {"variant": "AffineImage", "inner": LEB, "scale": 1e-315}},
    # total masses past the float range: fsum used to end in an
    # OverflowError traceback, and a mixture or convolution reported "inf"
    "atom-masses-past-float-range": {
        "experiment": "transform", "schedule": DYADIC,
        "measure": {"variant": "Atomic", "atoms": [{"position": 0.1, "weight": 1e308},
                                                   {"position": 0.5, "weight": 1e308}]}},
    "mixture-mass-past-float-range": {
        "experiment": "transform", "schedule": DYADIC,
        "measure": {"variant": "Mixture", "weights": [10.0],
                    "components": [{"variant": "Atomic",
                                    "atoms": [{"position": 0.1, "weight": 1e308}]}]}},
    "convolution-mass-past-float-range": {
        "experiment": "transform", "schedule": DYADIC,
        "measure": {"variant": "Convolution",
                    "factors": [{"variant": "Atomic",
                                 "atoms": [{"position": 0.1, "weight": 1e200}]},
                                {"variant": "Atomic",
                                 "atoms": [{"position": 0.2, "weight": 1e200}]}]}},
    # a negative count used to check nothing and write it as given
    "quadrature-count-negative": {"experiment": "transform", "measure": LEB,
                                  "schedule": DYADIC, "params": {"quadrature_count": -4}},
    # window polynomials past the float range
    "cut-radius-huge": {"experiment": "transform", "schedule": DYADIC,
                        "measure": {"variant": "SmoothCutDensity", "inner": LEB,
                                    "center": 0.5, "radius": 1e200, "order": 2}},
    "cut-order-huge": {"experiment": "transform", "schedule": DYADIC,
                       "measure": {"variant": "SmoothCutDensity", "inner": LEB,
                                   "center": 0.5, "radius": 0.3, "order": 400}},
    "cut-coefficient-inf": {"experiment": "transform", "schedule": DYADIC,
                            "measure": {"variant": "SmoothCutDensity", "inner": LEB,
                                        "center": 0.5, "radius": 0.4, "order": 400}},
    # out-of-range params: each used to exit 3, or 0 after checking nothing
    "quadrature-tol-zero": {"experiment": "transform", "measure": LEB, "schedule": DYADIC,
                            "params": {"quadrature_count": 1, "quadrature_tol": 0.0}},
    "quadrature-tol-negative": {"experiment": "transform", "measure": LEB,
                                "schedule": DYADIC,
                                "params": {"quadrature_count": 1, "quadrature_tol": -1e-9}},
    "quadrature-tol-nan": {"experiment": "transform", "measure": LEB, "schedule": DYADIC,
                           "params": {"quadrature_count": 1, "quadrature_tol": math.nan}},
    "quadrature-panels-small": {"experiment": "transform", "measure": LEB,
                                "schedule": DYADIC,
                                "params": {"quadrature_count": 1,
                                           "quadrature_max_panels": 7}},
    # |xi| times a breakpoint past the float range: the panels ran on NaN
    # until the budget was spent, and the run exited 3
    "quadrature-xi-overflow": {"experiment": "transform",
                               "measure": {"variant": "UniformOnIntervals",
                                           "intervals": [{"a": 0.0, "b": 4.0}]},
                               "schedule": {"variant": "Explicit", "frequencies": [1e308]},
                               "params": {"quadrature_count": 1}},
    "quadrature-panels-huge": {"experiment": "transform", "measure": LEB,
                               "schedule": DYADIC,
                               "params": {"quadrature_count": 1,
                                          "quadrature_max_panels": 1 << 40}},
    "galois-models-negative": {"experiment": "galois", "params": {"models": -3}},
    "galois-trials-negative": {"experiment": "galois",
                               "params": {"models": 2, "trials": -1}},
    "galois-decompositions-negative": {"experiment": "galois",
                                       "params": {"models": 2, "decompositions": -1}},
    # refused before the model's array draws, whose shape cannot be negative
    "galois-nx-negative": {"experiment": "galois", "params": {"models": 1, "nx": -1}},
    "cantor-k-max-zero": {"experiment": "cantor", "params": {"k_max": 0}},
    # claim thresholds: each used to exit 4 (a failed claim) or pass unchecked
    "stability-slack-nan": {"experiment": "stability", "measure": LEB,
                            "schedule": DYADIC_WIDE,
                            "params": {"measure2": CANTOR, "slack": math.nan}},
    "matrix-image-slack-negative": {"experiment": "matrix-image", "measure": LEB,
                                    "schedule": DYADIC_WIDE,
                                    "params": {"scale": 2.0, "slack": -0.1}},
    "decay-min-capped-dim-nan": {"experiment": "decay", "measure": LEB,
                                 "schedule": DYADIC_WIDE,
                                 "params": {"min_capped_dim": math.nan}},
    "decay-max-capped-dim-inf": {"experiment": "decay", "measure": LEB,
                                 "schedule": DYADIC_WIDE,
                                 "params": {"max_capped_dim": math.inf}},
    "wiener-tol-negative": {"experiment": "wiener", "measure": TWO_ATOMS,
                            "params": {"T": 2000.0, "tol": -1}},
    "energy-tol-nan": {"experiment": "energy", "measure": LEB,
                       "params": {"s": 0.5, "tol": math.nan}},
    # bools, numeric strings and fractional counts: each used to run, as
    # True = 1, as the parsed string, or truncated
    "setex-K-fraction": {"experiment": "setex", "params": {"K": 3.7}},
    "galois-models-string": {"experiment": "galois", "params": {"models": "3"}},
    "galois-models-bool": {"experiment": "galois", "params": {"models": True}},
    "digit-depth-bool": {"experiment": "decay",
                         "measure": {"variant": "DigitProduct", "depth": True},
                         "schedule": {"variant": "Lacunary", "exponents": list(range(4, 13)),
                                      "multipliers": True}},
    "lacunary-multipliers-bool": {"experiment": "decay", "measure": LEB,
                                  "schedule": {"variant": "Lacunary",
                                               "exponents": list(range(4, 13)),
                                               "multipliers": True}},
    "atom-position-string": {"experiment": "transform", "schedule": DYADIC,
                             "measure": {"variant": "Atomic",
                                         "atoms": [{"position": "0.5", "weight": 1.0}]}},
    "energy-s-string": {"experiment": "energy", "measure": LEB, "params": {"s": "0.5"}},
    "energy-resolution-fraction": {"experiment": "energy", "measure": LEB,
                                   "params": {"s": 0.5, "resolution": 64.9}},
    "affine-scale-bool": {"experiment": "transform", "schedule": DYADIC,
                          "measure": {"variant": "AffineImage", "inner": LEB,
                                      "scale": True}},
    "cantor-k-max-fraction": {"experiment": "cantor", "params": {"k_max": 2.9}},
    "cantor-seed-float": {"experiment": "cantor", "seed": 1.0},
    # schedules past measures.MAX_FREQUENCIES, refused before any is built
    "integer-range-huge": {"experiment": "transform", "measure": LEB,
                           "schedule": {"variant": "IntegerRange", "j_max": 10 ** 12}},
    "dyadic-windows-huge": {"experiment": "decay", "measure": LEB,
                            "schedule": {"variant": "DyadicWindows", "min_exp": -10 ** 12,
                                         "max_exp": 12}},
    "dyadic-samples-huge": {"experiment": "decay", "measure": LEB,
                            "schedule": {"variant": "DyadicWindows", "min_exp": 4,
                                         "max_exp": 12, "samples_per_window": 10 ** 12}},
    "lacunary-multipliers-huge": {"experiment": "decay", "measure": LEB,
                                  "schedule": {"variant": "Lacunary",
                                               "exponents": list(range(4, 13)),
                                               "multipliers": 10 ** 12}},
    # frequencies past measures.MAX_ABS_FREQUENCY = 2^4096, refused from the
    # fields before any is built
    "lacunary-exponent-huge": {"experiment": "transform", "measure": LEB,
                               "schedule": {"variant": "Lacunary", "exponents": [15000]}},
    "lacunary-exponent-past-cap": {"experiment": "transform", "measure": LEB,
                                   "schedule": {"variant": "Lacunary", "exponents": [4096],
                                                "multipliers": 2}},
    "explicit-frequency-past-cap": {"experiment": "transform", "measure": LEB,
                                    "schedule": {"variant": "Explicit",
                                                 "frequencies": [3, -(2 ** 4096 + 1)]}},
    "trig-frequency-past-cap": {"experiment": "transform", "schedule": DYADIC,
                                "measure": {"variant": "TrigDensity",
                                            "terms": [{"amplitude": 0.5,
                                                       "frequency": 2 ** 4096 + 1}]}},
    "cantor-k-max-past-cap": {"experiment": "cantor", "params": {"k_max": 2585}},
    "measex-depth-past-cap": {"experiment": "measex", "params": {"decay_depth": 65}},
    # a quadrature check at 2^1100, past the float range its panels need:
    # used to end in an OverflowError traceback
    "quadrature-frequency-past-float-range": {
        "experiment": "transform", "measure": LEB,
        "schedule": {"variant": "Lacunary", "exponents": [1100]},
        "params": {"quadrature_count": 1}},
    # a description of a window cut of order 1, which smooth_cut refuses
    "cut-order-one": {"experiment": "transform", "schedule": DYADIC,
                      "measure": {"variant": "SmoothCutDensity", "inner": LEB,
                                  "center": 0.5, "radius": 0.3, "order": 1}},
    # an int scale past the float range: used to end in an OverflowError
    # traceback from the grid band
    "affine-scale-past-float-range": {
        "experiment": "transform",
        "measure": {"variant": "AffineImage", "inner": LEB, "scale": 10 ** 400},
        "schedule": {"variant": "Explicit", "frequencies": [0.5, 3]}},
    # estimators past the float range: h^-s used to end in an OverflowError
    # traceback, and the spatial sum, the squared transforms and the
    # trapezoid sum in "inf" or "nan" under exit 4 with a RuntimeWarning
    "energy-cell-power-overflows": {
        "experiment": "energy", "params": {"s": 0.99},
        "measure": {"variant": "AffineImage", "inner": LEB, "scale": 1e-308}},
    "energy-cell-kernel-overflows": {
        "experiment": "energy", "params": {"s": 0.99},
        "measure": {"variant": "AffineImage", "inner": LEB, "scale": 1e-307}},
    "energy-mixture-weight-overflows": {
        "experiment": "energy", "params": {"s": 0.5},
        "measure": {"variant": "Mixture", "components": [LEB], "weights": [1e160]}},
    "wiener-mixture-weight-overflows": {
        "experiment": "wiener", "params": {"T": 10.0},
        "measure": {"variant": "Mixture", "components": [LEB], "weights": [1e160]}},
    "wiener-trapezoid-sum-overflows": {
        "experiment": "wiener", "params": {"T": 1e4},
        "measure": {"variant": "Mixture", "weights": [1e153, 1.0],
                    "components": [{"variant": "Atomic",
                                    "atoms": [{"position": 0.5, "weight": 1.0}]}, LEB]}},
    # a lacunary depth past 64, refused before its 2^(k^2) terms are built
    "measex-identity-depth-past-cap": {"experiment": "measex",
                                       "params": {"identity_depth": 65}},
    # a field read on some paths only, and keys no runner reads: each used
    # to exit 0 with the malformed value or the misspelt claim unchecked
    "energy-atom-tol-string": {"experiment": "energy", "params": {"s": 0.5, "tol": "x"},
                               "measure": {"variant": "Atomic",
                                           "atoms": [{"position": 0.5, "weight": 1.0}]}},
    "quadrature-fields-without-count": {"experiment": "transform", "measure": LEB,
                                        "schedule": DYADIC,
                                        "params": {"quadrature_tol": "x",
                                                   "quadrature_max_panels": -5}},
    # quadrature fields out of range without a count: their ranges used to
    # be checked only by ft_quadrature, which a count of 0 never runs
    "quadrature-panels-negative-without-count": {"experiment": "transform", "measure": LEB,
                                                 "schedule": DYADIC,
                                                 "params": {"quadrature_max_panels": -5}},
    "quadrature-tol-zero-without-count": {"experiment": "transform", "measure": LEB,
                                          "schedule": DYADIC,
                                          "params": {"quadrature_tol": 0}},
    "quadrature-tol-negative-without-count": {"experiment": "transform", "measure": LEB,
                                              "schedule": DYADIC,
                                              "params": {"quadrature_tol": -1.0,
                                                         "quadrature_max_panels": 3}},
    "decay-threshold-misspelt": {"experiment": "decay", "measure": CANTOR,
                                 "schedule": {"variant": "DyadicWindows", "min_exp": 4,
                                              "max_exp": 20},
                                 "params": {"max_caped_dim": 0.05}},
    "params-misspelt": {"experiment": "wiener", "measure": TWO_ATOMS, "param": {"T": 100.0}},
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_bad_config_exits_2_without_traceback(name, tmp_path, monkeypatch, capsys):
    # main runs in process, so any uncaught exception fails the test
    assert _run(tmp_path, monkeypatch, BAD_CONFIGS[name]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert os.listdir(tmp_path) == ["cfg.json"]  # no output written


# Refusals that each exit 2 with their own message: the message must be in
# stderr, so that a config an earlier check refuses fails the test.
NO_ATOMS = {"variant": "Atomic", "atoms": []}


def _transform_of(measure):
    return {"experiment": "transform", "schedule": DYADIC, "measure": measure}


def _transform_along(schedule):
    return {"experiment": "transform", "measure": LEB, "schedule": schedule}


def _cut(radius, center=0.5):
    return {"variant": "SmoothCutDensity", "inner": LEB, "center": center,
            "radius": radius, "order": 2}


def _digits(base, digits):
    return _transform_of({"variant": "SelfSimilarDigit", "base": base,
                          "allowed_digits": digits})


def _block(offset, length, pattern):
    return _transform_of({"variant": "DigitProduct", "depth": 8,
                          "blocks": [{"offset": offset, "length": length,
                                      "forbidden_pattern": pattern}]})


def _lacunary(exponents, multipliers=1):
    return _transform_along({"variant": "Lacunary", "exponents": exponents,
                             "multipliers": multipliers})


REFUSALS = {
    "mixture-of-non-measures": (
        _transform_of({"variant": "Mixture", "components": [1.0], "weights": [1.0]}),
        "mixture components must be measures"),
    "cut-radius-zero": (_transform_of(_cut(0.0)), "window radius must be positive"),
    "cut-radius-negative": (_transform_of(_cut(-0.2)), "window radius must be positive"),
    "energy-no-atoms": ({"experiment": "energy", "measure": NO_ATOMS, "params": {"s": 0.5}},
                        "the zero measure has no support"),
    "wiener-no-atoms": ({"experiment": "wiener", "measure": NO_ATOMS},
                        "the zero measure has no support"),
    "lowerbound-no-atoms": ({"experiment": "lowerbound", "measure": NO_ATOMS,
                             "params": {"eps": 0.5}}, "the zero measure has no support"),
    "uniform-no-interval": (_transform_of({"variant": "UniformOnIntervals", "intervals": []}),
                            "needs at least one interval"),
    "digit-base-one": (_digits(1, [0]), "base must be at least 2"),
    "digit-none": (_digits(3, []), "allowed_digits is empty"),
    "digit-equal-to-base": (_digits(3, [0, 3]), "out of range for base 3"),
    "digit-negative": (_digits(3, [-1, 2]), "out of range for base 3"),
    "block-offset-negative": (_block(-1, 2, "00"), "block offset must be nonnegative"),
    "block-length-zero": (_block(0, 0, ""), "block length must be positive"),
    "block-pattern-short": (_block(0, 3, "00"), "differs from block length"),
    "digit-product-base-3": (_transform_of({"variant": "DigitProduct", "depth": 8, "base": 3}),
                             "only base 2"),
    "digit-product-depth-zero": (_transform_of({"variant": "DigitProduct", "depth": 0}),
                                 "depth must be positive"),
    "affine-scale-int-zero": (
        _transform_of({"variant": "AffineImage", "inner": LEB, "scale": 0}),
        "affine scale must be nonzero"),
    "affine-scale-float-zero": (
        _transform_of({"variant": "AffineImage", "inner": LEB, "scale": 0.0}),
        "affine scale must be nonzero"),
    "lowerbound-cut-misses-support": (
        {"experiment": "lowerbound", "measure": _cut(0.5, center=3.0), "params": {"eps": 0.5}},
        "window does not meet the support"),
    "explicit-zero": (_transform_along({"variant": "Explicit", "frequencies": [1.5, 0]}),
                      "must not contain zero"),
    "explicit-empty": (_transform_along({"variant": "Explicit", "frequencies": []}),
                       "schedule generated no frequencies"),
    "integer-range-from-zero": (
        _transform_along({"variant": "IntegerRange", "j_max": 5, "j_min": 0}),
        "need 1 <= j_min <= j_max"),
    "dyadic-max-below-min": (
        _transform_along({"variant": "DyadicWindows", "min_exp": 4, "max_exp": 3}),
        "max_exp below min_exp"),
    "dyadic-no-samples": (
        _transform_along({"variant": "DyadicWindows", "min_exp": 4, "max_exp": 8,
                          "samples_per_window": 0}),
        "at least one sample per window"),
    "lacunary-no-exponent": (_lacunary([]), "exponents must be nonnegative integers"),
    "lacunary-exponent-negative": (_lacunary([-1, 4]), "exponents must be nonnegative integers"),
    "lacunary-multipliers-zero": (_lacunary([4], 0), "multipliers is a count"),
    "measex-identity-depth-past-64": (BAD_CONFIGS["measex-identity-depth-past-cap"],
                                      "depth 65 above 64"),
    "measex-decay-depth-past-64": (BAD_CONFIGS["measex-depth-past-cap"], "depth 65 above 64"),
    "energy-spatial-past-float-range": (BAD_CONFIGS["energy-mixture-weight-overflows"],
                                        "the spatial energy leaves the float range"),
    "wiener-past-float-range": (BAD_CONFIGS["wiener-trapezoid-sum-overflows"],
                                "the Wiener average leaves the float range"),
    "energy-atom-tol-string": (BAD_CONFIGS["energy-atom-tol-string"],
                               "config field 'tol' must be a finite real number"),
    "unknown-params-key": (BAD_CONFIGS["decay-threshold-misspelt"],
                           "unknown params field 'max_caped_dim'; decay reads "
                           "max_capped_dim, min_capped_dim"),
    "unknown-config-key": (BAD_CONFIGS["params-misspelt"],
                           "unknown config field 'param'; wiener reads experiment, "
                           "measure, output, params, seed"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal_exits_2_with_its_message(name, tmp_path, monkeypatch, capsys):
    cfg, message = REFUSALS[name]
    assert _run(tmp_path, monkeypatch, cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_measex_spike_off_by_1e_minus_6_fails_its_claim(tmp_path, monkeypatch):
    # the spikes are exact at their integer frequencies; the tolerance was
    # 1.0, under which a spike 0.9 off still passed
    exact = cli.ft
    monkeypatch.setattr(cli, "ft", lambda m, xi: exact(m, xi) + (1e-6 if xi == 2 else 0.0))
    assert _run(tmp_path, monkeypatch, {"experiment": "measex", "output": "mx"}) == 4
    summary = json.loads((tmp_path / "mx.json").read_text())
    assert 0.0 < summary["spike_max_dev"] < 2e-6 and summary["passed"] is False
    # every other part of the claim holds, as in the unpatched preset
    assert summary["dim_g"] <= 0.05 and summary["dim_sum"] >= 0.95


def test_transform_exits_3_where_the_quadrature_disagrees(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "ft_quadrature", lambda m, xi, tol, panels:
                        QuadratureResult(cli.ft(m, xi) + 1.0, 0.0, panels))
    cfg = {"experiment": "transform", "measure": LEB, "schedule": DYADIC,
           "params": {"quadrature_count": 2}}
    assert _run(tmp_path, monkeypatch, cfg) == 3
    assert "closed form and quadrature disagree by 1.0" in capsys.readouterr().err


GALOIS_SMALL = {"experiment": "galois", "output": "g",
                "params": {"models": 3, "trials": 4, "decompositions": 3}}


def test_galois_reports_its_first_counterexample(tmp_path, monkeypatch):
    witness = "(0, 'double_perp', 1, 3)"

    def violated(model, trials, rng):
        return {"total_violations": 2, "first_counterexample": witness}

    monkeypatch.setattr(cli, "check_perp_properties", violated)
    assert _run(tmp_path, monkeypatch, GALOIS_SMALL) == 4
    summary = json.loads((tmp_path / "g.json").read_text())
    assert summary["perp_violations"] == 6 and summary["first_counterexample"] == witness
    assert summary["bad_partitions"] == 0 and summary["passed"] is False


def test_galois_counts_a_decomposition_that_drops_an_atom(tmp_path, monkeypatch):
    exact = cli.decompose_atomic

    def dropping(mu, family):
        on, off, covered = exact(mu, family)
        kept = (on.atoms + off.atoms)[1:]
        return cli.Atomic(tuple(a for a in kept if a in on.atoms)), \
            cli.Atomic(tuple(a for a in kept if a in off.atoms)), covered

    monkeypatch.setattr(cli, "decompose_atomic", dropping)
    assert _run(tmp_path, monkeypatch, GALOIS_SMALL) == 4
    summary = json.loads((tmp_path / "g.json").read_text())
    assert summary["bad_partitions"] == 3 and summary["perp_violations"] == 0
    assert summary["passed"] is False


def test_json_float_writes_the_non_numbers_as_strings():
    assert [cli._json_float(x) for x in (math.nan, math.inf, -math.inf, 0.5)] == \
        ["nan", "inf", "-inf", 0.5]


def test_unwritable_out_exits_2(tmp_path, monkeypatch, capsys):
    cfg = {"experiment": "cantor"}
    assert _run(tmp_path, monkeypatch, cfg, ["--out", "nodir/x"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write outputs: ")


def test_negative_seed_override_exits_2(tmp_path, monkeypatch, capsys):
    assert _run(tmp_path, monkeypatch, {"experiment": "cantor"}, ["--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_negative_config_seed_under_a_seed_override_exits_2(tmp_path, monkeypatch, capsys):
    cfg = {"experiment": "cantor", "seed": -1}
    assert _run(tmp_path, monkeypatch, cfg, ["--seed", "3"]) == 2
    assert "seeds must be nonnegative, got -1" in capsys.readouterr().err


def test_out_with_a_nul_byte_exits_2(tmp_path, monkeypatch, capsys):
    # the config's "output" took this check, and --out ended in a ValueError
    # from open() after the run
    assert _run(tmp_path, monkeypatch, {"experiment": "cantor"}, ["--out", "a\0b"]) == 2
    assert "--out must be a file name prefix" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_transform_of_an_atom_past_2_to_the_1000_exits_0(tmp_path, monkeypatch, capsys):
    # xi times the position overflows on the float grid; those points take ft
    cfg = {"experiment": "transform",
           "measure": {"variant": "Atomic",
                       "atoms": [{"position": -7.5e307, "weight": 1.0}]},
           "schedule": DYADIC}
    assert _run(tmp_path, monkeypatch, cfg) == 0
    assert "Traceback" not in capsys.readouterr().err


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


# cli's reads of a description: every other name it imports from the package,
# other than the number readers and the error types, does work
_READS = {"measure_from_dict", "schedule_from_dict", "_finite", "_integer"}
_WORK = sorted(name for name, value in vars(cli).items()
               if callable(value) and name not in _READS
               and getattr(value, "__module__", "").startswith("fourierdim.")
               and value.__module__ != cli.__name__
               and not (isinstance(value, type) and issubclass(value, Exception)))

# fields that a runner used to read only after its estimators, or on some paths
LATE_FIELDS = {"transform": {"quadrature_count", "quadrature_tol", "quadrature_max_panels"},
               "decay": {"max_capped_dim", "min_capped_dim"}, "energy": {"tol"},
               "wiener": {"tol"}, "stability": {"slack"}, "matrix-image": {"slack"},
               "measex": {"seed"}}


class _Work:
    """An estimator or construction that fails the test when it is used."""

    def __init__(self, name):
        self.name = name

    def __call__(self, *args, **kwargs):
        raise AssertionError(f"{self.name} ran before every config field was read")

    def __getattr__(self, attr):  # DigitScheduleSpec.index_blocks, IncidenceModel.random
        return self


@pytest.mark.parametrize("name", sorted(EXPERIMENT_CONFIGS))
def test_every_number_field_is_read_before_any_work(name, tmp_path, monkeypatch, capsys):
    cfg = EXPERIMENT_CONFIGS[name]
    fields = set()  # (top level?, key) of each field read with a number check
    param = cli._param

    def spy(section, key, check=None, *args, **kwargs):
        if check in (cli._integer, cli._finite):
            fields.add((section == cfg, key))
        return param(section, key, check, *args, **kwargs)

    good, refused = tmp_path / "good", tmp_path / "refused"
    good.mkdir()
    refused.mkdir()
    with monkeypatch.context() as m:
        m.setattr(cli, "_param", spy)
        assert _run(good, m, cfg) == 0
    assert LATE_FIELDS.get(name, set()) <= {key for top, key in fields if not top}
    assert (True, "seed") in fields

    assert {"mass", "ft_batch", "decay_exponent", "cantor_measure", "DigitScheduleSpec",
            "IncidenceModel"} <= set(_WORK)
    for work in _WORK:
        monkeypatch.setattr(cli, work, _Work(work))
    for top, key in sorted(fields):
        bad = json.loads(json.dumps(cfg))
        (bad if top else bad.setdefault("params", {}))[key] = "x"
        assert _run(refused, monkeypatch, bad) == 2, key
        assert f"config field '{key}'" in capsys.readouterr().err
        assert os.listdir(refused) == ["cfg.json"], key


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


# every row shape the runners write: transform rows with methods and "-inf"
# strings (Lebesgue measure's transform is exactly 0 at nonzero integers),
# decay windows, stability windows tagged by measure, and the preset tables
ROW_CONFIGS = {
    "transform": {"experiment": "transform", "measure": LEB,
                  "schedule": {"variant": "Explicit", "frequencies": [0.5, 1, 2.5, 3, -7]}},
    **{name: EXPERIMENT_CONFIGS[name]
       for name in ("decay", "stability", "setex", "setexc", "cantor")},
}


@pytest.mark.parametrize("name", sorted(ROW_CONFIGS))
def test_csv_bytes_match_a_dict_writer(name, tmp_path):
    cfg = ROW_CONFIGS[name]
    runner = cli._EXPERIMENTS[cfg["experiment"]][0]
    summary, rows = runner(cfg, cfg.get("params", {}), np.random.default_rng(0))
    assert rows
    if name == "transform":
        assert "-inf" in {row["log2_abs_value"] for row in rows}
    cli._write_outputs(str(tmp_path / "out"), summary, rows)
    want = io.StringIO()
    writer = csv.DictWriter(want, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    assert (tmp_path / "out.csv").read_bytes() == want.getvalue().encode()


def test_repeated_main_calls_take_their_own_arguments(tmp_path, monkeypatch, capsys):
    # the parser is built once per process; no call may see another's options
    cfg = {"experiment": "galois", "seed": 1,
           "params": {"models": 3, "trials": 2, "decompositions": 3}}
    monkeypatch.chdir(tmp_path)
    path = _write_config(tmp_path, cfg)
    assert main(["--list"]) == 0
    assert "transform" in capsys.readouterr().out
    assert main(["--config", path, "--out", "g", "--seed", "3"]) == 0
    assert json.loads((tmp_path / "g.json").read_text())["seed"] == 3
    assert main(["--config", path]) == 0
    assert "galois: ok -> galois.json" in capsys.readouterr().out
    assert json.loads((tmp_path / "galois.json").read_text())["seed"] == 1


"""Self-test of the benchmark: tiny runs of every workload.

    python3 perfbench/selftest.py

Asserts, for each workload, that
* an untraced run prints every end-to-end metric of BENCHMARK.json, with
  its unit, and a traced run every per-layer metric;
* with a deliberately corrupted reference (--corrupt-reference scales every
  reference value by 1.01 and drops the highest index from every reference
  perp) the share of ops that pass drops, so the check can fail.
It also runs the known-defects deck and reports, without asserting, the
share of its ops that pass: below 1 while the program's known defects last.
Exits with code 1 if an assertion failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, trace: int, *extra) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            res = _run(w, trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != wanted[trace]:
                print(f"FAIL {w} trace={trace}: metrics/units differ: "
                      f"missing {sorted(set(wanted[trace]) - set(got))}, "
                      f"extra {sorted(set(got) - set(wanted[trace]))}, "
                      f"units {[(k, got[k]) for k in got if k in wanted[trace] and got[k] != wanted[trace][k]]}")
                ok = False
            else:
                print(f"ok   {w} trace={trace}: {len(got)} metrics with units")
            if res["attempted"] < 1 or not all(isinstance(v["value"], float) for v in res["metrics"].values()):
                print(f"FAIL {w} trace={trace}: malformed result")
                ok = False
        clean = _run(w, 0)["metrics"]["ops_ok_frac"]["value"]
        bad = _run(w, 0, "--corrupt-reference")["metrics"]["ops_ok_frac"]["value"]
        if bad < clean:
            print(f"ok   {w}: corrupted reference lowers ops_ok_frac {clean:.3f} -> {bad:.3f}")
        else:
            print(f"FAIL {w}: corrupted reference left ops_ok_frac at {bad:.3f} (clean {clean:.3f})")
            ok = False
    known = _run("known-defects", 0)
    print(f"info known-defects: {known['failed']} of {known['attempted']} calls fail "
          f"(ops_ok_frac {known['metrics']['ops_ok_frac']['value']:.3f})")
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

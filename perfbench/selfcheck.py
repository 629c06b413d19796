"""Self-check of the benchmark: every workload at its tiny size.

Usage, from the root of a checkout:

    python3 perfbench/selfcheck.py

Runs run.py with ``--tiny`` (university certified at one atom, scaling
with k = 4 only) for each workload, untraced and
traced. Each run must exit 0, report ``correct`` with no failed
operation, and report exactly the metrics BENCHMARK.json names, each with
its unit. Exits 1 on the first violation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def check(workload: str, trace: int, bench: dict) -> list:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "0", "--seconds", "1", "--trace", str(trace),
         "--tiny"], capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        return ["exit code %d: %s" % (proc.returncode,
                                      proc.stderr.strip()[-400:])]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("result keys %s" % sorted(res))
    if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
        errors.append("correct=%s failed=%s attempted=%s"
                      % (res["correct"], res["failed"], res["attempted"]))
    wanted = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in wanted}
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != want:
        errors.append("metrics differ from BENCHMARK.json: missing %s, "
                      "extra or wrong unit %s"
                      % (sorted(set(want) - set(got)),
                         sorted(k for k in got if got[k] != want.get(k))))
    for k, v in res["metrics"].items():
        if not isinstance(v.get("value"), (int, float)):
            errors.append("%s has no numeric value" % k)
    if not trace and res["metrics"].get("ok_frac", {}).get("value") != 1.0:
        errors.append("ok_frac is not 1")
    return errors


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    ok = True
    for w in bench["workloads"]:
        for trace in (0, 1):
            errors = check(w["name"], trace, bench)
            print("%-10s trace %d: %s" % (w["name"], trace,
                                          "ok" if not errors else
                                          "; ".join(errors)), flush=True)
            ok = ok and not errors
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark launcher for alloy2fa: translate and certify time per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload university --seed 1 --seconds 55 --trace 0

Workloads are ``university`` and ``scaling`` (see
perfbench/README.md), or ``all`` to run each in turn. ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the
per-layer ones. Each run starts a fresh worker interpreter with the BLAS
thread count and hash seed fixed, so that timings do not depend on the
scheduler and the tuple-space caches start cold. Set-up time is the
median over several fresh interpreters of start to ready. Every time
metric is scaled to the host speed at which a fixed reference job takes
its nominal time (see worker.py); the times as measured are printed too.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when
every translation succeeded, no oracle verdict was FAIL and every fact
digest matched the one recorded in workloads.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
TIME_LIMIT_S = 170.0  # a run must end within 180 s
# Pinned for every worker: numpy's scipy-openblas otherwise starts one
# thread per core, and the certify times would depend on the scheduler.
ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    """The run could not produce a result."""


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(ENV)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def start_ready(cmd, env=None, cwd=None):
    """Start a worker; returns it and its set-up time (start to ready)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=cwd,
                            text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise BenchError("worker did not get ready (exit %s)"
                         % proc.returncode)
    return proc, setup


def run_one(args, root: str, bench: dict) -> dict:
    env = worker_env(root)
    began = time.perf_counter()
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--root", root,
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    proc, _ = start_ready(cmd, env, root)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, TIME_LIMIT_S - (time.perf_counter() - began)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker overran the %.0f s limit" % TIME_LIMIT_S)
    if proc.returncode != 0 or not out.strip():
        raise BenchError("worker exited %d" % proc.returncode)
    res = json.loads(out.strip().splitlines()[-1])
    metrics = res["metrics"]
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    missing = [w["name"] for w in wanted if w["name"] not in metrics]
    if missing:
        raise BenchError("worker did not report %s" % ", ".join(missing))
    res["metrics"] = {w["name"]: {"value": metrics[w["name"]],
                                  "unit": w["unit"]} for w in wanted}
    return res


def report(args, res: dict) -> dict:
    """Print the human-readable table; return the result line."""
    print("workload %s  seed %d  trace %d  %s" % (
        args.workload, args.seed, args.trace,
        " ".join("%s=%s" % kv for kv in sorted(ENV.items()))))
    for name, m in res["metrics"].items():
        print("  %-40s %16.6f %s" % (name, m["value"], m["unit"]))
    print("  rounds: %d, wall (s): %s" % (len(res["round_s"]), " ".join(
        "%.3f" % s for s in res["round_s"])))
    ref = res["reference_s"]
    print("  reference job (ms): median %.2f, fastest %.2f, slowest %.2f "
          "over %d timings; metrics are scaled to %.2f"
          % (1e3 * statistics.median(ref), 1e3 * min(ref), 1e3 * max(ref),
             len(ref), 1e3 * res["reference_at_full_speed_s"]))
    print("  as measured, not scaled (median s, not metrics): %s" % " ".join(
        "%s=%.4f" % kv for kv in sorted(res["raw_medians"].items())))
    if res["setups"]:
        print("  set-up samples, scaled (s): %s" % " ".join(
            "%.4f" % s for s in res["setups"]))
    for cfg, counts in sorted(res["verdicts"].items()):
        print("  %s verdicts: %s (SAMPLED is a sample, not a proof)" % (
            cfg, " ".join("%s=%d" % kv for kv in sorted(counts.items()))))
    for cfg, d in sorted(res["digests"].items()):
        rec = res["recorded_digests"].get(cfg)
        state = ("matches recorded" if d == rec else
                 "no recorded digest" if rec is None else
                 "DIFFERS from recorded %s (counted as failed)" % rec)
        print("  %s facts sha256 %s: %s" % (cfg, d, state))
    for msg in res["failures"]:
        print("  FAILED %s" % msg)
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": res["metrics"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="self-check sizes (see workloads.json)")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "alloy2fa",
                                       "__init__.py")):
        print("run.py: no alloy2fa source under %s/src; run from the root "
              "of a checkout" % root, file=sys.stderr)
        return 2
    bench = load_json(os.path.join(root, "BENCHMARK.json"))
    names = list(load_json(os.path.join(HERE, "workloads.json"))
                 ["workloads"])
    if args.workload != "all" and args.workload not in names:
        ap.error("unknown workload %r (choose from %s or all)"
                 % (args.workload, ", ".join(names)))
    ok = True
    for name in names if args.workload == "all" else [args.workload]:
        args.workload = name
        try:
            res = run_one(args, root, bench)
        except BenchError as exc:
            print("run.py: %s: %s" % (name, exc), file=sys.stderr)
            return 1
        line = report(args, res)
        sys.stdout.flush()
        print(json.dumps(line), flush=True)
        ok = ok and line["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

1. Smoke: every workload at tiny scale, untraced and traced; each run must
   pass its output checks and report exactly BENCHMARK.json's metrics.
2. Determinism: two traced tiny runs with the same seed must report
   identical per-layer counts (every per-layer metric that is not a time,
   a rate or a timing-dependent ratio).
3. Missing sources: run.py in a directory that holds only BENCHMARK.json and
   perfbench/ must fail without printing a result line.

    python3 perfbench/selftest.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ["paper_rcast", "fig6_campaign", "shard_100k", "campaignd_query"]
# Per-layer metrics that depend on timing rather than on the inputs. Store
# records embed each job's wall time, so their size varies by a few digits.
TIMING = {"sim.shard.cpu_util", "sim.shard.speedup", "campaign.worker_util",
          "campaign.store_bytes_per_job", "serving.cache_hit_ratio",
          "trace.overhead_ratio"}
TIME_UNITS = {"s", "ms", "us", "ns", "1/s"}

failures = []


def run(workload, trace, seed=1, cwd=ROOT, run_py=RUN):
    cmd = [sys.executable, str(run_py), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    return p.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None), p


def check(ok, what):
    print(f"  [{'PASS' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        failures.append(what)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    counts = [n for n, u in layer_units.items() if u not in TIME_UNITS and n not in TIMING]

    for w in WORKLOADS:
        print(f"{w}:", flush=True)
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            rc, res, p = run(w, trace)
            ok = rc == 0 and res is not None and res["correct"] and res["attempted"] >= 1
            check(ok, f"trace {trace} smoke run passes its checks")
            if not ok:
                print(p.stdout[-2000:], p.stderr[-2000:])
                continue
            check(set(res["metrics"]) == {m["name"] for m in wanted},
                  f"trace {trace} reports exactly the BENCHMARK.json metrics")
            if trace == 1:
                first = res
        _, second, _ = run(w, 1)
        if second is not None:
            differ = [n for n in counts
                      if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
            check(not differ, f"two traced runs report identical per-layer counts {differ or ''}")

    print("missing sources:", flush=True)
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    rc, res, _ = run("paper_rcast", 0, cwd=bare, run_py=bare / "perfbench" / "run.py")
    check(rc != 0 and res is None, "run.py fails without printing a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("self-test", "FAILED: " + "; ".join(failures) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end benchmark of the rcast simulator, campaign engine and daemon.

Builds the harness (perfbench/CMakeLists.txt: the simulator libraries from
src/, the rcast_campaignd daemon from tools/, and the rcast_e2e harness) in
Release under .bench_build/, runs one workload in a child process, checks its
outputs, and prints every metric with its unit. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload paper_rcast --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics (a separate, traced run). See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["paper_rcast", "fig6_campaign", "shard_100k", "campaignd_query"]
TIMEOUT_S = 170  # hard stop for one workload run (the contract allows 180)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configures (once) and builds the harness and daemon; returns the
    build directory. Exits non-zero if the sources are missing or broken."""
    out = build_dir()
    src = ROOT / "perfbench"
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: simulator sources (src/) not found next to perfbench/")
        sys.exit(2)
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(src), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(out), "-j", jobs, "--target", "rcast_e2e", "rcast_campaignd"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        sys.exit(2)
    return out


def run_harness(bdir, workload, args):
    """Runs one workload in a child process. Returns (report, peak_rss_mb of
    the child) or exits non-zero if the child fails to produce a report."""
    work = bdir.parent / "work"
    spans_dir = bdir.parent / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    cmd = [
        str(bdir / "rcast_e2e"),
        f"--workload={workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--root={ROOT}",
        f"--work-dir={work}",
        f"--daemon={bdir / 'rcast_campaignd'}",
        f"--spans-out={spans_dir / f'{workload}-seed{args.seed}.json'}",
    ]
    if args.tiny:
        cmd.append("--tiny")
    if args.full:
        cmd.append("--full")
    if args.sim_seed:
        cmd.append(f"--sim-seed={args.sim_seed}")
    # Own session, so a timeout can stop the harness and the daemon it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    timeout = None if args.full else TIMEOUT_S

    def stop(signum, frame):
        os.killpg(proc.pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, stop)
    if timeout:
        signal.alarm(timeout)
    out = proc.stdout.read().decode()
    _, status, usage = os.wait4(proc.pid, 0)
    signal.alarm(0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:  # a harness that died early may leave its daemon behind
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if proc.returncode != 0:
        log(f"perfbench: {workload} harness exited with {proc.returncode}")
        sys.exit(1)
    lines = out.strip().splitlines()
    if not lines:
        log(f"perfbench: {workload} harness printed nothing")
        sys.exit(1)
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def metrics_of(spec, report, child_rss_mb, trace):
    """The result line's metrics: every end-to-end metric of BENCHMARK.json
    (untraced) or every per-layer one (traced), with its unit."""
    if trace:
        wanted = spec["per_layer"]
        values = report["layers"]
    else:
        wanted = spec["end_to_end"]
        values = dict(report["e2e"])
        # The daemon's VmHWM when a daemon served the workload, otherwise
        # the harness child's own peak RSS.
        values.setdefault("peak_rss_mb", child_rss_mb)
    names = {m["name"] for m in wanted}
    if set(values) != names:
        log(f"perfbench: metric set mismatch: extra {sorted(set(values) - names)}, "
            f"missing {sorted(names - set(values))}")
        sys.exit(1)
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


def print_report(workload, report, metrics, trace):
    """Human-readable lines: every metric by name with its unit, plus the
    error rate and the workload's own throughput figures."""
    for name, m in metrics.items():
        print(f"{workload:16s} {name:34s} {m['value']:.6g} {m['unit']}")
    attempted, failed = report["attempted"], report["failed"]
    rate = failed / attempted if attempted else 1.0
    print(f"{workload:16s} {'error_rate':34s} {rate:.6g} ratio ({failed}/{attempted} checks failed)")
    for key, value in sorted(report["info"].items()):
        print(f"{workload:16s} {key:34s} {value}")
    for err in report["errors"]:
        print(f"{workload:16s} CHECK FAILED: {err}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke scale (self-test); goldens are not checked")
    ap.add_argument("--full", action="store_true",
                    help="paper_rcast at the full 1125 s, checked against "
                         "results/full/paper_points.csv")
    ap.add_argument("--sim-seed", type=int, default=0,
                    help="run the simulator workloads on another simulation "
                         "seed; prints result digests to compare two commits")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    bdir = build()

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    attempted = failed = 0
    for w in workloads:
        t0 = time.monotonic()
        report, rss = run_harness(bdir, w, args)
        metrics = metrics_of(spec, report, rss, args.trace)
        print_report(w, report, metrics, args.trace)
        log(f"perfbench: {w} took {time.monotonic() - t0:.1f} s")
        attempted += report["attempted"]
        failed += report["failed"]
        results[w] = metrics

    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": results[workloads[0]] if len(workloads) == 1 else {
            f"{w}.{k}": v for w, m in results.items() for k, v in m.items()},
    }
    (bdir.parent / "results").mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (bdir.parent / "results" / f"{tag}.json").write_text(json.dumps(line, indent=1) + "\n")
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""nlqw benchmark: run one workload end to end and check its outputs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every run is a fresh interpreter (bench/child.py) that imports nlqw from
the checkout's src/ and calls nlqw.cli.main with NLQW_THREADS set to the
number of usable cores.  Runs are made one at a time until the next one
would end after S seconds, with at least three.  One untimed run comes
first, to warm the file cache.  Each run times its own set-up (importing
nlqw and validating the configs), so set-up time is sampled across the
whole measurement.

A run fails unless it exits with code 0, every summary.json check is true,
after simulate the norm has drifted by at most 1e-10, and its output files are
byte-identical (sha256) to those of the other runs of the invocation.

--trace 0 reports the end-to-end metrics of BENCHMARK.json (medians).
--trace 1 makes the same untraced runs, then one run with NLQW_THREADS=1
(for the pool speed-up) and one traced run whose spans give the per-layer
metrics; the traced run must also reproduce the exact coin-kernel site
counts of workloads.expected_kernel_sites.

The report goes to standard output; its last line is one JSON object with
the keys correct, attempted, failed and metrics.  --workload all runs every
workload in turn and prefixes each metric with its workload's name.  Generated inputs and
outputs live under .bench_work/ in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_RUNS = 3
DEADLINE_S = 170.0
TRACE_RESERVE_S = 40.0
NORM_DRIFT_MAX = 1e-10
REQUIRED = ("BENCHMARK.json", "src/nlqw/__init__.py", "src/nlqw/cli.py",
            "src/nlqw/config_schema.json")


class Bench:
    """Spawns the runs of one workload and applies the correctness gate."""

    def __init__(self, name: str, seed: int, work: str, threads: int) -> None:
        self.name = name
        self.work = work
        self.threads = threads
        self.deadline = time.monotonic() + DEADLINE_S
        self.commands, self.inputs = workloads.commands(name, ROOT, seed, work)
        self.runs: list[dict] = []

    def spawn(self, trace=False, threads=None) -> dict:
        """Run bench/child.py once.  The returned run's "errors" list is
        empty when it passed the gate so far."""
        tag = os.path.join(self.work, f"run{len(self.runs):03d}")
        os.makedirs(tag)
        outs = [os.path.join(tag, f"out{i}") for i in range(len(self.commands))]
        spec = {
            "root": ROOT,
            "commands": self.commands,
            "out_dirs": outs,
            "trace": trace,
            "result_path": os.path.join(tag, "result.json"),
            "spans_path": os.path.join(tag, "spans.json"),
        }
        spec_path = os.path.join(tag, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        run = {"tag": os.path.basename(tag), "errors": []}
        self.runs.append(run)
        env = dict(os.environ, NLQW_THREADS=str(threads or self.threads))
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "child.py"), spec_path],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            run["errors"].append(f"timed out after {timeout:.0f} s")
            return run
        if proc.returncode != 0:
            run["errors"].append(f"exit code {proc.returncode}: {proc.stderr[-800:]}")
            return run
        with open(spec["result_path"], encoding="utf-8") as fh:
            run.update(json.load(fh))
        self._gate(run, outs)
        if trace:
            with open(spec["spans_path"], encoding="utf-8") as fh:
                run["spans"] = json.load(fh)
        shutil.rmtree(tag)
        return run

    def _gate(self, run: dict, outs: list[str]) -> None:
        errors = run["errors"]
        digest = hashlib.sha256()
        run["summaries"] = []
        for cmd, code, out in zip(self.commands, run["codes"], outs):
            if code != 0:
                errors.append(f"{cmd['command']} exit code {code}")
            path = os.path.join(out, "summary.json")
            if not os.path.isfile(path):
                errors.append(f"{cmd['command']} wrote no summary.json")
                continue
            with open(path, encoding="utf-8") as fh:
                summary = json.load(fh)
            run["summaries"].append(summary)
            failed = [c["name"] for c in summary["checks"] if not c["passed"]]
            if failed or not summary["ok"]:
                errors.append(f"{cmd['command']} checks failed: {failed}")
            if cmd["command"] == "simulate":
                drift = abs(summary["norm_final"] - summary["norm_initial"])
                run["norm_drift"] = drift
                if not drift <= NORM_DRIFT_MAX:
                    errors.append(f"norm drift {drift:.3g} > {NORM_DRIFT_MAX:g}")
            # summary.json itself is left out: later versions may add timings
            for name in sorted(summary["files"]):
                digest.update(f"{cmd['command']}/{name}\0".encode())
                with open(os.path.join(out, name), "rb") as fh:
                    digest.update(hashlib.sha256(fh.read()).digest())
        run["digest"] = digest.hexdigest()

    def gate_identical(self) -> None:
        """Fail every run whose outputs differ from the most common digest."""
        digests = Counter(r["digest"] for r in self.runs if "digest" in r)
        if digests:
            ref = digests.most_common(1)[0][0]
            for r in self.runs:
                if r.get("digest", ref) != ref:
                    r["errors"].append("output sha256 differs from the other runs")

    def measure(self, seconds: float) -> tuple[list[dict], list[float]]:
        """Untraced runs until `seconds` are used.  Returns the runs and
        their set-up samples, the warm-up run left out."""
        start = time.monotonic()
        self.spawn()  # untimed, warms the file and bytecode caches; still gated
        runs: list[dict] = []
        while True:
            t = time.monotonic()
            runs.append(self.spawn())
            if runs[-1]["errors"] and "walls" not in runs[-1]:
                break
            now = time.monotonic()
            if len(runs) >= MIN_RUNS and now + (now - t) > start + seconds:
                break
            if now + (now - t) > self.deadline - TRACE_RESERVE_S:
                break
        setups = [r["setup_s"] for r in runs if "setup_s" in r]
        return runs, setups


def stats_of(values: list[float]) -> dict:
    """Median and the highest percentile n samples support (their maximum:
    fewer than eleven samples leave none with ten samples beyond it)."""
    return {"median": statistics.median(values), "p100": max(values), "n": len(values)}


def machine_info(threads: int) -> dict:
    import numpy as np

    info = {
        "nproc": threads,
        "cpu_model": platform.processor() or platform.machine(),
        "llc": None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": None,
        "NLQW_THREADS": threads,
        "git_commit": None,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        cache = "/sys/devices/system/cpu/cpu0/cache"
        levels = []
        for idx in os.listdir(cache):
            if idx.startswith("index"):
                with open(os.path.join(cache, idx, "level"), encoding="utf-8") as fh:
                    level = int(fh.read())
                with open(os.path.join(cache, idx, "size"), encoding="utf-8") as fh:
                    levels.append((level, f"L{level} {fh.read().strip()}"))
        info["llc"] = max(levels)[1] if levels else None
    except (OSError, ValueError):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        pass
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            info["git_commit"] = proc.stdout.strip()
    return info


def wall(run: dict) -> float:
    """User's time to a checked result: all main() calls of one run."""
    return sum(run["walls"])


def traced(bench: Bench, runs: list[dict]) -> tuple[dict, dict[str, float]]:
    """Serial run, traced run, and the per-layer metrics they give."""
    untraced = statistics.median(wall(r) for r in runs if "walls" in r)
    serial = bench.spawn(threads=1)
    run = bench.spawn(trace=True)
    if "spans" not in run or "walls" not in serial:
        return {}, {}
    layers = tracer.layer_metrics(run["spans"])
    counted = tracer.kernel_sites_by_command(run["spans"])
    expected = workloads.expected_kernel_sites(bench.name)
    mismatches = {
        f"{cmd}.{fam}": {"traced": counted.get(cmd, {}).get(fam, 0), "closed_form": n}
        for cmd, fams in expected.items()
        for fam, n in fams.items()
        if counted.get(cmd, {}).get(fam, 0) != n
    }
    if mismatches:
        run["errors"].append(f"kernel site counts differ from closed forms: {mismatches}")
    layers["cli.pool_speedup"] = wall(serial) / untraced
    layers["trace.overhead_s"] = wall(run) - untraced
    detail = {
        "untraced_wall_median_s": untraced,
        "traced_wall_s": wall(run),
        "serial_wall_s": wall(serial),
        "kernel_sites_by_command": counted,
        "kernel_sites_closed_form": expected,
    }
    return detail, layers


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 units: dict[str, str], names: set[str]) -> dict:
    """Measure one workload, print its report and return its result."""
    threads = len(os.sched_getaffinity(0))
    work = os.path.join(ROOT, ".bench_work", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        bench = Bench(name, seed, work, threads)
        runs, setups = bench.measure(seconds)
        timed = [r for r in runs if "walls" in r]
        stats = {
            "wall_s": stats_of([wall(r) for r in timed]),
            "setup_s": stats_of(setups),
            "peak_rss_mb": stats_of([r["peak_rss_mb"] for r in timed]),
        } if timed and setups else {}
        values = {k: v["median"] for k, v in stats.items()}
        report = {
            "workload": name,
            "seed": seed,
            "inputs": bench.inputs,
            "machine": machine_info(threads),
            "end_to_end": stats,
            # a workload chains commands; this splits its wall_s by command
            "wall_s_by_command": {
                cmd["command"]: stats_of([r["walls"][i] for r in timed])
                for i, cmd in enumerate(bench.commands)
            } if timed else {},
        }
        if trace and timed:
            report["trace"], values = traced(bench, runs)
        bench.gate_identical()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    weak = [s for r in timed for s in r["summaries"] if s["command"] == "weak-limit"]
    if weak:
        ks = next(c for c in weak[0]["checks"] if c["name"] == "kolmogorov")
        report["ks_distance"] = ks["value"]
        report["ks_margin"] = ks["threshold"] - ks["value"]
    drifts = [r["norm_drift"] for r in timed if "norm_drift" in r]
    if drifts:
        report["norm_drift_max"] = max(drifts)
    failed = [{"run": r["tag"], "errors": r["errors"]} for r in bench.runs if r["errors"]]
    report["failures"] = failed
    print(json.dumps(report, indent=2, sort_keys=True))
    for metric, s in stats.items():
        print(f"{name:<11} {metric:<12} median {s['median']:.6g}  p100 {s['p100']:.6g}  "
              f"n={s['n']}  ({units[metric]})")
    print(f"{name:<11} runs_failed  {len(failed)} of {len(bench.runs)} attempted")

    if values and set(values) != names:
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json")
    return {
        "correct": not failed and bool(values),
        "attempted": len(bench.runs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"bench: not an nlqw checkout, missing {missing}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    names = {m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    # SIGTERM unwinds like an exception: subprocess.run kills and reaps the
    # running child, and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    chosen = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), units, names)
               for w in chosen}
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

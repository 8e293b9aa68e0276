#!/usr/bin/env python3
"""convexlab desk-scale benchmark: one closed-loop client per workload run.

Usage (from the repository root):

    python3 perfbench/run.py --workload chain-audit --seed 0 --seconds 20 --trace 0

`--trace 0` measures the end-to-end metrics with the program untouched.
`--trace 1` alternates untraced and traced passes over the same items and
reports the per-layer metrics plus the tracing overhead.  The last line of
standard output is the JSON result; the lines above it are a readable
summary.  See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
import types
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DEFAULT_SEED = 0
SETUP_REPEATS = 5
TIMING_NOTE = ("wall-clock time.perf_counter on a shared machine; "
               "no CPU pinning or frequency control")
# Nominal time of calibration_loop(), about its median on the 2-vCPU machine the
# bounds were set on.  It only fixes the scale of the reported times; it must
# never change, or results before and after the change stop being comparable.
CALIBRATION_NOMINAL_S = 0.005
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import convexlab.cli; print(time.perf_counter() - t)")


def load_program() -> types.SimpleNamespace:
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"convexlab.{name}")
            for name in ("cli", "sets", "audit", "energy", "families")}
    return types.SimpleNamespace(**mods)


def import_seconds() -> float:
    """Time of `import convexlab.cli` in a fresh interpreter, as a CLI user pays it."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def calibration_loop() -> float:
    """Time one fixed pure-Python computation that uses no convexlab code.

    The shared host's speed drifts by up to 2x over minutes; this loop, timed
    between passes, measures that drift so end-to-end times can be scaled to
    the nominal machine speed.
    """
    t0 = perf_counter()
    counts: dict[int, int] = {}
    for x in range(0, 40000, 37):
        xx = x * x
        for y in range(0, 1200, 97):
            counts[xx - y] = counts.get(xx - y, 0) + 1
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(i, i + 3)
    return perf_counter() - t0


def environment() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": numpy,
        "platform": platform.platform(),
        "timing": TIMING_NOTE,
    }


class Run:
    """One workload run: set-up, item execution, correctness bookkeeping."""

    def __init__(self, workload, reference: dict | None):
        self.wl = workload
        self.reference = reference
        self.digests: dict[str, str] = {}
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.calibration_s: list[float] = []
        self.latencies: dict[str, list[float]] = {}

    def calibrate(self) -> None:
        self.calibration_s += [calibration_loop() for _ in range(3)]

    def run_item(self, item, tracer=None) -> tuple[float, bytes]:
        """Run one item in the closed loop; returns its latency and report bytes."""
        if tracer is not None:
            tracer.begin_item(item.label)
        t0 = perf_counter()
        try:
            result, problems = item.call(), []
        except Exception:
            result, problems = None, [traceback.format_exc(limit=3).strip().splitlines()[-1]]
        latency = perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        data = b""
        if not problems:
            try:
                data, problems = item.check(result)
            except Exception:
                problems = ["unreadable output: " + traceback.format_exc(limit=1).splitlines()[-1]]
        if not problems:
            problems = self._digest_problems(item.label, data)
        if tracer is not None:
            tracer.enabled = True
        self.attempted += item.weight
        if problems:
            self.failed += item.weight
            if len(self.failures) < 20:
                self.failures.append(f"{item.label}: {'; '.join(problems)}")
        return latency, data

    def _digest_problems(self, label: str, data: bytes) -> list[str]:
        digest = hashlib.sha256(data).hexdigest()
        seen = self.digests.setdefault(label, digest)
        if seen != digest:
            return ["report differs from the same item's earlier report"]
        if self.reference is not None:
            want = self.reference.get(label)
            if want is None or not digest.startswith(want):
                return ["report digest differs from the reference for the default seed"]
        return []

    def run_pass(self, k: int, tracer=None) -> tuple[float, list[tuple[float, int]]]:
        """Run pass k; returns its wall time and the (latency, weight) of each item."""
        samples = []
        for item in self.wl.pass_items(k):
            latency, data = self.run_item(item, tracer)
            samples.append((latency, item.weight))
            if tracer is None:
                self.latencies.setdefault(item.label, []).append(latency)
            elif item.cli:
                tracer.stats.cli_bytes += len(data)
        return sum(s for s, _ in samples), samples


def set_up(name: str, seed: int, tiny: bool, program, workdir: Path):
    """Set up the workload SETUP_REPEATS times; returns it and each set-up's time."""
    from workloads import WORKLOADS

    times = []
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds()
        t0 = perf_counter()
        wl = WORKLOADS[name](name, program, workdir, seed, tiny)
        wl.setup()
        wl.warmup_item().call()
        times.append(t_import + perf_counter() - t0)
    return wl, times


def latency_stats(samples: list[tuple[float, int]]) -> dict:
    """Per-item latency median and p90, with the number of samples beyond p90."""
    per_item = sorted(t / w for t, w in samples)
    if len(per_item) >= 2:
        p90 = statistics.quantiles(per_item, n=10)[8]
    else:
        p90 = per_item[-1]
    return {
        "p50": statistics.median(per_item),
        "p90": p90,
        "samples": len(per_item),
        "beyond_p90": sum(1 for t in per_item if t > p90),
    }


def measure(run: Run, seconds: float) -> dict:
    """Untraced closed loop: whole passes until `seconds` have elapsed."""
    start = perf_counter()
    pass_times, samples, k = [], [], 0
    run.calibrate()
    while True:
        wall, got = run.run_pass(k)
        run.calibrate()
        pass_times.append(wall)
        samples += got
        k += 1
        if perf_counter() - start >= seconds:
            break
    busy = sum(t for t, _ in samples)
    items = sum(w for _, w in samples)
    return {"passes": pass_times, "samples": samples, "items": items, "busy_s": busy,
            "elapsed_s": perf_counter() - start}


def measure_traced(run: Run, seconds: float) -> dict:
    """One traced set-up, then rounds of one untraced and one traced pass over the same items."""
    from tracing import PassStats, Tracer

    tracer = Tracer()
    origin = perf_counter()
    tracer.install()
    try:
        tracer.begin_item("setup")
        run.wl.setup()
        run.wl.warmup_item().call()
    finally:
        tracer.uninstall()
    setup_stats = tracer.stats
    per_pass, ratios = [], []
    start = perf_counter()
    k = 0
    while True:
        plain, _ = run.run_pass(k)
        tracer.stats = PassStats()
        tracer.install()
        try:
            traced, _ = run.run_pass(k, tracer)
        finally:
            tracer.uninstall()
        per_pass.append(tracer.stats)
        ratios.append(traced / plain)
        k += 1
        if perf_counter() - start >= seconds:
            break
    metrics = per_pass[0].metrics()
    for name in metrics:
        if name.endswith("_s"):
            metrics[name] = statistics.median(p.metrics()[name] for p in per_pass)
    metrics["families.generate_s"] += setup_stats.metrics()["families.generate_s"]
    metrics["trace.overhead"] = statistics.median(ratios)
    return {"metrics": metrics, "tracer": tracer, "origin": origin, "rounds": k,
            "spans_per_pass": per_pass[0].spans}


def end_to_end(result: dict, setup_times: list[float], calibration_s: list[float],
               scaled: bool):
    """End-to-end metrics, the raw wall-clock values, and the run's machine slowdown.

    The slowdown is the median calibration_loop() time over its nominal
    time.  For a workload whose work all runs on the calibrating thread
    (`scaled`), pass times and latencies are divided by it and the rate
    multiplied by it; the loop does not track work spread over a thread
    pool, so those workloads and set-up report raw wall-clock values.
    """
    lat = latency_stats(result["samples"])
    raw = {
        "wall_s": statistics.median(result["passes"]),
        "items_per_s": result["items"] / result["busy_s"],
        "item_p50_ms": lat["p50"] * 1e3,
        "item_p90_ms": lat["p90"] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }
    factor = statistics.median(calibration_s) / CALIBRATION_NOMINAL_S
    metrics = dict(raw)
    if scaled:
        for name in ("wall_s", "item_p50_ms", "item_p90_ms"):
            metrics[name] = raw[name] / factor
        metrics["items_per_s"] = raw["items_per_s"] * factor
    return metrics, raw, factor, lat


def load_reference(name: str, seed: int, tiny: bool) -> dict | None:
    if seed != DEFAULT_SEED or tiny:
        return None
    data = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    return data["workloads"][name]


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "convexlab" / "__init__.py").is_file():
        print(f"perfbench: no convexlab sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    program = load_program()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    os.chdir(workdir)
    try:
        wl, setup_times = set_up(args.workload, args.seed, args.tiny, program, workdir)
        run = Run(wl, load_reference(args.workload, args.seed, args.tiny))
        summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "loop": "closed, 1 client", "environment": environment(),
                   "inputs": wl.inputs, "setup_times_s": setup_times}
        if args.trace:
            traced = measure_traced(run, args.seconds)
            metrics = traced["metrics"]
            wanted = spec["per_layer"]
            summary.update(trace_rounds=traced["rounds"], spans_per_pass=traced["spans_per_pass"])
            traced["tracer"].write_spans(OUT / f"spans-{args.workload}.jsonl", traced["origin"])
        else:
            result = measure(run, args.seconds)
            metrics, raw, factor, lat = end_to_end(result, setup_times, run.calibration_s,
                                                   wl.single_thread)
            wanted = spec["end_to_end"]
            summary.update(raw_metrics=raw, slowdown=factor, calibration_s=run.calibration_s,
                           item_median_ms={label: statistics.median(v) * 1e3
                                           for label, v in run.latencies.items()},
                           passes=len(result["passes"]), pass_times_s=result["passes"],
                           latency_samples=lat["samples"],
                           beyond_p90=lat["beyond_p90"], measured_s=result["elapsed_s"])
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    failed_ratio = run.failed / run.attempted
    summary.update(attempted=run.attempted, failed=run.failed, failed_ratio=failed_ratio,
                   failures=run.failures, metrics=metrics)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=2, default=str) + "\n", encoding="utf-8")
    print_summary(summary, wanted)
    final = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(final))
    return 0


def print_summary(summary: dict, wanted: list[dict]) -> None:
    env = summary["environment"]
    print(f"perfbench {summary['workload']} seed={summary['seed']} trace={summary['trace']} "
          f"({summary['loop']})")
    print(f"  python {env['python']}, nproc {env['nproc']}, numpy {env['numpy'] or 'absent'}; "
          f"{env['timing']}")
    for rec in summary["inputs"]:
        print("  input " + ", ".join(f"{k}={v}" for k, v in rec.items()))
    raw = summary.get("raw_metrics", {})
    for m in wanted:
        line = f"  {m['name']:<28} {summary['metrics'][m['name']]:>14.6g} {m['unit']}"
        if raw.get(m["name"], summary["metrics"][m["name"]]) != summary["metrics"][m["name"]]:
            line += f"   (raw wall-clock {raw[m['name']]:.6g})"
        print(line)
    if "slowdown" in summary:
        print(f"  machine slowdown {summary['slowdown']:.4f}: median calibration loop "
              f"{statistics.median(summary['calibration_s']) * 1e3:.3f} ms over nominal "
              f"{CALIBRATION_NOMINAL_S * 1e3:.3f} ms, {len(summary['calibration_s'])} samples")
    if "latency_samples" in summary:
        note = "" if summary["beyond_p90"] >= 10 else " (fewer than 10: p90 unresolved)"
        print(f"  item latencies: {summary['latency_samples']} samples, "
              f"{summary['beyond_p90']} beyond p90{note}, {summary['passes']} passes")
    if "trace_rounds" in summary:
        print(f"  traced rounds: {summary['trace_rounds']}, "
              f"{summary['spans_per_pass']} spans in the first traced pass")
    print(f"  {'failed_ratio':<28} {summary['failed_ratio']:>14.6g} ratio "
          f"({summary['failed']} of {summary['attempted']} items)")
    for line in summary["failures"]:
        print(f"  FAILED {line}")


if __name__ == "__main__":
    sys.exit(main())

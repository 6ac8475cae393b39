"""Outside-in benchmark for marscost's simulate -> label -> train -> eval loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {synth,learn,pipeline,all}
        [--seed N] [--seconds S] [--trace 0|1] [--smoke]

It imports marscost from the checkout's ``src/`` and runs one workload in
this process (``all`` runs each in a child process of its own, so peak memory
is per workload). With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. Lines before it carry the host and the workload's own named
metrics. ``--smoke`` runs the workload at minimal size with all its checks.
See README.md in this directory for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS threading moves inference throughput by about a fifth on two cores, so
# both sides of a comparison must run with the same value: unset means 1.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("synth", "learn", "pipeline")
# the acceptance seed, and the seed of configs/tiny.json
DEFAULT_SEEDS = {"synth": 11, "learn": 11, "pipeline": 7}
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("peak_rss_mb", "MiB"),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="marscost benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: 11 for synth and learn, 7 for pipeline)")
    p.add_argument("--seconds", type=float, default=20.0, help="measuring time budget")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting per-layer metrics")
    p.add_argument("--smoke", action="store_true", help="minimal sizes, all checks")
    args = p.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def import_marscost():
    """Import marscost from this checkout's src/, never from anywhere else."""
    if not (SRC / "marscost" / "__init__.py").is_file():
        sys.exit(f"error: no marscost sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import marscost

    if Path(marscost.__file__).resolve().parent != SRC / "marscost":
        sys.exit(f"error: imported marscost from {marscost.__file__}, not {SRC}")
    return marscost


def git_commit():
    """HEAD of the checkout when it is a git repository, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_info(seed: int) -> dict:
    import numpy as np

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": git_commit(),
        "seed": seed,
    }


def fresh_import_s(gauge, repeats: int = 5) -> float:
    """Median time of a new interpreter importing the whole package, at nominal speed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(repeats):
        gauge.sample()
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", "import marscost.cli"], env=env, cwd=ROOT,
                       check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        t1 = time.perf_counter()
        times.append(gauge.normalize(t1 - t0, t0, t1))
    gauge.sample()
    return statistics.median(times)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def declared_metrics(trace: int):
    """Metric names BENCHMARK.json declares for this mode, or None without the file."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def print_report(rows: dict):
    for name, (value, unit, note) in rows.items():
        print(f"  {name:<22} {value:>14.6g} {unit:<6} {note}")


def run_one(args) -> int:
    import numpy as np

    from gauge import Gauge
    from layers import per_layer_metrics
    from spans import Target, Tracer
    from workloads import WORKLOADS, Ledger

    seed = args.seed
    print(f"# perfbench {args.workload} seed={seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    print("host " + json.dumps(host_info(seed)))
    work_root = ROOT / ".perfbench_work"
    work_dir = work_root / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=False)
    ledger = Ledger()
    gauge = Gauge(enabled=not args.trace)
    w = WORKLOADS[args.workload](seed, args.smoke, work_dir, gauge)
    try:
        if args.trace:
            traced = Tracer()
            with traced.patch(w.targets(traced=True)):
                t0 = time.perf_counter()
                w.setup(ledger)
                setup_wall = time.perf_counter() - t0
            with Tracer().patch(w.targets(traced=False)) as probe:
                t0 = time.perf_counter()
                units = w.measure(ledger, probe, seconds=args.seconds)
                plain_wall = time.perf_counter() - t0
            with traced.patch(w.targets(traced=True)):
                t0 = time.perf_counter()
                w.measure(ledger, traced, units=units)
                traced_wall = time.perf_counter() - t0
            w.check(ledger)
            metrics = per_layer_metrics(traced, setup_wall + traced_wall, traced_wall / plain_wall)
            print(f"  traced {units} units: {traced_wall:.3f} s traced, {plain_wall:.3f} s untraced")
        else:
            import_s = fresh_import_s(gauge)
            # the gauge also samples between the sensor calls of a synthesis set-up
            sensing = [Target("simulate.simulate_lidar"), Target("simulate.render_camera")]
            with Tracer(after=gauge.maybe_sample).patch(sensing):
                t0 = time.perf_counter()
                w.setup(ledger)
                t1 = time.perf_counter()
            gauge.sample()
            inputs_s = gauge.normalize(t1 - t0, t0, t1)
            with Tracer(after=gauge.maybe_sample).patch(w.targets(traced=False)) as probe:
                w.measure(ledger, probe, seconds=args.seconds)
            w.check(ledger)
            rate, latency_s, report = w.metrics(probe)
            values = {
                "setup_s": import_s + inputs_s,
                "throughput_per_s": rate,
                "latency_ms_p50": float(np.percentile(latency_s, 50)) * 1000.0,
                "peak_rss_mb": peak_rss_mib(),
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
            report["setup_s"] = (values["setup_s"], "s",
                                 f"import {import_s:.3f} s + inputs {inputs_s:.3f} s")
            report["peak_rss_mb"] = (values["peak_rss_mb"], "MiB", "")
            slowness = gauge.factor(gauge.starts[0], gauge.ends[-1])
            report["host_slowness"] = (slowness, "1", f"median of {len(gauge.starts)} gauge "
                                       "samples; timings above are at nominal host speed")
            print_report(report)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it
    declared = declared_metrics(args.trace)
    if declared is not None:
        ledger.check(sorted(declared) == sorted(metrics),
                     "metric names differ from BENCHMARK.json")
    print(f"  {'error_rate':<22} {ledger.failed / max(ledger.attempted, 1):>14.6g} "
          f"{'1':<6} {ledger.failed} failed of {ledger.attempted} attempted")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints their reports and a summary table."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    done = [r for r in results.values() if r]
    print(f"\n{'metric':<36}" + "".join(f"{n:>14}" for n in WORKLOAD_NAMES))
    for m, v in (done[0]["metrics"].items() if done else ()):
        cells = "".join(f"{r['metrics'][m]['value']:>14.6g}" if r else f"{'-':>14}"
                        for r in results.values())
        print(f"{m + ' [' + v['unit'] + ']':<36}" + cells)
    print(f"{'error_rate':<36}" + "".join(
        f"{r['failed'] / r['attempted']:>14.6g}" if r else f"{'crashed':>14}"
        for r in results.values()))
    return 0 if all(r and r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    import_marscost()
    if args.workload == "all":
        return run_all(args)
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

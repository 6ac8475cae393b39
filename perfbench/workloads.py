"""The benchmark's workloads, run in process against marscost from outside.

Each workload builds its inputs from the seed in ``setup``, runs its measured
phase in ``measure`` and checks the program's outputs in ``check`` (or as it
goes). The functions it times one call at a time even with tracing off are
its ``probes``: one ``perf_counter`` pair per call, recorded by the same
wrapper the traced run uses. ``measure`` runs for a time budget, or for a
fixed count of units so a traced pass repeats exactly the work of an
untraced one. Units repeat identical work, so each call's time is the median
of its repeats; every time is divided by the host-speed gauge's factor
around it (see gauge.py).

- ``synth``: ``dataset.synthesize_dataset(seed, n_runs=4)`` at its defaults,
  at least twice. The ray caster dominates and the net is never called.
- ``learn``: set-up builds the ``synth`` dataset and splits it; then
  ``train.fit`` with the acceptance recipe and repeated passes of
  ``evaluation.run_ablation_suite`` over all six modes on the held-out split.
- ``pipeline``: the six CLI commands through ``cli.main`` on a frozen copy of
  ``configs/tiny.json``, cycling over four seeds, each run in a fresh workdir.
"""

import contextlib
import io
import json
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from marscost import cli, dataset, evaluation, simulate, train
from marscost.config import load_config
from marscost.evaluation import ABLATION_MODES, AblationSpec
from marscost.geometry import quat_to_matrix
from marscost.heightfield import surface_heights
from marscost.net import NetConfig
from marscost.train import AugmentConfig, TrainConfig

from gauge import Gauge
from layers import CLI_COMMANDS, TARGETS
from spans import Target

HERE = Path(__file__).resolve().parent

# widths of the acceptance suite's regressor (criteria 5 and 6)
ACCEPT_NET = NetConfig(
    channels=8,
    stage2_channels=12,
    stage3_channels=16,
    film_hidden=8,
    head_channels=16,
    max_points_per_pillar=32,
)
ACCEPT_STEPS = 500  # fit runs 500 // steps-per-epoch epochs: 494 steps on seed 11
SPLIT_SEED = 11
INTERIM_EVERY = 50  # fit steps between the ablation passes run during the fit
MIN_ABLATION_PASSES = 3  # after the fit
PIPELINE_SEEDS = 4
# minimal sizes for --smoke, with every check still run
SMOKE_DATASET = dict(n_runs=2, terrain_size=48, lidar_rays=150, camera_px=(8, 12), sensor_stride=6)


class Ledger:
    """Operations and checks attempted and failed; each failure is told on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return bool(ok)

    def run(self, what: str, fn, *args, **kwargs):
        """Call ``fn``; an exception counts as a failed operation. Returns (ok, result)."""
        self.attempted += 1
        try:
            return True, fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            print(f"operation failed: {what}", file=sys.stderr)
            traceback.print_exc()
            return False, None


def percentile_ms(seconds, q: float) -> float:
    return float(np.percentile(np.asarray(seconds) * 1000.0, q))


def latency_report(prefix: str, seconds, note: str = "") -> dict:
    """Median plus each tail percentile that has at least ten samples beyond it."""
    n = len(seconds)
    out = {f"{prefix}_p50": (percentile_ms(seconds, 50), "ms", f"n={n}{note}")}
    for q in (90, 95):
        if n * (100 - q) / 100 >= 10:
            out[f"{prefix}_p{q}"] = (percentile_ms(seconds, q), "ms", f"n={n}{note}")
    return out


def median_repeat(seconds, per_repeat: int) -> np.ndarray:
    """Each call's median time over identical repeats, given in call order."""
    return np.median(np.asarray(seconds).reshape(-1, per_repeat), axis=0)


class Workload:
    name = ""
    probes = {}  # target path -> hook name (a method of the workload) or None

    def __init__(self, seed: int, smoke: bool, work_dir: Path, gauge: Gauge = None):
        self.seed = seed
        self.smoke = smoke
        self.work_dir = work_dir
        self.gauge = gauge or Gauge(enabled=False)

    def span_seconds(self, tracer, name: str) -> np.ndarray:
        """Each ``name`` call's time at nominal host speed, in call order."""
        return np.array([self.gauge.normalize(s.seconds, s.start, s.end)
                         for s in tracer.spans if s.name == name])

    def targets(self, traced: bool):
        """Probes only, or every traced target with the probes' hooks added."""
        hooks = {p: getattr(self, h) if h else None for p, h in self.probes.items()}
        if not traced:
            by_path = {t.path: t for t in TARGETS}
            return [Target(p, by_path[p].name, h) for p, h in hooks.items()]
        return [Target(t.path, t.name, _chain(t.hook, hooks.get(t.path))) for t in TARGETS]

    def setup(self, ledger):
        pass

    def check(self, ledger):
        pass


def _chain(first, second):
    if first is None or second is None:
        return first or second

    def both(*args):
        first(*args)
        second(*args)

    return both


def _stop(done: int, elapsed: float, seconds, units, minimum: int = 1) -> bool:
    """Fixed-count passes stop at ``units``; timed ones before the next unit would overrun."""
    if units is not None:
        return done >= units
    return done >= minimum and elapsed + elapsed / done > seconds


class Synth(Workload):
    """Ray casting for LiDAR sweeps and camera images; the net is never called."""

    name = "synth"
    probes = {"simulate.simulate_lidar": "_keep_sweep", "simulate.render_camera": None}

    def _keep_sweep(self, tracer, args, kwargs, cloud, span):
        self._sweeps.append((args[0], args[1], cloud))

    def measure(self, ledger, tracer, seconds=None, units=None) -> int:
        """Synthesize the seed's dataset at least twice, identically each time."""
        # (samples kept, worst LiDAR hit gap, seconds at nominal host speed) per
        # repeat; samples are dropped once checked so peak memory does not grow
        self.datasets = []
        start = time.perf_counter()
        done = 0
        while True:
            self._sweeps = []
            t0 = time.perf_counter()
            ok, samples = ledger.run(
                f"synthesize_dataset(seed={self.seed})",
                lambda: dataset.synthesize_dataset(
                    self.seed, **(SMOKE_DATASET if self.smoke else dict(n_runs=4))),
            )
            if ok:
                t1 = time.perf_counter()
                wall = self.gauge.normalize(t1 - t0, t0, t1)
                self.datasets.append((len(samples), self._hit_gap(), wall))
            samples = self._sweeps = None
            done += 1
            if _stop(done, time.perf_counter() - start, seconds, units, 2):
                return done

    def _hit_gap(self) -> float:
        """Largest height gap between a LiDAR hit and the surface under it."""
        worst = 0.0
        for hf, pose, cloud in self._sweeps:
            if len(cloud):
                world = cloud.xyz @ quat_to_matrix(pose.orientation).T + pose.position
                gap = np.abs(world[:, 2] - surface_heights(hf, world[:, 0], world[:, 1]))
                worst = max(worst, float(gap.max()))
        return worst

    def check(self, ledger):
        min_samples = 1 if self.smoke else 32
        for n_samples, gap, _ in self.datasets:
            ledger.check(n_samples >= min_samples,
                         f"synth seed {self.seed}: {n_samples} samples < {min_samples}")
            ledger.check(gap <= simulate.RAY_TOL_M,
                         f"synth seed {self.seed}: a LiDAR hit lies {gap:.3g} m off the surface")

    def metrics(self, tracer):
        repeats = len(self.datasets)
        sensing = (self.span_seconds(tracer, "simulate.simulate_lidar")
                   + self.span_seconds(tracer, "simulate.render_camera"))
        frame_s = median_repeat(sensing, sensing.size // repeats)
        wall = float(np.median([d[2] for d in self.datasets]))
        rate = frame_s.size / wall
        note = f", median of {repeats} repeats"
        report = {
            "synth_frames_per_s": (rate, "1/s", f"{frame_s.size} frames in {wall:.2f} s{note}"),
            "samples": (self.datasets[0][0], "count", ""),
        }
        report.update(latency_report("frame_ms", frame_s, note))
        return rate, frame_s, report


class Learn(Workload):
    """Training and one-sample-at-a-time inference on the acceptance recipe."""

    name = "learn"
    probes = {
        "net.loss_and_grads": "_keep_batch",
        "train.adam_step": "_interim_pass",
        "evaluation.predict": None,
    }

    def _keep_batch(self, tracer, args, kwargs, result, span):
        self._batches.append(len(args[1]))

    def _fit_seconds(self, t0: float, t1: float) -> float:
        """Wall of [t0, t1] inside the fit, less the passes and gauge samples in it."""
        g = self.gauge
        passes = [(max(s, t0), min(e, t1)) for s, e in self._interim if e > t0 and s < t1]
        return (t1 - t0 - g.busy(t0, t1)
                - sum(e - s - g.busy(s, e) for s, e in passes))

    def _interim_pass(self, tracer, args, kwargs, result, span):
        # inference is also timed during the fit, on the weights of that step, so
        # a slow stretch of a shared host weighs no more on it than on training;
        # the net's cost does not depend on its weights
        params, state = result
        if state.k % INTERIM_EVERY == 0:
            t0 = time.perf_counter()
            evaluation.run_ablation_suite(params, self.heldout, self.specs)
            self._interim.append((t0, time.perf_counter()))

    def setup(self, ledger):
        kw = SMOKE_DATASET if self.smoke else dict(n_runs=4)
        samples = dataset.synthesize_dataset(self.seed, **kw)
        self.train_set, self.heldout = dataset.split_samples(samples, 0.25, seed=SPLIT_SEED)
        if not self.train_set or not self.heldout:
            raise RuntimeError(f"learn seed {self.seed}: split left an empty side")

    def measure(self, ledger, tracer, seconds=None, units=None) -> int:
        steps_per_epoch = -(-len(self.train_set) // 8)
        cfg = TrainConfig(
            lr=1e-4,
            batch_size=8,
            huber_delta=0.1,
            smooth_lambda=0.1,
            epochs=1 if self.smoke else max(1, ACCEPT_STEPS // steps_per_epoch),
            seed=1,
            augment=AugmentConfig(rotate=False, translate=False, noise_sigma=0.0),
        )
        self.specs = [AblationSpec(m, seed=3) for m in ABLATION_MODES]
        self._batches = []
        self._interim = []  # (start, end) of the passes run inside the fit
        self.reports = []
        start = time.perf_counter()
        ok, fitted = ledger.run("fit", train.fit, self.train_set, cfg, ACCEPT_NET)
        end = time.perf_counter()
        self.fit_s = self._fit_seconds(start, end) / self.gauge.factor(start, end)
        if not ok:
            return 0
        self.params, self.history = fitted
        done = 0
        while True:
            ok, report = ledger.run("run_ablation_suite", evaluation.run_ablation_suite,
                                    self.params, self.heldout, self.specs)
            if ok:
                self.reports.append(report)
            done += 1
            if _stop(done, time.perf_counter() - start, seconds, units,
                     1 if self.smoke else MIN_ABLATION_PASSES):
                return done

    def check(self, ledger):
        if not self.reports:
            return
        first = self.reports[0]
        ledger.check(all(r.to_csv_text() == first.to_csv_text() for r in self.reports),
                     "ablation passes disagree")
        abs_sum = n_cells = 0.0
        for s in self.heldout:
            err = (evaluation.predict(self.params, s).values - s.target.values)[s.target.valid]
            abs_sum += np.abs(err).sum()
            n_cells += err.size
        baseline = first.by_mode()["baseline"].mae
        ledger.check(baseline == abs_sum / n_cells,
                     f"baseline MAE {baseline!r} != pooled predict MAE {abs_sum / n_cells!r}")
        if not self.smoke:
            first10 = float(np.mean([h.total for h in self.history[:10]]))
            last10 = float(np.mean([h.total for h in self.history[-10:]]))
            ledger.check(last10 <= 0.5 * first10,
                         f"loss did not halve: first10 {first10:.5f} last10 {last10:.5f}")

    def metrics(self, tracer):
        # a step runs from one loss_and_grads call to the next: augment, forward,
        # backward and the Adam update of one batch, less any pass run in between
        starts = [s.start for s in tracer.spans if s.name == "net.loss_and_grads"]
        g = self.gauge
        rates = [b * g.factor(t0, t1) / self._fit_seconds(t0, t1)
                 for b, t0, t1 in zip(self._batches, starts, starts[1:])]
        rate = float(np.median(rates)) if rates else sum(self._batches) / self.fit_s
        passes = len(self._interim) + len(self.reports)
        infer_s = median_repeat(self.span_seconds(tracer, "evaluation.predict"),
                                 len(self.specs) * len(self.heldout))
        report = {
            "train_samples_per_s": (rate, "1/s", f"median of {len(rates)} steps"),
            "fit_s": (self.fit_s, "s", f"{len(self.history)} steps, "
                      f"{sum(self._batches) / self.fit_s:.1f} samples/s overall"),
            "heldout_mae": (self.reports[0].by_mode()["baseline"].mae, "1",
                            f"{len(self.heldout)} held-out samples"),
            "ablation_passes": (len(self.reports), "count",
                                f"after the fit, and {len(self._interim)} during it"),
        }
        report.update(latency_report("infer_ms", infer_s, f", median of {passes} passes"))
        return rate, infer_s, report


def tree_bytes(root: Path) -> dict:
    """Every file under ``root`` outside ``report/``, by relative path."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.relative_to(root).parts[0] != "report"
    }


class Pipeline(Workload):
    """The six CLI commands, writing and re-reading every artifact."""

    name = "pipeline"
    probes = {"evaluation.predict": None}

    def setup(self, ledger):
        self.config = HERE / "tiny.json"
        if self.smoke:  # the reduction acceptance criterion 8 uses
            cfg = json.loads(self.config.read_text())
            cfg["sim"]["trajectories"] = cfg["sim"]["trajectories"][:1]
            cfg["sim"].update(sensor_stride=18, lidar_rays=250)
            cfg["train"]["epochs"] = 2
            self.config = self.work_dir / "smoke.json"
            self.config.write_text(json.dumps(cfg))
        load_config(self.config)  # the frozen config must still validate

    def run_seed(self, ledger, seed: int, workdir: Path):
        """The six commands in order; their walls at nominal host speed, or None on failure."""
        walls = []
        for cmd in CLI_COMMANDS:
            argv = [cmd, "--config", str(self.config), "--seed", str(seed), "--out", str(workdir)]
            out, err = io.StringIO(), io.StringIO()
            self.gauge.maybe_sample()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                ok, rc = ledger.run(f"marscost {cmd} --seed {seed}", cli.main, argv)
            t1 = time.perf_counter()
            walls.append(self.gauge.normalize(t1 - t0, t0, t1))
            if not ok or not ledger.check(rc == 0, f"marscost {cmd} --seed {seed} exited {rc}"):
                sys.stderr.write(err.getvalue())
                return None
        return walls

    def seeds(self):
        """The run's seeds: the workload seed, then seed + 1000 j."""
        return [self.seed + 1000 * j for j in range(1 if self.smoke else PIPELINE_SEEDS)]

    def measure(self, ledger, tracer, seconds=None, units=None) -> int:
        """Cycle over the seeds, each pipeline in a fresh workdir, every seed at least twice."""
        seeds = self.seeds()
        self.walls = {s: [] for s in seeds}  # per seed and repeat: the six command walls
        self.infer = {s: [] for s in seeds}  # per seed and repeat: predict walls
        first_tree = {}
        start = time.perf_counter()
        done = 0
        while True:
            seed = seeds[done % len(seeds)]
            workdir = self.work_dir / f"unit{done}"
            n_spans = len(tracer.spans)
            walls = self.run_seed(ledger, seed, workdir)
            if walls is not None:
                self.walls[seed].append(walls)
                self.infer[seed].append([
                    self.gauge.normalize(s.seconds, s.start, s.end)
                    for s in tracer.spans[n_spans:] if s.name == "evaluation.predict"])
                # criterion 8: a seed gives a byte-identical workdir outside report/
                tree = tree_bytes(workdir)
                if seed not in first_tree:
                    first_tree[seed] = tree
                else:
                    ledger.check(tree == first_tree[seed], f"pipeline seed {seed}: a repeat "
                                 "differs from the first outside report/")
            shutil.rmtree(workdir, ignore_errors=True)
            done += 1
            if _stop(done, time.perf_counter() - start, seconds, units, 2 * len(seeds)):
                return done

    def metrics(self, tracer):
        seeds = self.seeds()
        # per seed, the median repeat of each command and of each predict call
        per_seed = [np.median(self.walls[s], axis=0) for s in seeds]
        pipeline_s = float(np.mean([w.sum() for w in per_seed]))
        infer_s = np.concatenate([np.median(self.infer[s], axis=0) for s in seeds])
        repeats = min(len(self.walls[s]) for s in seeds)
        note = f", median of {repeats}+ repeats of {len(seeds)} seeds"
        report = {"pipeline_s": (pipeline_s, "s", "mean over seeds" + note)}
        for i, cmd in enumerate(CLI_COMMANDS):
            report[f"{cmd}_s"] = (float(np.mean([w[i] for w in per_seed])), "s", "mean over seeds")
        report.update(latency_report("infer_ms", infer_s, note))
        return 1.0 / pipeline_s, infer_s, report


WORKLOADS = {w.name: w for w in (Synth, Learn, Pipeline)}

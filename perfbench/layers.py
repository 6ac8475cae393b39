"""What the traced run wraps in marscost, the counters it reads, and the per-layer metrics.

Every function is named by its defining module (``bev.pillarize``); the
tracer wraps it at each module attribute bound to it. Counters come from
arguments and return values only: ``PillarTensor.n_outside``/``n_dropped``,
the ``hit`` mask of ``march_rays``, samples kept per frame sensed, and the
valid cells of each label raster. Convolution work is computed from tensor
shapes, not measured.
"""

import numpy as np

from spans import Target

# layers in pipeline order; a span belongs to the layer before its first dot
MODULES = (
    "heightfield", "simulate", "labeling", "dataset", "bev", "ops", "net",
    "train", "evaluation", "io", "checkpoint", "config", "cli",
)
CLI_COMMANDS = ("simulate", "label", "train", "eval", "ablate", "export")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_rays(tr, args, kwargs, result, span):
    # the caller tells LiDAR sweeps from camera images apart
    kind = "camera" if tr.parent_name(span) == "simulate.render_camera" else "lidar"
    hit = result[0]
    tr.counters[f"simulate.{kind}.rays"] += hit.size
    tr.counters[f"simulate.{kind}.hits"] += int(np.count_nonzero(hit))
    tr.counters[f"simulate.{kind}.s"] += span.seconds


def _count_points(tr, args, kwargs, pt, span):
    tr.counters["bev.pillarize.points"] += len(_arg(args, kwargs, 0, "cloud"))
    tr.counters["bev.pillarize.outside"] += pt.n_outside
    tr.counters["bev.pillarize.dropped"] += pt.n_dropped


def _count_windows(tr, args, kwargs, samples, span):
    clouds = _arg(args, kwargs, 2, "clouds")
    images = _arg(args, kwargs, 3, "images")
    tr.counters["dataset.frames_sensed"] += len(clouds.keys() & images.keys())
    tr.counters["dataset.samples_kept"] += len(samples)


def _count_label_cells(tr, args, kwargs, result, span):
    tr.counters["labeling.valid_fine_cells"] += int(np.count_nonzero(result[1].valid))
    tr.counters["labeling.rasters"] += 1


def _conv_flop(cache) -> int:
    kh, kw, cin, cout = cache["w"].shape
    ho, wo = cache["out_hw"]
    return 2 * ho * wo * kh * kw * cin * cout


def _count_conv_forward(tr, args, kwargs, result, span):
    tr.counters["ops.conv2d.flop"] += _conv_flop(result[1])


def _count_conv_backward(tr, args, kwargs, result, span):
    # weight gradient and input gradient are one forward's work each
    tr.counters["ops.conv2d.flop"] += 2 * _conv_flop(_arg(args, kwargs, 0, "cache"))


TARGETS = (
    Target("heightfield.generate_heightfield"),
    Target("simulate.generate_trajectory"),
    Target("simulate.synthesize_imu"),
    Target("simulate.simulate_lidar"),
    Target("simulate.render_camera"),
    Target("simulate.march_rays", hook=_count_rays),
    Target("labeling.build_labels", hook=_count_label_cells),
    Target("labeling.normalize_labels"),
    Target("dataset.synthesize_dataset"),
    Target("dataset.build_samples", hook=_count_windows),
    Target("dataset.split_samples"),
    Target("bev.pillarize", hook=_count_points),
    Target("bev.pillar_encode_cached", "bev.pillar_encode"),
    Target("bev.pillar_encode_backward"),
    Target("bev.embed_image"),
    Target("bev.film_gamma_beta", "bev.film"),
    Target("bev.film_backward", "bev.film"),
    Target("ops.conv2d_forward", hook=_count_conv_forward),
    Target("ops.conv2d_backward", hook=_count_conv_backward),
    Target("ops.resize_bilinear"),
    Target("ops.resize_bilinear_backward"),
    Target("ops.sigmoid"),
    Target("net.init_params"),
    Target("net.forward_cached"),
    Target("net.forward"),
    Target("net.backward"),
    Target("net.loss_and_grads"),
    Target("train.fit"),
    Target("train.augment"),
    Target("train.adam_step"),
    Target("evaluation.run_ablation_suite"),
    Target("evaluation.apply_ablation"),
    Target("evaluation.predict"),
    Target("evaluation.export_costmap"),
    Target("evaluation.import_costmap"),
    Target("io.write_run_dir"),
    Target("io.read_run_dir"),
    Target("io.read_trajectory_csv"),
    Target("io.read_imu_csv"),
    Target("io.write_sparse_csv"),
    Target("io.write_costmap_pgm"),
    Target("io.read_costmap_pgm"),
    Target("io.write_costmap_csv"),
    Target("io.atomic_write_text"),
    Target("io.atomic_write_bytes"),
    Target("checkpoint.save_checkpoint"),
    Target("checkpoint.load_checkpoint"),
    Target("config.load_config"),
    Target("cli.main"),
    Target("cli._load_samples", "cli.load_samples"),
) + tuple(Target(f"cli.cmd_{c}", f"cli.{c}") for c in CLI_COMMANDS)

SELF_TIMES = (
    "heightfield.generate_heightfield",
    "simulate.march_rays",
    "simulate.generate_trajectory",
    "simulate.synthesize_imu",
    "labeling.build_labels",
    "dataset.build_samples",
    "bev.pillarize",
    "bev.pillar_encode",
    "bev.pillar_encode_backward",
    "bev.embed_image",
    "bev.film",
    "ops.conv2d_forward",
    "ops.conv2d_backward",
    "ops.resize_bilinear",
    "ops.resize_bilinear_backward",
    "net.forward_cached",
    "net.backward",
    "net.loss_and_grads",
    "net.forward",
    "train.augment",
    "train.adam_step",
    "evaluation.apply_ablation",
    "io.write_run_dir",
    "io.read_run_dir",
    "config.load_config",
)
CALLS = ("simulate.march_rays", "bev.embed_image", "io.read_run_dir")


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = [(f"{m}.self_s", "s", "lower") for m in MODULES]
    spec += [(f"{n}.self_s", "s", "lower") for n in SELF_TIMES]
    spec += [(f"{n}.calls", "count", "lower") for n in CALLS]
    spec += [(f"cli.{c}.s", "s", "lower") for c in CLI_COMMANDS]
    for kind in ("lidar", "camera"):
        spec += [
            (f"simulate.{kind}.rays", "count", "higher"),
            (f"simulate.{kind}.rays_per_s", "1/s", "higher"),
            (f"simulate.{kind}.hit_ratio", "ratio", "higher"),
        ]
    spec += [
        ("bev.pillarize.points", "count", "higher"),
        ("bev.pillarize.points_per_s", "1/s", "higher"),
        ("bev.points_outside_ratio", "ratio", "lower"),
        ("bev.points_dropped_ratio", "ratio", "lower"),
        ("dataset.frames_sensed", "count", "higher"),
        ("dataset.window_keep_ratio", "ratio", "higher"),
        ("labeling.rasters", "count", "higher"),
        ("labeling.valid_fine_cells", "count", "higher"),
        ("ops.conv2d.gflop", "GFLOP", "lower"),
        ("ops.conv2d.gflop_per_s", "GFLOP/s", "higher"),
        ("trace.wall_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.coverage_ratio", "ratio", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return spec


def _ratio(num, den) -> float:
    # a ratio whose base is zero (the layer never ran) reads 0; its base is reported too
    return float(num) / den if den else 0.0


def per_layer_metrics(tracer, traced_wall_s: float, overhead_ratio: float) -> dict:
    """Every per-layer metric from one traced run; layers that never ran read 0.

    ``traced_wall_s`` is the wall time of everything run under the tracer;
    ``overhead_ratio`` compares a traced pass with an untraced pass of the
    same work.
    """
    stats = tracer.stats()
    c = tracer.counters
    values = {}
    for m in MODULES:
        values[f"{m}.self_s"] = sum(st.self_s for n, st in stats.items() if n.split(".")[0] == m)
    for n in SELF_TIMES:
        values[f"{n}.self_s"] = stats[n].self_s if n in stats else 0.0
    for n in CALLS:
        values[f"{n}.calls"] = stats[n].calls if n in stats else 0
    for cmd in CLI_COMMANDS:
        values[f"cli.{cmd}.s"] = stats[f"cli.{cmd}"].total_s if f"cli.{cmd}" in stats else 0.0
    for kind in ("lidar", "camera"):
        rays = c[f"simulate.{kind}.rays"]
        values[f"simulate.{kind}.rays"] = int(rays)
        values[f"simulate.{kind}.rays_per_s"] = _ratio(rays, c[f"simulate.{kind}.s"])
        values[f"simulate.{kind}.hit_ratio"] = _ratio(c[f"simulate.{kind}.hits"], rays)
    points = c["bev.pillarize.points"]
    pillarize_s = values["bev.pillarize.self_s"]
    conv_s = values["ops.conv2d_forward.self_s"] + values["ops.conv2d_backward.self_s"]
    values.update({
        "bev.pillarize.points": int(points),
        "bev.pillarize.points_per_s": _ratio(points, pillarize_s),
        "bev.points_outside_ratio": _ratio(c["bev.pillarize.outside"], points),
        "bev.points_dropped_ratio": _ratio(c["bev.pillarize.dropped"], points),
        "dataset.frames_sensed": int(c["dataset.frames_sensed"]),
        "dataset.window_keep_ratio": _ratio(c["dataset.samples_kept"], c["dataset.frames_sensed"]),
        "labeling.rasters": int(c["labeling.rasters"]),
        "labeling.valid_fine_cells": int(c["labeling.valid_fine_cells"]),
        "ops.conv2d.gflop": c["ops.conv2d.flop"] / 1e9,
        "ops.conv2d.gflop_per_s": _ratio(c["ops.conv2d.flop"] / 1e9, conv_s),
        "trace.wall_s": traced_wall_s,
        "trace.spans": len(tracer.spans),
        "trace.coverage_ratio": _ratio(tracer.top_level_seconds(), traced_wall_s),
        "trace.overhead_ratio": overhead_ratio,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_spec()}

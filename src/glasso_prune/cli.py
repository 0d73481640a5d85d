"""Command line front end: train, prune, analyze, sweep.

Exit codes: 0 on success, 2 for configuration or usage errors, 3 when
training diverges, 4 for I/O and file-format errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import sys
from pathlib import Path

from .analysis import (
    GAP_BAND_HI, GAP_BAND_LO, AnalysisBundle, bimodality_gap, fmt_float, norm_histogram,
    write_bundle,
)
from .config import ExperimentConfig, convert_value, parse_config
from .datasets import Dataset
from .errors import (
    ConfigError,
    DataFormatError,
    ModelFormatError,
    ShapeMismatchError,
    TrainingDiverged,
)
from .model_io import MAGIC, load_model, save_model
from .network import MlpNetwork, init_network
from .pruning import apply_mask, forced_removal_curve, make_mask, match_count_mask
from .regularization import Mode
from .trainer import (
    TrainConfig, TrainResult, disposable_counts, evaluate, load_history, train,
)


def _group_mode(name: str | None, cfg: ExperimentConfig | None) -> Mode:
    """Group direction of norm diagnostics: --mode (out or in) if given,
    else in for a glasso_in config, else out.

    L2 training has no grouping of its own, so its networks are inspected
    with outgoing groups, the direction used when comparing against it.
    """
    if name is None:
        name = "in" if cfg is not None and cfg.mode == Mode.GLASSO_IN.value else "out"
    return Mode.GLASSO_OUT if name == "out" else Mode.GLASSO_IN


def run_training(
    cfg: ExperimentConfig, splits: tuple[Dataset, Dataset, Dataset], out_dir: Path
) -> tuple[TrainResult, float]:
    """Train per cfg on its splits, write the requested files; return result, test accuracy."""
    train_set, val_set, test_set = splits
    net = init_network(cfg.layer_sizes, cfg.seed)

    out_dir.mkdir(parents=True, exist_ok=True)
    result = train(net, train_set, val_set, cfg, log_path=out_dir / "history.jsonl")
    save_model(result.best_network, out_dir / "model.glnn")

    test_acc = evaluate(result.best_network, test_set)
    last = result.history[-1]
    best_val = max(r.val_accuracy for r in result.history)
    manifest = {
        "config": cfg.to_dict(),
        "best_epoch": result.best_epoch,
        "best_val_acc": float(best_val),
        "final": {
            "train_loss": float(last.train_loss),
            "train_acc": float(last.train_accuracy),
            "val_acc": float(last.val_accuracy),
            "disposable": last.disposable_per_layer,
        },
        "test_acc": float(test_acc),
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8", newline="") as f:
        f.write(json.dumps(manifest, indent=2) + "\n")

    if cfg.emit_bundle:
        mode = _group_mode(None, cfg)
        bundle = AnalysisBundle(
            histogram=norm_histogram(result.best_network, mode),
            history=result.history,
            retained_profile=_retained_profile(result.best_network, mode, cfg.theta),
            gap_report=_gap_report(result.best_network, mode),
        )
        write_bundle(bundle, out_dir)

    return result, float(test_acc)


def _retained_profile(net: MlpNetwork, mode: Mode, theta: float) -> list[tuple[int, int, int]]:
    """(layer, kept, total) per hidden layer, as a theta prune keeps them."""
    mask = make_mask(net, mode, theta)
    return [(l, int(k.sum()), int(k.size)) for l, k in enumerate(mask.keep, start=1)]


def _gap_report(net: MlpNetwork, mode: Mode) -> dict:
    return {
        "mode": mode.value,
        "band_lo": GAP_BAND_LO,
        "band_hi": GAP_BAND_HI,
        "gap_fraction": bimodality_gap(net, mode),
        "hidden_nodes": sum(net.hidden_sizes),
    }


def cmd_train(args) -> int:
    cfg = parse_config(args.config)
    if not cfg.output_dir:
        raise ConfigError("key 'output_dir' is required for train")
    result, test_acc = run_training(cfg, cfg.load_splits(), Path(cfg.output_dir))
    best_val = max(r.val_accuracy for r in result.history)
    print(
        f"trained {cfg.epochs} epochs; best val acc {fmt_float(best_val)} "
        f"at epoch {result.best_epoch}; test acc {fmt_float(test_acc)}"
    )
    print(f"wrote {cfg.output_dir}")
    return 0


def cmd_prune(args) -> int:
    net = load_model(args.model)
    cfg = parse_config(args.data)
    mode = _group_mode(args.mode, cfg)
    if args.match_count is not None:
        mask = match_count_mask(net, mode, args.match_count)
    else:
        mask = make_mask(net, mode, cfg.theta if args.theta is None else args.theta)

    _, _, test_set = cfg.load_splits()
    before = evaluate(net, test_set)
    pruned = apply_mask(net, mask)
    after = evaluate(pruned, test_set)

    out_dir = Path(args.out) if args.out else Path(args.model).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    save_model(pruned, out_dir / "pruned_model.glnn")

    doc = {
        "mode": mode.value,
        "theta": mask.theta,
        "removed_per_layer": mask.removed_per_layer(),
        "retained_per_layer": mask.retained_per_layer(),
        "total_removed": mask.total_removed(),
        "accuracy": after,  # same as after_accuracy; kept so the key list is stable
        "model": str(args.model),
        "before_accuracy": before,
        "after_accuracy": after,
        "layer_sizes_before": net.layer_sizes,
        "layer_sizes_after": pruned.layer_sizes,
    }
    with open(out_dir / "prune.json", "w", encoding="utf-8", newline="") as f:
        f.write(json.dumps(doc, indent=2) + "\n")

    print(
        f"removed {mask.total_removed()} of {sum(net.hidden_sizes)} hidden nodes; "
        f"test acc {fmt_float(before)} -> {fmt_float(after)}"
    )
    print(f"wrote {out_dir / 'pruned_model.glnn'}")
    return 0


def _is_model_file(path: Path) -> bool:
    with open(path, "rb") as f:
        return f.read(len(MAGIC)) == MAGIC


def cmd_analyze(args) -> int:
    target = Path(args.target)
    is_model = _is_model_file(target)

    wants = {
        "histogram": args.histogram,
        "curve": args.curve,
        "gap": args.gap,
        "disposable": args.disposable,
        "retained": args.retained,
    }
    if not any(wants.values()):
        # default: everything derivable from the given file alone
        if is_model:
            wants.update(histogram=True, gap=True, retained=True)
            wants["curve"] = args.data is not None
        else:
            wants["disposable"] = True

    bundle = AnalysisBundle()
    if is_model:
        net = load_model(target)
        cfg = parse_config(args.data) if args.data is not None else None
        mode = _group_mode(args.mode, cfg)
        if wants["disposable"]:
            raise ConfigError("--disposable needs a history.jsonl file, not a model")
        if wants["histogram"]:
            bundle.histogram = norm_histogram(net, mode)
        if wants["gap"]:
            bundle.gap_report = _gap_report(net, mode)
        if wants["retained"]:
            theta = args.theta
            if theta is None:
                theta = cfg.theta if cfg is not None else TrainConfig.theta
            bundle.retained_profile = _retained_profile(net, mode, theta)
        if wants["curve"]:
            if cfg is None:
                raise ConfigError("--curve needs --data to evaluate accuracy")
            _, _, test_set = cfg.load_splits()
            bundle.pruning_curve = forced_removal_curve(
                net, mode, test_set, step=args.step
            )
    else:
        if any(wants[k] for k in ("histogram", "curve", "gap", "retained")):
            raise ConfigError(
                "histogram/curve/gap/retained need a model file, not a history"
            )
        bundle.history = load_history(target)

    out_dir = Path(args.out) if args.out else target.parent
    written = write_bundle(bundle, out_dir)
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_sweep(args) -> int:
    cfg = parse_config(args.config)
    if not cfg.output_dir:
        raise ConfigError("key 'output_dir' is required for sweep")
    grid = {}  # key -> {summary cell: value}; repeats of a key are its alternatives
    for pair in args.set:
        key, eq, text = (part.strip() for part in pair.partition("="))
        if not eq or key == "output_dir":
            raise ConfigError(f"--set takes key=value, any key but output_dir; got {pair!r}")
        value = convert_value(key, text, f"--set {pair}")
        alternatives = grid.setdefault(key, {})
        if value in alternatives.values():
            raise ConfigError(f"--set {pair}: key {key!r} repeats a value")
        alternatives[fmt_float(value) if isinstance(value, float) else text] = value

    out_root = Path(cfg.output_dir)
    train_keys = {f.name for f in dataclasses.fields(TrainConfig)}
    splits_by_data = {}  # cells of the non-training keys -> that point's splits
    points = []
    for cells in itertools.product(*grid.values()):
        sub = out_root / "_".join(f"{key}_{cell}" for key, cell in zip(grid, cells))
        point = {key: grid[key][cell] for key, cell in zip(grid, cells)}
        run_cfg = dataclasses.replace(cfg, **point, output_dir=str(sub))
        data = tuple(cell for key, cell in zip(grid, cells) if key not in train_keys)
        if data not in splits_by_data:
            # checks this point against its own data before any train
            splits_by_data[data] = run_cfg.load_splits()
        points.append((run_cfg, splits_by_data[data], sub, cells))

    rows = [[*grid, "best_val_acc", "disposable_total", "post_prune_acc"]]
    for run_cfg, splits, sub, cells in points:
        result, _ = run_training(run_cfg, splits, sub)

        net = result.best_network
        mode = _group_mode(None, run_cfg)
        best_val = max(r.val_accuracy for r in result.history)
        disposable = sum(disposable_counts(net, mode, run_cfg.theta))
        post_acc = evaluate(apply_mask(net, make_mask(net, mode, run_cfg.theta)), splits[2])
        rows.append([*cells, fmt_float(best_val), disposable, fmt_float(post_acc)])
        print(
            f"{sub.name}: best val acc {fmt_float(best_val)}, "
            f"{disposable} disposable, post-prune acc {fmt_float(post_acc)}"
        )

    out_root.mkdir(parents=True, exist_ok=True)
    with open(out_root / "summary.csv", "w", encoding="utf-8", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    print(f"wrote {out_root / 'summary.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glasso-prune",
        description="Train sigmoid MLPs with group-sparsity pressure, then "
        "prune near-zero hidden nodes without retraining.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a network from a config file")
    p.add_argument("config", help="experiment config (key=value or JSON)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("prune", help="threshold-prune a saved model")
    p.add_argument("model", help="path to a .glnn model")
    p.add_argument("--mode", choices=("out", "in"), default=None,
                   help="group direction: outgoing or incoming weight vectors "
                   "(default: that of the --data config's mode, out for l2)")
    p.add_argument("--theta", type=float, default=None,
                   help="group-norm removal threshold (default: theta of --data)")
    p.add_argument("--match-count", type=int, default=None, metavar="N",
                   help="ignore theta and remove exactly the N smallest groups")
    p.add_argument("--data", required=True,
                   help="config whose dataset supplies the evaluation split")
    p.add_argument("--out", default=None, help="output directory (default: model dir)")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("analyze", help="norm and history diagnostics")
    p.add_argument("target", help="a .glnn model or a history.jsonl")
    p.add_argument("--histogram", action="store_true", help="group-norm histogram CSV")
    p.add_argument("--curve", action="store_true",
                   help="forced-removal accuracy curve CSV (needs --data)")
    p.add_argument("--gap", action="store_true", help="norm bimodality gap JSON")
    p.add_argument("--disposable", action="store_true",
                   help="per-epoch disposable-node CSV from a history file")
    p.add_argument("--retained", action="store_true",
                   help="kept-vs-total nodes per layer at the theta threshold")
    p.add_argument("--mode", choices=("out", "in"), default=None,
                   help="group direction for model diagnostics (default: that "
                   "of the --data config's mode, out for l2 or without --data)")
    p.add_argument("--theta", type=float, default=None,
                   help="threshold for --retained (default: theta of --data, "
                   "else 1e-2)")
    p.add_argument("--step", type=int, default=100,
                   help="nodes removed per curve point (default 100)")
    p.add_argument("--data", default=None,
                   help="config whose dataset supplies curve evaluation")
    p.add_argument("--out", default=None, help="output directory (default: target dir)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="train once per grid point and summarize")
    p.add_argument("config", help="base experiment config")
    p.add_argument("--set", action="append", required=True, metavar="KEY=VALUE",
                   help="a config value per run; repeat a key for alternatives, keys form a grid")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except TrainingDiverged as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (DataFormatError, ModelFormatError, ShapeMismatchError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""Command line front end: train, prune, analyze, sweep.

Exit codes: 0 on success; for an error, the exit_code its type declares in
errors.py: 2 for a config error, 3 when training diverges, 4 for data, model
and shape errors. Of other errors, OSError exits 4, and ValueError and a warning
turned into an error (python -W error) exit 2. stderr shows "error: <message>",
and "warning: <message>" once per distinct warning per command.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import sys
import warnings
from pathlib import Path

from .analysis import (
    MODEL_OUTPUTS, NORM_OUTPUTS, diagnostics, disposable_rows, fmt_float, write_bundle, write_csv,
    write_json,
)
from .config import ExperimentConfig, convert_value, parse_config
from .datasets import Dataset
from .errors import ConfigError, GlassoPruneError
from .model_io import load_model, save_model
from .network import init_network
from .pruning import (
    DEFAULT_STEP, apply_mask, curve_workers, forced_removal_curve, make_mask, match_count_mask,
)
from .regularization import Mode, group_norms
from .trainer import (
    TrainConfig, TrainResult, disposable_counts, evaluate, train,
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
    cfg: ExperimentConfig, splits: tuple[Dataset, Dataset, Dataset]
) -> tuple[TrainResult, float, list]:
    """Train per cfg into cfg.output_dir; return result, test accuracy, best_network's norms."""
    train_set, val_set, test_set = splits
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # no name holds the float64 init network, so it is freed once train copies it
    result = train(init_network(cfg.layer_sizes, cfg.seed), train_set, val_set, cfg,
                   log_path=out_dir / "history.jsonl")
    save_model(result.best_network, out_dir / "model.glnn")

    test_acc = evaluate(result.best_network, test_set)
    final = dataclasses.asdict(result.history[-1])
    del final["epoch"]
    write_json(out_dir / "manifest.json", {
        "config": cfg.to_dict(),
        "best_epoch": result.best_epoch,
        "best_val_acc": float(result.best_val_accuracy),
        "final": final,
        "test_acc": float(test_acc),
    })

    mode = _group_mode(None, cfg)
    norms = group_norms(result.best_network, mode)
    outputs = {"disposable": disposable_rows(result.history)}
    if cfg.emit_bundle:
        outputs.update(diagnostics(norms, mode, cfg.theta, NORM_OUTPUTS))
    write_bundle(outputs, out_dir)

    return result, float(test_acc), norms


def cmd_train(args) -> int:
    cfg = parse_config(args.config)
    if not cfg.output_dir:
        raise ConfigError("key 'output_dir' is required for train")
    result, test_acc, _ = run_training(cfg, cfg.load_splits())
    print(
        f"trained {cfg.epochs} epochs; best val acc {fmt_float(result.best_val_accuracy)} "
        f"at epoch {result.best_epoch}; test acc {fmt_float(test_acc)}"
    )
    print(f"wrote {cfg.output_dir}")
    return 0


def cmd_prune(args) -> int:
    net = load_model(args.model)
    cfg = parse_config(args.data)
    mode = _group_mode(args.mode, cfg)
    norms = group_norms(net, mode)
    theta = None  # a --match-count prune has no threshold
    if args.match_count is not None:
        keep = match_count_mask(norms, args.match_count)
    else:
        theta = cfg.theta if args.theta is None else args.theta
        keep = make_mask(norms, theta)

    _, _, test_set = cfg.load_splits()
    before = evaluate(net, test_set)
    pruned = apply_mask(net, mode, keep)
    after = evaluate(pruned, test_set)
    removed = [n - m for n, m in zip(net.hidden_sizes, pruned.hidden_sizes)]

    out_dir = Path(args.out) if args.out else Path(args.model).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    save_model(pruned, out_dir / "pruned_model.glnn")

    write_json(out_dir / "prune.json", {
        "mode": mode.value,
        "theta": theta,
        "removed_per_layer": removed,
        "retained_per_layer": pruned.hidden_sizes,
        "total_removed": sum(removed),
        "accuracy": after,  # same as after_accuracy; kept so the key list is stable
        "model": str(args.model),
        "before_accuracy": before,
        "after_accuracy": after,
        "layer_sizes_before": net.layer_sizes,
        "layer_sizes_after": pruned.layer_sizes,
    })

    print(
        f"removed {sum(removed)} of {sum(net.hidden_sizes)} hidden nodes; "
        f"test acc {fmt_float(before)} -> {fmt_float(after)}"
    )
    print(f"wrote {out_dir / 'pruned_model.glnn'}")
    return 0


def cmd_analyze(args) -> int:
    target = Path(args.target)
    net = load_model(target)  # a target that is not a model exits 4 before any option check
    chosen = [name for name in MODEL_OUTPUTS if getattr(args, name)]

    if not chosen:  # default: everything derivable from the given files
        chosen = MODEL_OUTPUTS if args.data is not None else NORM_OUTPUTS
    for option, output in (("theta", "retained"), ("step", "curve")):
        if getattr(args, option) is not None and output not in chosen:
            raise ConfigError(f"--{option} is read only for {output}.csv, not written here")
    # --data sets the direction unless --mode does, and theta unless --theta does
    data_read = "curve" in chosen or args.mode is None or (
        "retained" in chosen and args.theta is None)
    if args.data is not None and not data_read:
        raise ConfigError("--data is read only for curve.csv, for the group direction "
                          "without --mode and for retained.csv's theta without --theta")
    cfg = parse_config(args.data) if args.data is not None else None
    if "curve" in chosen and cfg is None:
        raise ConfigError("--curve needs --data to evaluate accuracy")
    theta = args.theta
    if theta is None:
        theta = cfg.theta if cfg is not None else TrainConfig.theta
    mode = _group_mode(args.mode, cfg)
    test_set = cfg.load_splits()[2] if "curve" in chosen else None
    norms = group_norms(net, mode)
    outputs = diagnostics(norms, mode, theta, chosen)
    if test_set is not None:
        step = DEFAULT_STEP if args.step is None else args.step
        outputs["curve"] = forced_removal_curve(net, mode, norms, test_set, step, curve_workers())

    out_dir = Path(args.out) if args.out else target.parent
    for path in write_bundle(outputs, out_dir):
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
    # keys that leave the data as it is: points differing only in these share one load
    run_keys = {f.name for f in dataclasses.fields(TrainConfig)} | {"layer_sizes", "emit_bundle"}
    splits_by_data = {}  # cells of the data-source keys -> their splits
    points = []
    for cells in itertools.product(*grid.values()):
        name = "_".join(f"{key}_{cell}" for key, cell in zip(grid, cells))
        sub = out_root / name.replace("%", "%25").replace("/", "%2F")  # one directory per point
        point = {key: grid[key][cell] for key, cell in zip(grid, cells)}
        run_cfg = dataclasses.replace(cfg, **point, output_dir=str(sub))
        data = tuple(cell for key, cell in zip(grid, cells) if key not in run_keys)
        if data not in splits_by_data:
            splits_by_data[data] = run_cfg.load_splits()
        # checks every point against its data before any train
        run_cfg.check_fit(splits_by_data[data][0])
        points.append((run_cfg, splits_by_data[data], sub, cells))
    for *_, sub, _ in points:  # a name the file system refuses exits before any train
        sub.mkdir(parents=True, exist_ok=True)

    rows = [[*grid, "best_val_acc", "disposable_total", "post_prune_acc"]]
    for run_cfg, splits, sub, cells in points:
        result, _, norms = run_training(run_cfg, splits)
        net, mode = result.best_network, _group_mode(None, run_cfg)
        disposable = sum(disposable_counts(norms, run_cfg.theta))
        post_acc = evaluate(apply_mask(net, mode, make_mask(norms, run_cfg.theta)), splits[2])
        rows.append([*cells, result.best_val_accuracy, disposable, post_acc])
        print(
            f"{sub.name}: best val acc {fmt_float(result.best_val_accuracy)}, "
            f"{disposable} disposable, post-prune acc {fmt_float(post_acc)}"
        )

    write_csv(out_root / "summary.csv", rows[0], rows[1:])
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
    how = p.add_mutually_exclusive_group()
    how.add_argument("--theta", type=float, default=None,
                     help="group-norm removal threshold (default: theta of --data)")
    how.add_argument("--match-count", type=int, default=None, metavar="N",
                     help="remove exactly the N smallest groups instead of thresholding")
    p.add_argument("--data", required=True,
                   help="config whose dataset supplies the evaluation split")
    p.add_argument("--out", default=None, help="output directory (default: model dir)")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("analyze", help="group-norm diagnostics of a saved model")
    p.add_argument("target", help="path to a .glnn model")
    p.add_argument("--histogram", action="store_true", help="group-norm histogram CSV")
    p.add_argument("--curve", action="store_true",
                   help="forced-removal accuracy curve CSV (needs --data)")
    p.add_argument("--gap", action="store_true", help="norm bimodality gap JSON")
    p.add_argument("--retained", action="store_true",
                   help="kept-vs-total nodes per layer at the theta threshold")
    p.add_argument("--mode", choices=("out", "in"), default=None,
                   help="group direction for model diagnostics (default: that "
                   "of the --data config's mode, out for l2 or without --data)")
    p.add_argument("--theta", type=float, default=None,
                   help="threshold for retained.csv, and only for it (default: "
                   "theta of --data, else 1e-2)")
    p.add_argument("--step", type=int, default=None,
                   help=f"nodes removed per curve point, read only for curve.csv "
                   f"(default {DEFAULT_STEP})")
    p.add_argument("--data", default=None,
                   help="config whose dataset supplies curve evaluation")
    p.add_argument("--out", default=None, help="output directory (default: model dir)")
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
        with warnings.catch_warnings():  # on entry, each distinct warning shows once again
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            return args.func(args)
    except (GlassoPruneError, OSError, ValueError, Warning) as e:
        print(f"error: {e}", file=sys.stderr)
        return getattr(e, "exit_code", 4 if isinstance(e, OSError) else 2)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""End-to-end benchmark of glasso-prune: train, prune and analyze.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train_glasso --seed 42 --seconds 20 --trace 0

Every command goes through the public ``glasso_prune.cli.main(argv)`` in
this process, one at a time (a closed loop with one client), so the
package is imported once. ``setup_s`` is the median of several set-up
repetitions, each of which imports the package in a fresh interpreter (the
cost every ``glasso-prune`` invocation pays) and writes the configs.

The workload seed becomes the ``seed`` key of private copies of
``configs/reference_*.cfg``; nothing else in them changes except
``output_dir``, so seed 42 trains the committed reference runs. All outputs go to a scratch directory under
``.perfbench_out/``, which is removed at exit; the results, the environment
they were measured in and, with ``--trace 1``, the spans are written
beside it.

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics. With ``--trace 1`` iterations alternate between
untraced and traced (wrappers from ``tracer.py`` installed), and the
object holds the per-layer metrics of one traced iteration.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, installed_wrappers, layer_metrics, unit, write_spans

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# One BLAS thread: OpenBLAS with two threads was no faster on these
# 128x256 products and spread more between runs.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

CONFIGS = ("glasso_out", "glasso_in", "l2")
# Group direction used to prune each reference model. L2 has no grouping
# of its own and is pruned with outgoing groups, as in the paper's
# match-count contrast.
PRUNE_MODE = {"glasso_out": "out", "glasso_in": "in", "l2": "out"}
# Group direction of the forced-removal curve. With outgoing groups the
# L2 curve's length depends on the seed (38 to 91 points at seeds 1-6,
# 42 and 43), which analyze_s would show as spread. With incoming groups
# it always stops once the first hidden layer would empty (32 points),
# because L2 leaves the 64-wide rows of W1 shorter than any row of W2 or
# W3.
ANALYZE_MODE = {"glasso_out": "out", "glasso_in": "in", "l2": "in"}
THETA = "1e-2"
CURVE_STEP = "8"

WORKLOADS = {
    "train_glasso": ("glasso_out", "glasso_in"),
    "train_l2": ("l2",),
    "prune_analyze": CONFIGS,
}
# Set-up is repeated and its median reported; prune_analyze trains the
# three reference models in each repetition, so it repeats less.
SETUP_REPS = {"train_glasso": 3, "train_l2": 3, "prune_analyze": 2}
# Two iterations at least: the second is the rerun the outputs of the
# first are compared with, and with tracing one of each kind is needed.
MIN_ITERATIONS = 2
# A train workload analyzes each new model twice, so that analyze_s has
# more than one sample per model.
CHECK_ANALYZE_REPS = 2

MAX_THRESHOLD_LOSS = 0.005  # a theta prune may not lose half a point
MIN_MATCH_COUNT_LOSS = 0.05  # an L2 match-count prune must lose > 5 points


def _hash_outputs(out_dir: Path) -> dict[str, str]:
    """sha256 of every output file except manifest.json."""
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def seeded_config(text: str, seed: int, output_dir: Path) -> str:
    """The reference config with only seed and output_dir replaced."""
    lines, seen = [], set()
    for line in text.splitlines():
        key = line.partition("=")[0].strip()
        if "=" in line and key in ("seed", "output_dir") and not line.lstrip().startswith("#"):
            line = f"{key} = {seed if key == 'seed' else output_dir}"
            seen.add(key)
        lines.append(line)
    if seen != {"seed", "output_dir"}:
        raise ValueError(f"config lacks key(s) {sorted({'seed', 'output_dir'} - seen)}")
    return "\n".join(lines) + "\n"


class Bench:
    """Runs CLI commands, times them and checks their outputs."""

    def __init__(self, cli, work: Path, config_texts: dict[str, str], seed: int):
        self.cli = cli
        self.work = work
        self.config_texts = config_texts
        self.seed = seed
        self.times: dict[str, list[float]] = {"train": [], "prune": [], "analyze": []}
        self.attempted = 0
        self.failures: list[str] = []
        self.first_outputs: dict[str, dict[str, str]] = {}
        self.test_acc: dict[str, float] = {}
        self.threshold_prunes: dict[str, dict] = {}
        self.tracer: Tracer | None = None

    def cfg(self, name: str) -> Path:
        return self.work / "configs" / f"{name}.cfg"

    def model(self, name: str) -> Path:
        return self.work / "train" / name / "model.glnn"

    def write_configs(self) -> None:
        cfg_dir = self.work / "configs"
        shutil.rmtree(cfg_dir, ignore_errors=True)
        cfg_dir.mkdir(parents=True)
        for name, text in self.config_texts.items():
            self.cfg(name).write_text(
                seeded_config(text, self.seed, self.work / "train" / name), encoding="utf-8"
            )

    def run(self, kind: str, key: str, argv: list[str], out_dir: Path, check=None):
        """Run one command; return its output dir, or None if it failed.

        A command fails on a non-zero exit code, on outputs that differ
        from the first run of the same key in this process, or when
        check(out_dir) returns a reason.
        """
        shutil.rmtree(out_dir, ignore_errors=True)
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span(f"cmd.{kind}") if self.tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
                code = self.cli.main([str(a) for a in argv])
        except Exception:
            code = None
            err.write(traceback.format_exc())
        self.times[kind].append(time.perf_counter() - start)
        self.attempted += 1

        if code != 0:
            problem = f"exit code {code}: {err.getvalue().strip()}"
        else:
            hashes = _hash_outputs(out_dir)
            if self.first_outputs.setdefault(key, hashes) != hashes:
                problem = "outputs differ from the first run in this process"
            else:
                problem = check(out_dir) if check else None
        if problem:
            self.failures.append(f"{key}: {problem}")
            return None
        return out_dir

    # -- commands ------------------------------------------------------

    def train(self, name: str) -> None:
        out = self.run("train", f"train {name}", ["train", self.cfg(name)],
                       self.work / "train" / name)
        if out:
            self.test_acc[name] = float(_read_json(out / "manifest.json")["test_acc"])

    def prune_theta(self, name: str) -> dict | None:
        def check(out_dir):
            doc = _read_json(out_dir / "prune.json")
            if doc["after_accuracy"] <= doc["before_accuracy"] - MAX_THRESHOLD_LOSS:
                return (f"theta prune lost {doc['before_accuracy'] - doc['after_accuracy']:.4f}"
                        " of test accuracy")
            return None

        out = self.run(
            "prune", f"prune {name} theta",
            ["prune", self.model(name), "--mode", PRUNE_MODE[name], "--theta", THETA,
             "--data", self.cfg(name), "--out", self.work / "prune" / f"{name}-theta"],
            self.work / "prune" / f"{name}-theta", check,
        )
        if out is None:
            return None
        doc = _read_json(out / "prune.json")
        self.threshold_prunes[name] = doc
        return doc

    def prune_match_count(self, name: str, n_remove: int) -> None:
        def check(out_dir):
            doc = _read_json(out_dir / "prune.json")
            if doc["after_accuracy"] >= doc["before_accuracy"] - MIN_MATCH_COUNT_LOSS:
                return (f"match-count prune of {n_remove} nodes lost only "
                        f"{doc['before_accuracy'] - doc['after_accuracy']:.4f}")
            return None

        self.run(
            "prune", f"prune {name} match-count",
            ["prune", self.model(name), "--mode", PRUNE_MODE[name],
             "--match-count", n_remove, "--data", self.cfg(name),
             "--out", self.work / "prune" / f"{name}-match"],
            self.work / "prune" / f"{name}-match", check,
        )

    def analyze_curve(self, name: str) -> None:
        self.run(
            "analyze", f"analyze {name}",
            ["analyze", self.model(name), "--curve", "--step", CURVE_STEP,
             "--mode", ANALYZE_MODE[name], "--data", self.cfg(name),
             "--out", self.work / "analyze" / name],
            self.work / "analyze" / name,
        )

    # -- workloads -----------------------------------------------------

    def setup(self, workload: str) -> None:
        """Import the package in a fresh interpreter, as every CLI command
        does, and write the seeded configs; prune_analyze also trains its
        models."""
        subprocess.run([sys.executable, "-c", "import glasso_prune.cli"],
                       cwd=ROOT, env=os.environ | {"PYTHONPATH": str(ROOT / "src")},
                       check=True)
        self.write_configs()
        if workload == "prune_analyze":
            for name in CONFIGS:
                self.train(name)

    def iteration(self, workload: str) -> None:
        if workload == "prune_analyze":
            out = self.prune_theta("glasso_out")
            self.prune_theta("glasso_in")
            if out is None:
                self.attempted += 1
                self.failures.append("prune l2 match-count: no glasso_out removal count")
            else:
                self.prune_match_count("l2", int(out["total_removed"]))
            for name in CONFIGS:
                self.analyze_curve(name)
            return
        # A train workload checks each model it trains the way a user
        # would use it: prune at theta, then the forced-removal curve.
        for name in WORKLOADS[workload]:
            self.train(name)
            self.prune_theta(name)
            for _ in range(CHECK_ANALYZE_REPS):
                self.analyze_curve(name)

    # -- results -------------------------------------------------------

    def kept_frac(self) -> float:
        """Hidden nodes the theta prunes keep, as a share of all hidden nodes."""
        prunes = self.threshold_prunes.values()
        kept = sum(sum(d["retained_per_layer"]) for d in prunes)
        return kept / sum(sum(d["layer_sizes_before"][1:-1]) for d in prunes)


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest nearest-rank percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    return round(100 * (n - 10) / n), sorted(samples)[n - 11]


def reference_kernel_ms(reps: int = 25) -> float:
    """Median time of a fixed matmul plus exp, as a yardstick of machine speed.

    The program's code does not run here, so a change to it cannot move
    this number; a shift in it between runs is the machine, not the code.
    """
    import numpy as np

    a, w = np.full((1024, 256), 0.5), np.full((256, 256), 0.01)
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        np.exp(-(a @ w))
        times.append(time.perf_counter() - t)
    return 1000 * statistics.median(times)


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "nproc": nproc,
        "machine": platform.machine(),
        "reference_kernel_ms": reference_kernel_ms(),
        "seed": seed,
    }


def measure(bench: Bench, workload: str, seconds: float, trace: bool):
    """Run iterations for `seconds`; return per-iteration times and layers.

    With trace, odd iterations run with the tracer installed.
    """
    iter_times = {False: [], True: []}
    layers: list[dict] = []
    all_spans = []
    start = time.perf_counter()
    it = 0
    while it < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        traced = trace and it % 2 == 1
        if traced:
            bench.tracer = Tracer(workload, it)
            bench.tracer.install()
        t0 = time.perf_counter()
        try:
            bench.iteration(workload)
        finally:
            if traced:
                bench.tracer.restore()
        iter_times[traced].append(time.perf_counter() - t0)
        if traced:
            layers.append(layer_metrics(bench.tracer.spans, bench.tracer.counts))
            all_spans.extend(bench.tracer.spans)
            bench.tracer = None
        it += 1
    return iter_times, layers, all_spans


def per_layer_result(layers: list[dict], iter_times) -> tuple[dict, list[str]]:
    """Median seconds and exact counts over the traced iterations."""
    problems = []
    first = layers[0]
    metrics = {}
    for name, value in first.items():
        if unit(name) == "s":
            value = statistics.median(layer[name] for layer in layers)
        elif any(layer[name] != value for layer in layers[1:]):
            problems.append(f"count {name} differs between traced iterations")
        metrics[name] = {"value": value, "unit": unit(name)}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(iter_times[True]) - statistics.median(iter_times[False]),
        "unit": "s",
    }
    leftover = installed_wrappers()
    if leftover:
        problems.append(f"wrappers left installed: {leftover}")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    missing = [
        p for p in [ROOT / "src" / "glasso_prune" / "cli.py"]
        + [ROOT / "configs" / f"reference_{name}.cfg" for name in CONFIGS]
        if not p.is_file()
    ]
    if missing:
        print(f"error: not a glasso-prune checkout, missing {missing[0]}", file=sys.stderr)
        return 2

    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import glasso_prune.cli as cli

    import_s = time.perf_counter() - t0

    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    texts = {
        name: (ROOT / "configs" / f"reference_{name}.cfg").read_text(encoding="utf-8")
        for name in CONFIGS
    }
    bench = Bench(cli, work, texts, args.seed)
    try:
        setup_times = []
        for _ in range(SETUP_REPS[args.workload]):
            t = time.perf_counter()
            bench.setup(args.workload)
            setup_times.append(time.perf_counter() - t)
        iter_times, layers, spans = measure(bench, args.workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not (bench.test_acc and bench.threshold_prunes):
        print("error: no model was trained and pruned", file=sys.stderr)
        for msg in bench.failures:
            print(f"FAILED {msg}", file=sys.stderr)
        return 1
    env = environment(args.seed)
    problems = []
    if args.trace:
        metrics, problems = per_layer_result(layers, iter_times)
        metrics["pruning.kept_frac"] = {"value": bench.kept_frac(), "unit": "frac"}
        write_spans(spans, OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {
            "train_s": {"value": statistics.median(bench.times["train"]), "unit": "s"},
            "analyze_s": {"value": statistics.median(bench.times["analyze"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB",
            },
            "test_acc": {"value": min(bench.test_acc.values()), "unit": "frac"},
            "pruned_test_acc": {
                "value": min(d["after_accuracy"] for d in bench.threshold_prunes.values()),
                "unit": "frac",
            },
        }

    timings = {
        kind: {"n": len(ts), "median_s": statistics.median(ts), "tail": tail(ts), "samples_s": ts}
        for kind, ts in bench.times.items()
    }
    failed = len(bench.failures)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "environment": env, "import_s": import_s,
        "kept_frac": bench.kept_frac(),
        "setup_times_s": setup_times,
        "iteration_times_s": {"untraced": iter_times[False], "traced": iter_times[True]},
        "timings": timings, "failures": bench.failures + problems, "result": result,
    }, indent=2) + "\n", encoding="utf-8")

    for msg in bench.failures + problems:
        print(f"FAILED {msg}", file=sys.stderr)
    print("environment: " + json.dumps(env))
    for kind, t in timings.items():
        extra = f", p{t['tail'][0]} {t['tail'][1]:.4f} s" if t["tail"] else ""
        print(f"{kind}: median {t['median_s']:.4f} s{extra} (n={t['n']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

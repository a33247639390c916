"""Command-line entry point and run orchestration.

``clare`` runs one of three modes over MNIST-format files or the built-in
toy blobs: the incremental learner itself (``clare``), the all-classes-at-
once upper bound (``joint``), and the no-replay lower bound (``finetune``).
Results go to stdout as a small table and, with ``--out``, to a diffable
text report (plus ``--csv`` for a flat accuracy table).

Exit codes: 0 on success, 1 on a runtime failure, 2 on a usage or
configuration error (including a missing data directory).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .config import (
    CONFIG_KEYS,
    ENV_DATA_DIR,
    ExperimentConfig,
    config_from_items,
    parse_seeds,
)
from .dataio import LabeledDataset, load_mnist, make_toy_dataset, write_idx
from .protocol import (
    MetricsRecord,
    build_schedule,
    run_experiment,
    run_finetune_baseline,
    run_joint_baseline,
)
from .report import MODES, ResultsReport, RunResult, write_csv, write_report

__all__ = [
    "ExperimentConfig",
    "main",
    "run_cli",
]


class UsageError(ValueError):
    """A problem the user can fix on the command line; exits with code 2."""


def build_parser() -> argparse.ArgumentParser:
    """Flags whose dest is a config key stay strings; ``merge_config`` parses them."""
    parser = argparse.ArgumentParser(
        prog="clare",
        description="Class-incremental learning with generative replay.",
    )
    parser.add_argument("--mode", choices=MODES, default="clare")
    parser.add_argument("--dataset", metavar="{mnist,toy}")
    parser.add_argument("--data-dir",
                        help=f"directory with the four IDX files (default: ${ENV_DATA_DIR})")
    parser.add_argument("--g", help="classes per increment")
    parser.add_argument("--epochs")
    parser.add_argument("--batch", dest="batch_size")
    parser.add_argument("--lr")
    parser.add_argument("--latent-dim", dest="d_z")
    parser.add_argument("--beta")
    parser.add_argument("--replay", metavar="{on,off}")
    parser.add_argument("--start", metavar="{scratch,warm}")
    parser.add_argument("--seed")
    parser.add_argument("--seeds", default=None,
                        help="comma-separated seeds; runs once per seed")
    parser.add_argument("--out", default=None, dest="out_path",
                        help="write the results report here")
    parser.add_argument("--csv", default=None,
                        help="write a flat per-class accuracy CSV here")
    parser.add_argument("--dump-replay", default=None,
                        help="directory for per-increment replay buffers as IDX files")
    parser.add_argument("--config", default=None,
                        help="key = value file with defaults; flags override it")
    parser.add_argument("--toy-classes", dest="toy_classes")
    parser.add_argument("--toy-per-class", dest="toy_per_class")
    parser.add_argument("--toy-dim", dest="toy_dim")
    parser.add_argument("--toy-spread", dest="toy_spread")
    return parser


def read_config_file(path: str) -> dict[str, str]:
    """Read ``key = value`` lines; blanks and ``#`` comments are skipped.

    Each value is checked here, with the other fields at their defaults, so
    an unknown key or a bad value is rejected naming the file and line; a
    key given twice is rejected with both lines. Values come back as text.
    """
    items: dict[str, str] = {}
    lines: dict[str, int] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for n, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise UsageError(f"{path}:{n}: expected 'key = value', got {line!r}")
                key, value = (part.strip() for part in stripped.split("=", 1))
                if key in lines:
                    raise UsageError(
                        f"{path}:{n}: duplicate key {key!r} (first set on line {lines[key]})"
                    )
                try:
                    config_from_items({key: value})
                except ValueError as exc:
                    raise UsageError(f"{path}:{n}: {exc}") from None
                items[key], lines[key] = value, n
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return items


def merge_config(args: argparse.Namespace) -> ExperimentConfig:
    """Layer the effective config: defaults, then config file, then flags."""
    items = read_config_file(args.config) if args.config else {}
    items.update((k, v) for k, v in vars(args).items() if k in CONFIG_KEYS and v is not None)
    try:
        return config_from_items(items)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def load_datasets(config: ExperimentConfig) -> tuple[LabeledDataset, LabeledDataset]:
    """Materialize the train/test pair a resolved config describes."""
    if config.dataset == "mnist":
        if not config.data_dir:
            raise UsageError(
                f"mnist needs --data-dir or ${ENV_DATA_DIR} pointing at the IDX files"
            )
        if not os.path.isdir(config.data_dir):
            raise UsageError(f"data directory does not exist: {config.data_dir}")
        try:
            return load_mnist(config.data_dir)
        except FileNotFoundError as exc:
            raise UsageError(str(exc)) from exc
    train_ss, test_ss = np.random.SeedSequence([config.seed, 0xD474]).spawn(2)
    # Cross-field limits (such as toy_classes against toy_dim) are checked
    # here rather than in validate(), which config files run one key at a time.
    try:
        train = make_toy_dataset(
            config.toy_classes,
            config.toy_per_class,
            dim=config.toy_dim,
            spread=config.toy_spread,
            seed=train_ss,
        )
        test = make_toy_dataset(
            config.toy_classes,
            max(50, config.toy_per_class // 2),
            dim=config.toy_dim,
            spread=config.toy_spread,
            seed=test_ss,
        )
    except ValueError as exc:
        raise UsageError(
            f"toy_classes = {config.toy_classes} with toy_dim = {config.toy_dim}: {exc}"
        ) from exc
    return train, test


def _replay_dumper(directory: str, dim: int, seed: int):
    """Writer for --dump-replay: images and labels as IDX, one pair per phase."""
    os.makedirs(directory, exist_ok=True)
    side = int(round(dim**0.5))
    square = side * side == dim

    def dump(phase: int, buffer) -> None:
        pixels = np.clip(np.round(buffer.images * 255.0), 0, 255).astype(np.uint8)
        if square:
            pixels = pixels.reshape(-1, side, side)
        stem = os.path.join(directory, f"replay-s{seed}-{phase:02d}")
        with open(f"{stem}-images-idx", "wb") as fh:
            fh.write(write_idx(pixels))
        with open(f"{stem}-labels-idx", "wb") as fh:
            fh.write(write_idx(buffer.labels.astype(np.uint8)))

    return dump


def run_mode(
    mode: str,
    train: LabeledDataset,
    test: LabeledDataset,
    config: ExperimentConfig,
    seed: int,
    on_replay=None,
) -> list[MetricsRecord]:
    classes = train.classes()
    if mode == "joint":
        return [run_joint_baseline(train, test, config, seed)]
    schedule = build_schedule(classes, config.g)
    if mode == "finetune":
        return run_finetune_baseline(train, test, schedule, config, seed)
    return run_experiment(train, test, schedule, config, seed, on_replay=on_replay)


def print_table(report: ResultsReport, stream=None) -> None:
    """One row per run: overall accuracy after each increment."""
    stream = stream or sys.stdout
    width = max(len(run.records) for run in report.runs)
    header = ["g", "seed"] + [f"inc{i}" for i in range(width)]
    rows = [header]
    for run in report.runs:
        cells = [str(report.config.g), str(run.seed)]
        cells += [f"{record.overall:.1f}" for record in run.records]
        rows.append(cells)
    widths = [max(len(row[i]) for row in rows if i < len(row)) for i in range(len(header))]
    for row in rows:
        line = "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        print(line, file=stream)


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = merge_config(args)
        try:
            seeds = [config.seed] if args.seeds is None else parse_seeds(args.seeds)
        except ValueError as exc:
            raise UsageError(f"--seeds {exc}") from None
        if args.mode == "clare" and not config.replay:
            print("warning: replay is off; this is the forgetting ablation",
                  file=sys.stderr)
        if args.mode != "clare" and args.dump_replay:
            raise UsageError("--dump-replay only applies to --mode clare")
        config = config.resolved()
        started = time.perf_counter()
        runs = []
        for seed in seeds:
            run_config = replace(config, seed=seed)
            train, test = load_datasets(run_config)
            on_replay = None
            if args.dump_replay:
                wide = [cls for cls in train.classes() if cls > 255]
                if wide:
                    raise UsageError(
                        f"--dump-replay writes labels as bytes; class {wide[0]} is above 255"
                    )
                on_replay = _replay_dumper(args.dump_replay, train.dim, seed)
            records = run_mode(args.mode, train, test, run_config, seed, on_replay)
            runs.append(RunResult(seed=seed, records=records))
        report = ResultsReport(
            mode=args.mode,
            config=replace(config, seed=seeds[0]),
            runs=runs,
            total_seconds=time.perf_counter() - started,
        )
        print_table(report)
        if config.out_path:
            write_report(report, config.out_path)
        if args.csv:
            write_csv(report, args.csv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run_cli())

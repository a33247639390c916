"""Run reports: line-oriented ``key = value`` text plus an optional CSV.

The format is deliberately plain so two reports diff cleanly: one fact per
line, fixed key order, floats written with ``repr`` so they round-trip
bit-exactly. A report holds the echoed config, one block per seeded run
with its per-increment records, and summary figures that ``read_report``
recomputes and cross-checks on load.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import ExperimentConfig, config_from_items, parse_seeds, read_items, read_text
from .dataio import replacing
from .metrics import average_over_tasks
from .protocol import TRACE_KEYS, MetricsRecord

FORMAT_HEADER = "# clare-report v1"

MODES = ("clare", "joint", "finetune")


class ReportFormatError(ValueError):
    """The text does not parse or validate as a report."""


@dataclass
class RunResult:
    seed: int
    records: list[MetricsRecord]


@dataclass
class ResultsReport:
    mode: str
    config: ExperimentConfig
    runs: list[RunResult]
    total_seconds: float = 0.0
    artifact_version: str = __version__
    note: str = "accuracies are deterministic last-epoch values"


def run_summaries(records: list[MetricsRecord]) -> dict[str, float]:
    """Derived figures for one run: averages over the first 5/10/all tasks."""
    out = {}
    if len(records) >= 5:
        out["avg_first_5"] = average_over_tasks(records, 5)
    if len(records) >= 10:
        out["avg_first_10"] = average_over_tasks(records, 10)
    out["avg_all"] = average_over_tasks(records, len(records))
    return out


def aggregate_summaries(runs: list[RunResult]) -> dict[str, tuple[float, float | None]]:
    """Across-seed mean and sample std of each per-run summary figure.

    The std is ``None`` for a single run; with several it is the ddof=1
    standard deviation, the convention noted in the report itself.
    """
    per_run = [run_summaries(run.records) for run in runs]
    keys = sorted(set().union(*per_run)) if per_run else []
    out = {}
    for key in keys:
        values = [s[key] for s in per_run if key in s]
        mean = float(np.mean(values))
        std = float(np.std(values, ddof=1)) if len(values) > 1 else None
        out[key] = (mean, std)
    return out


def _fmt(value: float) -> str:
    return repr(float(value))


def render_report(report: ResultsReport) -> str:
    """Serialize to the line format; deterministic for identical inputs."""
    lines = [FORMAT_HEADER]
    lines.append(f"mode = {report.mode}")
    lines.append(f"artifact.version = {report.artifact_version}")
    lines.append(f"note = {report.note}")
    for key, value in report.config.to_items():
        lines.append(f"config.{key} = {value}")
    lines.append(f"seeds = {','.join(str(run.seed) for run in report.runs)}")
    for r, run in enumerate(report.runs):
        prefix = f"run.{r}"
        lines.append(f"{prefix}.seed = {run.seed}")
        for record in run.records:
            rp = f"{prefix}.record.{record.increment}"
            lines.append(f"{rp}.increment = {record.increment}")
            lines.append(f"{rp}.classes = {','.join(str(c) for c in record.classes_seen)}")
            lines.append(f"{rp}.overall = {_fmt(record.overall)}")
            per_class = ",".join(
                f"{cls}:{_fmt(acc)}" for cls, acc in sorted(record.per_class.items())
            )
            lines.append(f"{rp}.per_class = {per_class}")
            lines.append(f"{rp}.seconds = {_fmt(record.seconds)}")
            for key in TRACE_KEYS:
                if key in record.trace:
                    joined = ",".join(_fmt(v) for v in record.trace[key])
                    lines.append(f"{rp}.trace.{key} = {joined}")
        for key, value in sorted(run_summaries(run.records).items()):
            lines.append(f"{prefix}.summary.{key} = {_fmt(value)}")
    for key, (mean, std) in sorted(aggregate_summaries(report.runs).items()):
        lines.append(f"summary.{key}.mean = {_fmt(mean)}")
        if std is not None:
            lines.append(f"summary.{key}.std = {_fmt(std)}")
    lines.append(f"total_seconds = {_fmt(report.total_seconds)}")
    return "\n".join(lines) + "\n"


def write_report(report: ResultsReport, path: str) -> None:
    """Write ``render_report``'s text to ``path``, replacing it atomically
    (``dataio.replacing``): a failed write leaves any previous report whole."""
    with replacing(path, "w", encoding="utf-8") as fh:
        fh.write(render_report(report))


def _classes(text: str) -> list[int]:
    """A record's classes, strictly ascending as the writer sorts them."""
    classes = [int(v) for v in text.split(",")]
    if any(a >= b for a, b in zip(classes, classes[1:])):
        raise ValueError("classes must be strictly ascending")
    return classes


def _mode(text: str) -> str:
    if text not in MODES:
        raise ValueError(f"expected one of {', '.join(MODES)}")
    return text


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _per_class(text: str, classes: list[int]) -> dict[int, float]:
    """``cls:acc`` pairs naming exactly the record's classes, in their order."""
    pairs = [pair.split(":") for pair in text.split(",")]
    named = [int(cls) for cls, _ in pairs]
    if named != classes:
        raise ValueError(f"names classes {named}, the classes line has {classes}")
    return {cls: float(acc) for cls, (_, acc) in zip(named, pairs)}


def parse_report(text: str) -> ResultsReport:
    """Parse and validate report text; summaries are recomputed and checked.

    After the header line, lines are read by ``config.read_items``' rules. A
    value that does not convert raises ``ReportFormatError`` naming its key.
    """
    head = io.StringIO(text, newline=None).readline().strip()
    if head != FORMAT_HEADER:
        raise ReportFormatError(
            f"unsupported report header {head or '<empty>'!r}, expected {FORMAT_HEADER!r}"
        )
    kv, _ = read_items(text, ReportFormatError, "line ")

    def take(key: str, convert=str):
        if key not in kv:
            raise ReportFormatError(f"report is missing key {key!r}")
        value = kv.pop(key)
        try:
            return convert(value)
        except ValueError as exc:
            raise ReportFormatError(f"report key {key!r} has bad value {value!r}: {exc}") from None

    mode = take("mode", _mode)
    version = take("artifact.version")
    note = take("note")
    config_items = {}
    for key in [k for k in kv if k.startswith("config.")]:
        config_items[key[len("config.") :]] = kv.pop(key)
    try:
        config = config_from_items(config_items)
    except ValueError as exc:
        raise ReportFormatError(f"bad config echo: {exc}") from exc

    seeds = take("seeds", parse_seeds)
    runs = []
    for r, seed in enumerate(seeds):
        prefix = f"run.{r}"
        if take(f"{prefix}.seed", int) != seed:
            raise ReportFormatError(f"run {r} seed does not match the seeds line")
        records = []
        inc = 0
        while f"{prefix}.record.{inc}.increment" in kv:
            rp = f"{prefix}.record.{inc}"
            key = f"{rp}.increment"
            if take(key, int) != inc:
                raise ReportFormatError(f"report key {key!r} is not {inc}")
            classes = take(f"{rp}.classes", _classes)
            overall = take(f"{rp}.overall", float)
            per_class = take(f"{rp}.per_class", lambda text: _per_class(text, classes))
            seconds = take(f"{rp}.seconds", float)
            trace = {}
            for key in TRACE_KEYS:
                if f"{rp}.trace.{key}" in kv:
                    trace[key] = take(f"{rp}.trace.{key}", _floats)
            records.append(
                MetricsRecord(
                    increment=inc,
                    classes_seen=classes,
                    overall=overall,
                    per_class=per_class,
                    seconds=seconds,
                    trace=trace,
                )
            )
            inc += 1
        if not records:
            raise ReportFormatError(f"run {r} has no records")
        for key, value in run_summaries(records).items():
            stored = take(f"{prefix}.summary.{key}", float)
            if not math.isclose(stored, value, rel_tol=0.0, abs_tol=1e-12):
                raise ReportFormatError(
                    f"run {r} summary {key} is {stored}, recomputed {value}"
                )
        runs.append(RunResult(seed=seed, records=records))

    for key, (mean, std) in aggregate_summaries(runs).items():
        stored_mean = take(f"summary.{key}.mean", float)
        if not math.isclose(stored_mean, mean, rel_tol=0.0, abs_tol=1e-12):
            raise ReportFormatError(
                f"summary {key} mean is {stored_mean}, recomputed {mean}"
            )
        if std is not None:
            stored_std = take(f"summary.{key}.std", float)
            if not math.isclose(stored_std, std, rel_tol=0.0, abs_tol=1e-12):
                raise ReportFormatError(
                    f"summary {key} std is {stored_std}, recomputed {std}"
                )
    total_seconds = take("total_seconds", float)
    if kv:
        raise ReportFormatError(f"unrecognized keys in report: {sorted(kv)}")
    return ResultsReport(
        mode=mode,
        config=config,
        runs=runs,
        total_seconds=total_seconds,
        artifact_version=version,
        note=note,
    )


def read_report(path: str) -> ResultsReport:
    return parse_report(read_text(path, ReportFormatError))


def render_csv(report: ResultsReport) -> str:
    """Flat per-class accuracy table: seed, increment, class, accuracy."""
    rows = ["seed,increment,class,accuracy"]
    for run in report.runs:
        for record in run.records:
            for cls, acc in sorted(record.per_class.items()):
                rows.append(f"{run.seed},{record.increment},{cls},{_fmt(acc)}")
    return "\n".join(rows) + "\n"


def write_csv(report: ResultsReport, path: str) -> None:
    """Write ``render_csv``'s table to ``path``, replaced as ``write_report`` does."""
    with replacing(path, "w", encoding="utf-8") as fh:
        fh.write(render_csv(report))

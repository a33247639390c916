"""Per-layer tracing from outside the program, plus the kernel micro-benchmark.

``LayerTracer`` wraps the public functions of each ``clare`` module for the
length of a ``with tracer.installed():`` block. A function is looked up
wherever the program looks it up: every ``clare`` module that imported it by
name gets the wrapper too (``harness`` imports ``run_experiment`` that way),
and methods are wrapped on their class. Leaving the block puts every
original back. Each wrapper counts calls and busy (inclusive) seconds; a few
also record work counts computed from argument shapes.

A target the program no longer has is skipped and reads as zero calls, so
the traced run keeps working while the program is refactored.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

KERNELS = (
    "relu_fwd", "relu_bwd", "sigmoid_fwd", "sigmoid_bwd", "softmax_rows",
    "softmax_xent", "bce_logits", "bce_probs", "kl_terms", "reparam_fwd",
    "reparam_dlv", "adam_step", "sgd_step",
)


@dataclass(frozen=True)
class Target:
    """One wrapped binding: ``attr`` may be ``Class.method``.

    ``home`` names the workload meant to exercise it, or ``None`` when no
    workload's path reaches it (its time comes from the micro-benchmark).
    """

    metric: str
    module: str
    attr: str
    home: str | None


def _targets() -> tuple[Target, ...]:
    toy, digits, replay_eval = "toy-quickstart", "digits-g1", "digits-replay-eval"
    rows = [
        ("config.resolved", "clare.config", "ExperimentConfig.resolved", toy),
        ("dataio.load_mnist", "clare.dataio", "load_mnist", digits),
        ("dataio.parse_idx", "clare.dataio", "parse_idx", digits),
        ("dataio.subset_by_classes", "clare.dataio", "subset_by_classes", digits),
        ("harness.load_datasets", "clare.harness", "load_datasets", toy),
        ("harness.run_mode", "clare.harness", "run_mode", toy),
        ("protocol.run_experiment", "clare.protocol", "run_experiment", toy),
        ("protocol.run_increment", "clare.protocol", "run_increment", toy),
        ("protocol.train_model", "clare.protocol", "train_model", toy),
        ("model.ClareModel", "clare.model", "ClareModel.__init__", toy),
        ("model.total_loss", "clare.model", "total_loss", toy),
        ("model.classify", "clare.model", "ClareModel.classify", replay_eval),
        ("numkit.backward", "clare.numkit", "backward", toy),
        ("numkit.optimizer_step", "clare.numkit", "optimizer_step", toy),
        ("numkit.zero_grads", "clare.numkit", "ParamTape.zero_grads", toy),
        ("numkit.check_finite", "clare.numkit", "check_finite", toy),
        ("numkit.linear_forward", "clare.numkit", "linear_forward", toy),
        ("replay.generate_replay", "clare.replay", "generate_replay", replay_eval),
        ("replay.take_snapshot", "clare.replay", "take_snapshot", replay_eval),
        ("replay.decode", "clare.replay", "DecoderSnapshot.decode", replay_eval),
        ("metrics.evaluate", "clare.metrics", "evaluate", replay_eval),
        ("report.write_report", "clare.report", "write_report", digits),
        ("report.read_report", "clare.report", "read_report", digits),
    ]
    # Training takes the decoder's logits straight into bce_logits, so the
    # sigmoid backward never runs; sgd_step runs only with --optimizer sgd,
    # and bce_probs only in reconstruction_loss and the kernel warm-up, which
    # runs once per process.
    homes = {"sigmoid_fwd": replay_eval, "sigmoid_bwd": None, "sgd_step": None,
             "bce_probs": None}
    rows += [(f"kernels.{k}", "clare.kernels", k, homes.get(k, toy)) for k in KERNELS]
    return tuple(Target(*row) for row in rows)


TARGETS = _targets()


def _per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Metric name -> (unit, better), in the order the traced run reports them."""
    out = {}
    for target in TARGETS:
        out[f"{target.metric}.s"] = ("s", "lower")
        out[f"{target.metric}.calls"] = ("count", "lower")
    out.update({
        "protocol.steps": ("count", "lower"),
        "protocol.step_ms_p50": ("ms", "lower"),
        "protocol.step_ms_p90": ("ms", "lower"),
        "numkit.linear_forward.gflop": ("GFLOP", "lower"),
        "numkit.graph_nodes": ("count", "lower"),
        "kernels.adam_step.gbps": ("GB/s", "higher"),
        "replay.samples": ("count", "higher"),
        "metrics.eval_samples": ("count", "higher"),
        "trace.wall_s": ("s", "lower"),
        "trace.setup_s": ("s", "lower"),
        "trace.remainder_s": ("s", "lower"),
        "trace.remainder_frac": ("ratio", "lower"),
        "trace.overhead_frac": ("ratio", "lower"),
    })
    for name in KERNELS:
        out[f"kernels.{name}.bench_us"] = ("us", "lower")
    out["bench.train_step_ms"] = ("ms", "lower")
    return out


PER_LAYER_METRICS = _per_layer_metrics()

# Adam reads p, g, m, v and writes p, m, v: seven float64 arrays per element.
ADAM_BYTES_PER_ELEMENT = 7 * 8

# Busy time that, with set-up, accounts for a traced repetition.
ACCOUNTED = (
    "protocol.train_model", "replay.take_snapshot", "replay.generate_replay",
    "metrics.evaluate",
)


def _value(x):
    """The array behind an autodiff node, or ``x`` itself."""
    return getattr(x, "value", x)


def _graph_size(root) -> int:
    """Nodes reachable from ``root`` through ``parents``."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in getattr(stack.pop(), "parents", ()):
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class LayerTracer:
    """Counts calls, busy seconds and work per wrapped program function."""

    def __init__(self):
        self.stats: dict[str, list[float]] = {t.metric: [0, 0.0] for t in TARGETS}
        self.counters = dict.fromkeys(
            ("gflop", "adam_bytes", "graph_nodes", "backward_roots", "replay_samples",
             "eval_samples"), 0.0,
        )
        self.step_ms: list[float] = []
        self.missing: list[str] = []
        self._last_step: float | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- hooks: work counted from arguments and results --------------------

    def _count_flops(self, args, kwargs) -> None:
        w, x = _value(_arg(args, kwargs, 0, "w")), _value(_arg(args, kwargs, 2, "x"))
        self.counters["gflop"] += 2.0 * x.shape[0] * w.shape[0] * w.shape[1] / 1e9

    def _count_adam_bytes(self, args, kwargs) -> None:
        self.counters["adam_bytes"] += ADAM_BYTES_PER_ELEMENT * _arg(args, kwargs, 0, "p").size

    def _count_graph(self, args, kwargs) -> None:
        self.counters["graph_nodes"] += _graph_size(_arg(args, kwargs, 0, "loss"))
        self.counters["backward_roots"] += 1

    def _start_training(self, args, kwargs) -> None:
        self._last_step = None

    def _count_eval(self, args, kwargs) -> None:
        self.counters["eval_samples"] += len(_arg(args, kwargs, 2, "labels"))

    def _step_done(self, result) -> None:
        now = time.perf_counter()
        if self._last_step is not None:
            self.step_ms.append(1e3 * (now - self._last_step))
        self._last_step = now

    def _count_replay(self, result) -> None:
        self.counters["replay_samples"] += len(result)

    def _wrap(self, metric: str, fn):
        stats = self.stats[metric]
        before = {
            "numkit.linear_forward": self._count_flops,
            "kernels.adam_step": self._count_adam_bytes,
            "numkit.backward": self._count_graph,
            "protocol.train_model": self._start_training,
            "metrics.evaluate": self._count_eval,
        }.get(metric)
        after = {
            "numkit.optimizer_step": self._step_done,
            "replay.generate_replay": self._count_replay,
        }.get(metric)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                stats[0] += 1
                stats[1] += clock() - start
            if after is not None:
                after(result)
            return result

        wrapper._perfbench_original = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        program = [m for name, m in list(sys.modules.items())
                   if name == "clare" or name.startswith("clare.")]
        for target in TARGETS:
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    self.missing.append(target.metric)
                    continue
                self._patch(owner, attr, original, self._wrap(target.metric, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(target.metric)
                continue
            wrapper = self._wrap(target.metric, original)
            for namespace in program:
                for name, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, name, original, wrapper)

    def _patch(self, owner, name: str, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patched.append((owner, name, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def leftovers(self) -> list[str]:
        """Wrappers still reachable from any ``clare`` module or class."""
        found = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "clare" and not mod_name.startswith("clare."):
                continue
            for name, value in vars(module).items():
                if hasattr(value, "_perfbench_original"):
                    found.append(f"{mod_name}.{name}")
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        if hasattr(member, "_perfbench_original"):
                            found.append(f"{mod_name}.{name}.{attr}")
        return found

    def snapshot(self) -> dict[str, tuple[int, float]]:
        return {metric: (int(c), s) for metric, (c, s) in self.stats.items()}

    # -- report ------------------------------------------------------------------

    def metrics(
        self,
        setup_s: float,
        rep_s: float,
        untraced_rep_s: float,
        rep_busy: dict[str, float],
    ) -> dict[str, float]:
        """Per-layer values for one traced set-up plus one repetition.

        ``rep_busy`` is busy seconds per metric during the repetition alone.
        """
        out: dict[str, float] = {}
        for metric, (calls, seconds) in self.stats.items():
            out[f"{metric}.s"] = seconds
            out[f"{metric}.calls"] = float(calls)
        c = self.counters
        adam_s = self.stats["kernels.adam_step"][1]
        steps = self.step_ms
        remainder = rep_s - sum(rep_busy[m] for m in ACCOUNTED)
        out.update({
            "protocol.steps": float(self.stats["numkit.optimizer_step"][0]),
            "protocol.step_ms_p50": float(np.percentile(steps, 50)) if steps else 0.0,
            "protocol.step_ms_p90": float(np.percentile(steps, 90)) if steps else 0.0,
            "numkit.linear_forward.gflop": c["gflop"],
            "numkit.graph_nodes": (
                c["graph_nodes"] / c["backward_roots"] if c["backward_roots"] else 0.0
            ),
            "kernels.adam_step.gbps": c["adam_bytes"] / adam_s / 1e9 if adam_s else 0.0,
            "replay.samples": c["replay_samples"],
            "metrics.eval_samples": c["eval_samples"],
            "trace.wall_s": setup_s + rep_s,
            "trace.setup_s": setup_s,
            "trace.remainder_s": remainder,
            "trace.remainder_frac": remainder / (setup_s + rep_s),
            "trace.overhead_frac": rep_s / untraced_rep_s - 1.0,
        })
        return out


# ---------------------------------------------------------------------------
# kernel micro-benchmark (folded in from benchmarks/bench_kernels.py)
# ---------------------------------------------------------------------------


def kernel_args(name: str, batch: int, rng: np.random.Generator):
    """Representative inputs: image-width activations, latent-width stats."""
    img, hidden, latent, classes = 784, 512, 64, 10
    n = img * hidden
    table = {
        "relu_fwd": lambda: (rng.standard_normal((batch, hidden)),),
        "relu_bwd": lambda: (rng.standard_normal((batch, hidden)),
                             rng.standard_normal((batch, hidden))),
        "sigmoid_fwd": lambda: (rng.standard_normal((batch, img)),),
        "sigmoid_bwd": lambda: (rng.standard_normal((batch, img)),
                                1.0 / (1.0 + np.exp(-rng.standard_normal((batch, img))))),
        "softmax_rows": lambda: (rng.standard_normal((batch, classes)),),
        "softmax_xent": lambda: (rng.standard_normal((batch, classes)),
                                 rng.integers(0, classes, size=batch)),
        "bce_logits": lambda: (rng.standard_normal((batch, img)),
                               rng.uniform(0, 1, size=(batch, img))),
        "bce_probs": lambda: (rng.uniform(0, 1, size=(batch, img)),
                              rng.uniform(0.01, 0.99, size=(batch, img))),
        "kl_terms": lambda: (rng.standard_normal((batch, latent)),
                             rng.uniform(-2, 2, size=(batch, latent))),
        "reparam_fwd": lambda: tuple(rng.standard_normal((batch, latent)) for _ in range(3)),
        "reparam_dlv": lambda: tuple(rng.standard_normal((batch, latent)) for _ in range(3)),
        "sgd_step": lambda: (rng.standard_normal(n), rng.standard_normal(n), 1e-3),
        "adam_step": lambda: (rng.standard_normal(n), rng.standard_normal(n),
                              np.zeros(n), np.zeros(n), 1, 1e-3, 0.9, 0.999, 1e-8),
    }
    return table[name]()


def best_of_three(fn, target_ms: float) -> float:
    """Best-of-three per-call seconds, loop sized so one pass ~ ``target_ms``."""
    fn()
    start = time.perf_counter()
    fn()
    once = max(time.perf_counter() - start, 1e-8)
    iters = max(3, int(target_ms / 1000.0 / once))
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(iters):
            fn()
        best = min(best, (time.perf_counter() - start) / iters)
    return best


def bench_kernels(batch: int = 128, target_ms: float = 20.0) -> dict[str, float]:
    """Per-call time of each active kernel and of one digit-scale training step."""
    from clare import kernels, protocol
    from clare.config import ExperimentConfig
    from clare.model import ClareModel

    rng = np.random.default_rng(0)
    out = {}
    for name in KERNELS:
        fn = getattr(kernels, name, None)
        if fn is None:
            out[f"kernels.{name}.bench_us"] = 0.0
            continue
        args = kernel_args(name, batch, rng)
        out[f"kernels.{name}.bench_us"] = 1e6 * best_of_three(lambda: fn(*args), target_ms)

    config = ExperimentConfig(dataset="mnist", epochs=1, batch_size=batch).resolved()
    model = ClareModel(class_no=10, rng=np.random.default_rng(1))
    x = rng.uniform(size=(batch, model.input_dim))
    labels = rng.integers(0, 10, size=batch)
    step_rng = np.random.default_rng(2)
    out["bench.train_step_ms"] = 1e3 * best_of_three(
        lambda: protocol.train_model(model, x, labels, config, step_rng), target_ms
    )
    return out

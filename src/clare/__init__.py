"""Class-incremental learning with generative replay.

A single network learns to classify and to generate at once: a shared
encoder feeds a softmax classifier and, through a reparameterized latent, a
class-conditional decoder. When new classes arrive, the frozen decoder
replays the old ones, so the model can retrain on a balanced mix without
storing past data.
"""

# Set before the submodules load: ``report`` records it in every report.
__version__ = "0.1.0"

from .config import ExperimentConfig
from .dataio import LabeledDataset, load_mnist, make_toy_dataset, parse_idx, write_idx
from .metrics import average_over_tasks, evaluate
from .model import (
    ClareModel,
    expand_classes,
    load_model,
    one_hot,
    save_model,
)
from .protocol import (
    IncrementState,
    MetricsRecord,
    Schedule,
    build_schedule,
    run_experiment,
    run_finetune_baseline,
    run_increment,
    run_joint_baseline,
)
from .replay import ReplayBuffer, balance_counts, generate_replay
from .report import ResultsReport, read_report, write_report

__all__ = [
    "ClareModel",
    "ExperimentConfig",
    "IncrementState",
    "LabeledDataset",
    "MetricsRecord",
    "ReplayBuffer",
    "ResultsReport",
    "Schedule",
    "average_over_tasks",
    "balance_counts",
    "build_schedule",
    "evaluate",
    "expand_classes",
    "generate_replay",
    "load_mnist",
    "load_model",
    "make_toy_dataset",
    "one_hot",
    "parse_idx",
    "read_report",
    "run_experiment",
    "run_finetune_baseline",
    "run_increment",
    "run_joint_baseline",
    "save_model",
    "write_idx",
    "write_report",
]

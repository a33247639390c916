"""Experiment configuration shared by the protocol and the CLI.

A config is a flat dataclass that serializes to the same ``key = value``
lines the CLI accepts in a config file and the report echoes back, so a
parsed config round-trips exactly.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace

from .model import MAX_LATENT_DIM

ENV_DATA_DIR = "CLARE_DATA_DIR"

# Architecture presets per dataset; explicit hidden sizes override them.
_MNIST_HIDDEN = (512, 256)
_TOY_HIDDEN = (48, 32)


@dataclass
class ExperimentConfig:
    """Everything a run needs apart from the data itself.

    ``epochs`` and the hidden widths default to ``None`` meaning "pick per
    dataset"; ``resolved()`` fills them in. ``seed`` is the master seed;
    per-phase seeds are derived from it, never used directly.
    """

    dataset: str = "mnist"
    g: int = 1
    epochs: int | None = None
    batch_size: int = 128
    lr: float = 1e-3
    d_z: int = 64
    beta: float = 1.0
    replay: bool = True
    start: str = "scratch"
    seed: int = 0
    data_dir: str = ""
    out_path: str = ""
    toy_classes: int = 3
    toy_per_class: int = 200
    toy_dim: int = 16
    toy_spread: float = 0.05
    enc_hidden: tuple[int, int] | None = None
    dec_hidden: tuple[int, int] | None = None

    def validate(self) -> None:
        if self.dataset not in ("mnist", "toy"):
            raise ValueError(f"dataset must be 'mnist' or 'toy', got {self.dataset!r}")
        if self.g < 1:
            raise ValueError(f"g must be >= 1, got {self.g}")
        if self.epochs is not None and self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        if not 1 <= self.d_z <= MAX_LATENT_DIM:
            raise ValueError(f"d_z (latent dim) must be in [1, {MAX_LATENT_DIM}], got {self.d_z}")
        for name in ("enc_hidden", "dec_hidden"):
            widths = getattr(self, name)
            if widths is not None and (len(widths) != 2 or min(widths) < 1):
                raise ValueError(f"{name} must be two widths >= 1, got {widths}")
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if self.start not in ("scratch", "warm"):
            raise ValueError(f"start must be 'scratch' or 'warm', got {self.start!r}")
        if self.toy_classes < 1 or self.toy_per_class < 1 or self.toy_dim < 1:
            raise ValueError("toy dataset parameters must be positive")
        if not (math.isfinite(self.toy_spread) and self.toy_spread >= 0):
            raise ValueError(f"toy_spread must be finite and >= 0, got {self.toy_spread}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def resolved(self) -> "ExperimentConfig":
        """Checked copy with dataset defaults and ``$CLARE_DATA_DIR`` filled in.

        The only reader of that variable; resolving twice changes nothing.
        """
        out = replace(self)
        if out.epochs is None:
            out.epochs = 15 if out.dataset == "mnist" else 30
        if out.enc_hidden is None:
            out.enc_hidden = _MNIST_HIDDEN if out.dataset == "mnist" else _TOY_HIDDEN
        if out.dec_hidden is None:
            out.dec_hidden = tuple(reversed(out.enc_hidden))
        if not out.data_dir:
            out.data_dir = os.environ.get(ENV_DATA_DIR, "")
        out.validate()
        return out

    # -- key/value round trip ------------------------------------------------

    def to_items(self) -> list[tuple[str, str]]:
        out: list[tuple[str, str]] = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                text = ""
            elif isinstance(value, bool):
                text = "on" if value else "off"
            elif isinstance(value, tuple):
                text = ",".join(str(v) for v in value)
            else:
                text = repr(value) if isinstance(value, float) else str(value)
            out.append((f.name, text))
        return out


CONFIG_KEYS = frozenset(f.name for f in fields(ExperimentConfig))


def config_from_items(items: dict[str, str]) -> ExperimentConfig:
    """Build and validate a config from ``key = value`` strings.

    The inverse of ``to_items``, and the one reader of settings: flags,
    config-file lines and a report's config echo all come through here.
    """
    config = ExperimentConfig(**{key: parse_field(key, raw) for key, raw in items.items()})
    config.validate()
    return config


def parse_seeds(text: str) -> list[int]:
    """Comma-separated seeds ``>= 0``, none repeated, as ``--seeds`` takes them."""
    try:
        seeds = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"needs comma-separated integers, got {text!r}") from None
    if min(seeds) < 0:
        raise ValueError(f"must be >= 0, got {min(seeds)}")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"repeats a seed: {text!r}")
    return seeds


def parse_field(name: str, raw: str):
    """Parse one config value; a ``ValueError`` names the key and the value."""
    if name not in CONFIG_KEYS:
        raise ValueError(f"unknown config key {name!r}")
    raw = raw.strip()
    if name in ("dataset", "start", "data_dir", "out_path"):
        return raw
    if name == "replay":
        if raw not in ("on", "off"):
            raise ValueError(f"replay must be 'on' or 'off', got {raw!r}")
        return raw == "on"
    hidden, floats = ("enc_hidden", "dec_hidden"), ("lr", "beta", "toy_spread")
    try:
        if name in hidden:
            return tuple(int(p) for p in raw.split(",")) if raw else None
        if name in floats:
            return float(raw)
        if name == "epochs" and not raw:
            return None
        return int(raw)
    except ValueError:
        kind = (
            "comma-separated integers" if name in hidden
            else "a number" if name in floats
            else "an integer"
        )
        raise ValueError(f"config key {name!r} needs {kind}, got {raw!r}") from None

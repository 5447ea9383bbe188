"""Run configuration: dataclass, flat key=value files, flag overrides."""
from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .data import DataError
from .detection import Baselines, group_baseline, single_split_baseline
from .histogram import HitMatrix
from .metrics import SIGMA_FLOOR_DEFAULT


@dataclass(frozen=True)
class RunConfig:
    """All knobs of a run; reports echo the resolved values they read.

    Defaults target the design setting (splits of 5000 samples, 50 training
    splits); ``repetitions`` defaults to a desk-scale 200 (the paper's full
    scale is 2500). The split size, ``n_op`` and ``mode`` shape a baseline;
    detection and streaming take them from the baseline, not from here.
    """

    n_s: int = 5000
    n_tr: int = 50
    n_op: int | None = None
    seed: int = 0
    metrics: tuple[str, ...] | None = None
    label_column: str = "label"
    stride: int = 1
    repetitions: int = 200
    mode: str = "single"
    max_depth: int = 4
    min_leaf: int = 50

    def __post_init__(self) -> None:
        if self.mode not in ("single", "group"):
            raise DataError(f"mode must be 'single' or 'group', got {self.mode!r}")
        if self.repetitions < 1:
            raise DataError(f"repetitions must be at least 1, got {self.repetitions}")

    @property
    def resolved_n_op(self) -> int:
        if self.n_op is not None:
            return self.n_op
        return 1 if self.mode == "single" else 10

    def echo(self) -> dict:
        """Flat dict of resolved values for embedding into reports."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        out["n_op"] = self.resolved_n_op
        out["sigma_floor"] = SIGMA_FLOOR_DEFAULT  # the one floor of every group bank
        return out

    def build_baseline(
        self, training: HitMatrix, config: dict | None = None, fingerprint: str = ""
    ) -> Baselines:
        """The baseline ``mode`` names: groups of ``resolved_n_op`` splits, or single splits."""
        if self.mode == "single":
            return single_split_baseline(training, config=config, fingerprint=fingerprint)
        return group_baseline(training, self.resolved_n_op, config=config, fingerprint=fingerprint)


def metric_list(raw: str) -> tuple[str, ...]:
    """Metric names of a comma list, e.g. ``"wmi, l1"``."""
    return tuple(part.strip() for part in raw.split(",") if part.strip())


# Each RunConfig field: its command-line flag and argparse keywords. A config
# file value goes through the same ``type`` (``str`` where none is given).
CONFIG_FLAGS = {
    "seed": ("--seed", {"type": int}),
    "n_s": ("--ns", {"type": int, "help": "samples per split"}),
    "n_tr": ("--ntr", {"type": int, "help": "number of training splits"}),
    "n_op": ("--nop", {"type": int, "help": "number of operational splits"}),
    "mode": ("--mode", {"choices": ("single", "group")}),
    "stride": ("--stride", {"type": int, "help": "detection tick stride"}),
    "label_column": ("--label-column", {}),
    "metrics": ("--metrics", {"type": metric_list, "help": "comma list, e.g. wmi,l1,l2"}),
    "repetitions": ("--repetitions", {"type": int}),
    "max_depth": ("--max-depth", {"type": int}),
    "min_leaf": ("--min-leaf", {"type": int}),
}


def load_config_file(path: str | Path) -> dict:
    """Parse ``key = value`` lines ('#' comments allowed) into config values."""
    out: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_FLAGS:
            raise DataError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            out[key] = CONFIG_FLAGS[key][1].get("type", str)(value.strip())
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    return out


def build_config(file_values: dict | None = None, **overrides) -> RunConfig:
    """Config file values first, explicit (non-None) overrides on top."""
    merged = dict(file_values or {})
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    return RunConfig(**merged)

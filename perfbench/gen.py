"""Seeded input generator for the rulewatch benchmark.

Every file a workload hands to the CLI is written here from the workload
seed, so the same seed and sizes give byte-identical files. Data comes from
the package's own ``GaussianMixtureSource`` (6 features, informative
x1..x4, class separation 1.5); the out-of-distribution variant shifts
x2..x4 by 2.0, the scenario of ``scripts/make_demo_data.py``.
"""
from __future__ import annotations

import os
import platform
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rulewatch.data import DataTable
from rulewatch.synth import GaussianMixtureSource

SOURCE = GaussianMixtureSource(n_features=6, informative=(0, 1, 2, 3), class_sep=1.5)
SHIFT = {1: 2.0, 2: 2.0, 3: 2.0}
SHIFT_SPEC = "2:2.0,3:2.0,4:2.0"  # the same shift in the CLI's 1-based syntax
CHUNK_ROWS = 4096


@dataclass(frozen=True)
class Sizes:
    inducer_rows: int
    max_depth: int
    min_leaf: int
    n_s: int
    n_tr: int
    op_rows: int
    stream_in_rows: int  # in-distribution rows between the prefill and the shift
    stream_shifted_rows: int
    eval_ns: int
    eval_ntr: int
    eval_nop: int

    @property
    def train_rows(self) -> int:
        return self.n_s * self.n_tr


DESIGN = Sizes(
    inducer_rows=20_000, max_depth=6, min_leaf=50, n_s=5000, n_tr=50, op_rows=5000,
    stream_in_rows=200, stream_shifted_rows=800, eval_ns=1000, eval_ntr=20, eval_nop=10,
)
TINY = Sizes(
    inducer_rows=2000, max_depth=4, min_leaf=50, n_s=500, n_tr=10, op_rows=500,
    stream_in_rows=50, stream_shifted_rows=200, eval_ns=300, eval_ntr=14, eval_nop=4,
)
SIZES = {"design": DESIGN, "tiny": TINY}


@dataclass(frozen=True)
class Inputs:
    files: dict[str, Path]
    stream_X: np.ndarray | None
    eval_seeds: tuple[int, ...]
    manifest: dict


def _write_csv(path: Path, table: DataTable, labels: bool) -> None:
    # Same cell format as DataTable.to_csv (repr of each float). Rows go out
    # a few thousand at a time, so the generator's own memory stays far
    # below the CLI's when it later loads the quarter-million-row file.
    header = ",".join(table.columns + (("label",) if labels else ()))
    with path.open("w") as fh:
        fh.write(header + "\n")
        for start in range(0, table.n_rows, CHUNK_ROWS):
            rows = table.X[start : start + CHUNK_ROWS].tolist()
            if labels:
                lab = table.labels[start : start + CHUNK_ROWS]
                body = [",".join(map(repr, r)) + "," + y for r, y in zip(rows, lab)]
            else:
                body = [",".join(map(repr, r)) for r in rows]
            fh.write("\n".join(body) + "\n")


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def generate(workload: str, seed: int, sizes: Sizes, out: Path, root: Path) -> Inputs:
    """Write the workload's input files into ``out`` and describe them."""
    out.mkdir(parents=True, exist_ok=True)
    # One child stream per input, so a file's content does not depend on
    # which other files a workload needs.
    inducer_ss, train_ss, in_ss, shifted_ss, stream_ss, eval_ss = (
        np.random.SeedSequence(seed).spawn(6)
    )
    shifted_source = SOURCE.shifted(SHIFT)
    files: dict[str, Path] = {}
    rows: dict[str, int] = {}
    stream_X = None

    def write(name: str, table: DataTable, labels: bool) -> None:
        files[name] = out / f"{name}.csv"
        rows[name] = table.n_rows
        _write_csv(files[name], table, labels)

    if workload in ("stream-single", "batch-single"):
        write("inducer", SOURCE.sample(sizes.inducer_rows, np.random.default_rng(inducer_ss)), True)
        write("train", SOURCE.sample(sizes.train_rows, np.random.default_rng(train_ss)), True)
    if workload == "batch-single":
        write("op_in", SOURCE.sample(sizes.op_rows, np.random.default_rng(in_ss)), False)
        write("op_shifted", shifted_source.sample(sizes.op_rows, np.random.default_rng(shifted_ss)), False)
    if workload == "stream-single":
        rng = np.random.default_rng(stream_ss)
        head = SOURCE.sample(sizes.n_s + sizes.stream_in_rows, rng)
        tail = shifted_source.sample(sizes.stream_shifted_rows, rng)
        stream = DataTable(head.columns, np.vstack([head.X, tail.X]))
        write("stream", stream, False)
        stream_X = stream.X
    eval_seeds = tuple(int(s) for s in np.random.default_rng(eval_ss).integers(2**31, size=4096))

    if workload == "eval-group":
        shape = {"n_s": sizes.eval_ns, "n_tr": sizes.eval_ntr, "n_op": sizes.eval_nop}
    else:
        shape = {"n_s": sizes.n_s, "n_tr": sizes.n_tr, "n_op": 1,
                 "max_depth": sizes.max_depth, "min_leaf": sizes.min_leaf}
    manifest = {
        "workload": workload,
        "seed": seed,
        "rows": rows,
        **shape,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(root),
    }
    return Inputs(files, stream_X, eval_seeds, manifest)

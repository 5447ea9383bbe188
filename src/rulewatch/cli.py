"""Command-line surface: induce, baseline, detect, stream, eval, featurize.

Exit codes are a stable contract: 0 in-distribution / success, 1 usage or
data error, 2 baseline fingerprint mismatch, 3 out-of-distribution verdict.
Each subcommand accepts only the flags it reads; ``detect`` and ``stream``
take the mode, split size and group size from the baseline bundle.
"""
from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import math
import sys
import warnings
from contextlib import nullcontext
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import CONFIG_FLAGS, RunConfig, build_config, load_config_file
from .data import DataError, DataTable, _check_finite, read_csv_records
from .detection import (
    BaselineBundle,
    DetectionReport,
    FingerprintMismatchError,
    check_request,
    compute_fingerprint,
    detect,
)
from .eval import run_eval
from .histogram import hit_matrix, make_splits, operational_splits
from .inducer import induce_ruleset
from .rules import RuleError, Ruleset, format_ruleset, parse_ruleset
from .streaming import MomentAccumulator, StreamMonitor, StreamStateError
from .synth import make_source

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FINGERPRINT = 2
EXIT_OOD = 3


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with ``EXIT_ERROR``."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _add_config_flags(p: argparse.ArgumentParser, *names: str) -> None:
    """``--config`` plus the flags of the named RunConfig fields.

    A config file may set any field; a subcommand registers flags only for
    the fields it reads.
    """
    p.add_argument("--config", help="flat key = value config file; flags override it")
    for name in names:
        flag, kwargs = CONFIG_FLAGS[name]
        p.add_argument(flag, dest=name, default=None, **kwargs)


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    file_values = load_config_file(args.config) if args.config else None
    return build_config(file_values, **{name: getattr(args, name, None) for name in CONFIG_FLAGS})


def _output(path: str | None):
    """stdout for ``None`` or ``-``, else the file at ``path``; for a ``with`` block."""
    return nullcontext(sys.stdout) if path in (None, "-") else open(path, "w", newline="")


def _load_verified(args: argparse.Namespace) -> tuple[Ruleset, BaselineBundle]:
    """The ``--rules`` ruleset and the ``--baseline`` bundle, checked against each other."""
    ruleset = parse_ruleset(Path(args.rules).read_text())
    bundle = BaselineBundle.from_document(Path(args.baseline).read_text())
    bundle.verify(ruleset)
    return ruleset, bundle


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_induce(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    table = DataTable.from_csv(args.data, label_column=cfg.label_column)
    ruleset = induce_ruleset(table, max_depth=cfg.max_depth, min_leaf=cfg.min_leaf)
    with _output(args.output) as out:
        out.write(format_ruleset(ruleset))
    print(f"induced {ruleset.n_rules} rules from {table.n_rows} samples", file=sys.stderr)
    return EXIT_OK


def cmd_baseline(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    ruleset = parse_ruleset(Path(args.rules).read_text())
    table = DataTable.from_csv(args.data, columns=ruleset.feature_names)
    training = hit_matrix(ruleset, table, make_splits(table, cfg.n_s, cfg.n_tr, seed=cfg.seed))
    base = cfg.build_baseline(training)
    bundle = BaselineBundle(base, training, compute_fingerprint(ruleset, base.config))
    with _output(args.output) as out:
        out.write(bundle.to_document())
    if args.output not in (None, "-"):  # on stdout, the table would follow the document
        print(f"{'metric':<8}{'min':>14}{'max':>14}")
        for name in base.metrics:
            lo, hi = base.interval(name)
            print(f"{name:<8}{lo:>14.6g}{hi:>14.6g}")
    print(f"fingerprint {bundle.fingerprint[:16]}", file=sys.stderr)
    return EXIT_OK


def cmd_detect(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    ruleset, bundle = _load_verified(args)
    base, training = bundle.baselines, bundle.training
    # Refuse a bad request before reading a row, as stream does.
    check_request(training, base, ruleset.n_rules, base.n_op, cfg.metrics)
    table = DataTable.from_csv(args.op_data, columns=ruleset.feature_names)
    rows = operational_splits(table, training.split_size, base.n_op)
    unit = hit_matrix(ruleset, table, rows)  # refuses a NaN before any warning
    if table.n_rows > rows.size:
        warnings.warn(f"scored the first {rows.size} of {table.n_rows} rows; "
                      f"{table.n_rows - rows.size} trailing rows ignored")
    report = detect(training, unit, base, cfg.metrics)
    if args.format == "csv":
        csv.writer(sys.stdout).writerow(report.CSV_HEADER)
        sys.stdout.writelines(report.csv_lines)
    else:
        sys.stdout.write(report.to_document())
    return EXIT_OOD if report.is_ood else EXIT_OK


def cmd_stream(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    ruleset, bundle = _load_verified(args)
    monitor = StreamMonitor(
        ruleset,
        bundle.baselines,
        bundle.training,
        capacity=args.ns,
        detect_stride=cfg.stride,
        metrics=cfg.metrics,
    )
    source = Path(args.source)  # named in errors as detect names its file
    with nullcontext(sys.stdin) if args.source == "-" else source.open(newline="") as fh:
        # The header is checked here, before the output is opened.
        records = read_csv_records(fh, source, ruleset.feature_names)
        with _output(args.output) as out:
            csv.writer(out).writerow(("sample_index", *DetectionReport.CSV_HEADER))
            try:
                for index, record in enumerate(records):
                    tick = monitor.push(record)
                    if tick is not None:
                        # csv.writer never quotes an int: the line it writes for (index, *row)
                        for line in tick.csv_lines:
                            out.write(f"{index},{line}")
            except RuleError as exc:  # a NaN a rule reads: name its data row, as detect does
                raise type(exc)(f"row {index}: {exc}") from None
    return EXIT_OK


class _TableSource:
    """Serve rows of a fixed table as if it were a generator (with reuse)."""

    def __init__(self, table: DataTable):
        self.table = table

    def sample(self, n: int, rng: np.random.Generator) -> DataTable:
        replace = n > self.table.n_rows
        idx = rng.choice(self.table.n_rows, size=n, replace=replace)
        return self.table.take(idx)


def _parse_shift(spec: str, n_features: int) -> dict[int, float]:
    # "2:1.5,3:1.5" shifts features x2 and x3 by 1.5 (positions 1..n_features).
    out: dict[int, float] = {}
    for part in spec.split(","):
        pos, _, delta = part.partition(":")
        try:
            index, value = int(pos.strip()) - 1, float(delta)
        except ValueError:
            raise DataError(f"bad --shift entry {part!r}; expected POS:DELTA") from None
        if not 0 <= index < n_features:
            raise DataError(f"bad --shift entry {part!r}; positions run from 1 to {n_features}")
        if index in out:
            raise DataError(f"position {index + 1} is named twice in --shift")
        out[index] = value
    return out


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    if args.in_csv or args.op_csv:
        if not (args.in_csv and args.op_csv) or args.synthetic or args.shift:
            raise DataError("eval takes one source: --in-csv with --op-csv, "
                            "or --synthetic with --shift")
        in_source = _TableSource(DataTable.from_csv(args.in_csv, label_column=cfg.label_column))
        op_table = DataTable.from_csv(args.op_csv, cfg.label_column, label_required=False)
        ood_source = _TableSource(op_table)
        scenario = f"csv:{args.in_csv}|{args.op_csv}"
    else:
        kind = args.synthetic or "gaussian"
        if not args.shift:
            raise DataError("synthetic eval needs --shift POS:DELTA[,POS:DELTA...]")
        base_source = make_source(kind)
        in_source = base_source
        ood_source = base_source.shifted(_parse_shift(args.shift, base_source.n_features))
        scenario = f"synthetic:{kind}:shift={args.shift}"
    summary = run_eval(in_source, ood_source, cfg, scenario=scenario)
    with _output(args.output) as out:
        out.write(summary.to_csv() if args.format == "csv" else summary.to_document())
    if args.output not in (None, "-"):
        print(f"FPR {summary.fpr:.4f}  FNR {summary.fnr:.4f}  ({summary.repetitions} repetitions)")
    return EXIT_OK


def _moment_window(raw: str) -> int:
    """A ``featurize --window`` length: every row it writes needs 4 samples."""
    try:
        window = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
    if window < 4:
        raise argparse.ArgumentTypeError(f"must be at least 4 (kurtosis needs 4), got {window}")
    return window


def cmd_featurize(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    names = args.columns.split(",") if args.columns else None
    if names is not None and len(set(names)) < len(names):
        twice = next(name for i, name in enumerate(names) if name in names[:i])
        raise DataError(f"column {twice!r} is named twice in --columns")
    table = DataTable.from_csv(args.data, cfg.label_column, label_required=False, columns=names)
    names = names or list(table.columns)
    window = args.window
    columns = [table.column_index[name] for name in names]
    _check_finite(table.X[:, columns], names)  # before any row is written, as induce does
    accs = [MomentAccumulator(capacity=window) for _ in names]
    # A window's label is that of its last row, so the output is a table
    # that induce, baseline and detect read as they read their input.
    labels = table.labels
    with _output(args.output) as out:
        writer = csv.writer(out)
        header = [f"{name}_{moment}" for name in names
                  for moment in ("mean", "variance", "skewness", "kurtosis")]
        writer.writerow(header if labels is None else [*header, cfg.label_column])
        for i, row in enumerate(table.X):
            for acc, j in zip(accs, columns):
                acc.push(row[j])
            if i + 1 >= window:  # the accumulators fill in lockstep
                moments = [m for acc in accs for m in acc.query()]
                if not all(map(math.isfinite, moments)):
                    j = next(k for k, m in enumerate(moments) if not math.isfinite(m)) // 4
                    # Powers overflow for values about 1e77 apart, underflow about 1e-77.
                    flow = "underflow" if moments[4 * j + 1] < 1.0 else "overflow"
                    raise DataError(f"row {i}: feature {names[j]!r}: "
                                    f"the moments of its window {flow}")
                writer.writerow(moments if labels is None else [*moments, labels[i]])
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rulewatch",
        description="Rule-hit histogram monitoring: baselines and out-of-distribution detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("induce", help="induce a ruleset from labeled CSV data")
    p.add_argument("data", help="training CSV with a label column")
    p.add_argument("-o", "--output", default=None, help="rules file (default stdout)")
    _add_config_flags(p, "label_column", "max_depth", "min_leaf")
    p.set_defaults(fn=cmd_induce)

    p = sub.add_parser("baseline", help="build training baselines from data + rules")
    p.add_argument("data", help="training CSV")
    p.add_argument("--rules", required=True)
    p.add_argument("-o", "--output", default="baseline.json")
    _add_config_flags(p, "seed", "n_s", "n_tr", "n_op", "mode")
    p.set_defaults(fn=cmd_baseline)

    p = sub.add_parser("detect", help="score operational data against a baseline")
    p.add_argument("op_data", help="operational CSV")
    p.add_argument("--rules", required=True)
    p.add_argument("--baseline", required=True)
    p.add_argument("--format", choices=("json-document", "csv"), default="json-document")
    _add_config_flags(p, "metrics")
    p.set_defaults(fn=cmd_detect)

    p = sub.add_parser("stream", help="incremental detection over a sample stream")
    p.add_argument("source", help="CSV file or '-' for stdin")
    p.add_argument("--rules", required=True)
    p.add_argument("--baseline", required=True)
    p.add_argument("-o", "--output", default=None, help="tick CSV (default stdout)")
    p.add_argument("--ns", type=int, default=None,
                   help="window length (default: the baseline's split size)")
    _add_config_flags(p, "stride", "metrics")
    p.set_defaults(fn=cmd_stream)

    p = sub.add_parser("eval", help="measure FPR/FNR over repeated runs")
    p.add_argument("--in-csv", default=None, help="in-distribution CSV (labeled)")
    p.add_argument("--op-csv", default=None, help="candidate out-of-distribution CSV")
    p.add_argument("--synthetic", choices=("gaussian", "rule-aligned"), default=None)
    p.add_argument("--shift", default=None, help="feature shifts POS:DELTA[,POS:DELTA...]")
    p.add_argument("--format", choices=("json-document", "csv"), default="json-document")
    p.add_argument("-o", "--output", default=None, help="summary (default stdout)")
    _add_config_flags(p, "seed", "n_s", "n_tr", "n_op", "mode", "label_column",
                      "repetitions", "max_depth", "min_leaf")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("featurize", help="rolling moment features over CSV columns")
    p.add_argument("data", help="input CSV")
    p.add_argument("--window", type=_moment_window, required=True)
    p.add_argument("--columns", default=None, help="comma list (default all features)")
    p.add_argument("-o", "--output", default=None)
    _add_config_flags(p, "label_column")
    p.set_defaults(fn=cmd_featurize)

    return parser


def _relay_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


@functools.cache
def _fix_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at 4 MiB for this process.

    glibc raises the threshold to the size of each large block freed, so a
    later table of that size goes into whatever free heap space earlier
    work left, or grows the heap past it: the memory a command touches then
    depends on what ran before. With the threshold fixed, a 12 MB table
    (250k rows) always gets its own mapping, returned to the system when it
    is freed, while per-request buffers (a 5000-row ``detect`` table, an
    ``eval`` repetition's data) stay in the heap for reuse: at glibc's
    128 KiB default, mapping those afresh made ``eval`` calls slower.
    Fixing the mmap threshold also fixes the trim threshold, so that is set
    to 64 MiB, the most glibc would raise it to; trimming the heap top at
    every 128 KiB free made ``eval`` 25% slower.

    What it holds, in six pairs of 15 s benchmark runs on 2 shared cores
    with it and without it: ``batch-single`` set-up (input generation,
    ``induce`` and a 250k-row ``baseline``) took 2.17 s with it and 3.00 s
    without (slower without in 5 pairs); ``eval-group`` p1 latency read
    23.9 and 26.1 ms, and its set-up 0.0267 and 0.0307 s (slower without in
    all 6 pairs, each). Peak resident size did not move on any workload in
    these runs, nor did ``stream-single`` in 4 pairs. Elsewhere than glibc
    this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv: Sequence[str] | None = None) -> int:
    _fix_malloc_thresholds()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = _relay_warning
            return args.fn(args)
    except FingerprintMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FINGERPRINT
    except (StreamStateError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

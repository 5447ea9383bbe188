"""The three benchmark workloads, each driven through ``rulewatch.cli.main``.

The CLI runs in this process, single-threaded, so interpreter start-up does
not swamp a detect call of a few tens of milliseconds. Each workload has a
``setup`` (input generation plus untimed preparation; the runner repeats
it), a timed ``run`` that may be called several times and adds to the
measurements, and a ``summary`` that checks the correctness gates outside
the timed region and reports. A failure is an exception, an unexpected exit
code or a failed gate; each counts once against the operations attempted.
"""
from __future__ import annotations

import csv
import io
import json
import math
import resource
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from rulewatch import cli
from rulewatch.data import DataTable
from rulewatch.detection import BaselineBundle, detect_split
from rulewatch.histogram import OPERATIONAL, Split, hit_histogram
from rulewatch.rules import parse_ruleset

import gen


@dataclass
class Timed:
    """What one timed pass measured; latencies are in seconds."""

    latencies: list[float]
    unit: str  # what one request is, for the human-readable lines
    named: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 when nothing was measured (the run reports failures then)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


class Workload:
    name = ""
    setups = 3  # set-ups per untraced run; setup_s is their median

    def __init__(self, seed: int, sizes: gen.Sizes, workdir: Path, root: Path):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.root = root
        self.tracer = None  # set by the traced run
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.setup_timings: dict[str, list[float]] = {}
        self.inputs: gen.Inputs | None = None
        self.rss_after_generate_mb = 0.0
        self.reset()

    def reset(self) -> None:
        """Start the timed measurements empty; subclasses add their own."""
        self.latencies: list[float] = []

    # -- bookkeeping ---------------------------------------------------------
    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str) -> None:
        """Count a failure of an operation already counted as attempted."""
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def cli(self, argv: list[str], request: object = None, stdin=None, stdout=None
            ) -> tuple[int, str, float]:
        """Run one CLI command in-process; returns exit code, stdout and seconds."""
        if self.tracer is not None:
            self.tracer.request = request
        out = io.StringIO() if stdout is None else stdout
        err = io.StringIO()
        saved_stdin = sys.stdin
        if stdin is not None:
            sys.stdin = stdin
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = -1
            err.write(traceback.format_exc())
        finally:
            sys.stdin = saved_stdin
        elapsed = perf_counter() - t0
        if code not in (0, 3):
            print(f"{argv[0]} exited {code}: {err.getvalue().strip()[-2000:]}", file=sys.stderr)
        return code, out.getvalue() if stdout is None else "", elapsed

    def timed_setup_step(self, key: str, argv: list[str]) -> None:
        code, _, elapsed = self.cli(argv, request=f"setup/{key}")
        self.check(code == 0, f"setup {key} exited {code}")
        self.setup_timings.setdefault(f"{key}_s", []).append(elapsed)

    def path(self, name: str) -> str:
        return str(self.inputs.files[name])

    def generate(self) -> None:
        if self.tracer is not None:
            self.tracer.request = "setup/generate"
        self.inputs = gen.generate(self.name, self.seed, self.sizes, self.workdir, self.root)
        if not self.rss_after_generate_mb:
            self.rss_after_generate_mb = peak_rss_mb()

    def induce_and_baseline(self) -> bytes:
        s = self.sizes
        rules, base = str(self.workdir / "rules.txt"), str(self.workdir / "baseline.json")
        self.timed_setup_step("induce", [
            "induce", self.path("inducer"), "-o", rules,
            "--max-depth", str(s.max_depth), "--min-leaf", str(s.min_leaf),
        ])
        self.timed_setup_step("baseline", [
            "baseline", self.path("train"), "--rules", rules, "-o", base,
            "--ns", str(s.n_s), "--ntr", str(s.n_tr), "--seed", str(self.seed),
        ])
        self.rules_path, self.baseline_path = rules, base
        self.inputs.manifest["rules"] = parse_ruleset(Path(rules).read_text()).n_rules
        return Path(base).read_bytes()

    def named_setup(self) -> dict[str, tuple[float, str, int]]:
        return {
            k: (sorted(v)[len(v) // 2], "s", len(v)) for k, v in self.setup_timings.items()
        }

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.set_phase(name)


# ---------------------------------------------------------------------------
# stream-single
# ---------------------------------------------------------------------------

class _Feed:
    """Stand-in stdin: hands the CLI one CSV line at a time, stamping each hand-off.

    The CLI pulls the next line only after it has handled the previous one,
    so this is a closed loop with one client.
    """

    def __init__(self, lines: list[str], first_tick_row: int, tracer):
        self.lines = lines
        self.first_tick_row = first_tick_row
        self.tracer = tracer
        self.handed: list[float] = []
        self._pos = 0

    def __iter__(self):
        return self

    def __next__(self) -> str:
        pos = self._pos
        if pos >= len(self.lines):
            raise StopIteration
        self._pos += 1
        if pos:
            row = pos - 1
            if self.tracer is not None:
                self.tracer.request = row
                if row == self.first_tick_row:
                    self.tracer.set_phase("timed")
            self.handed.append(perf_counter())
        return self.lines[pos]


class _TickSink:
    """Stand-in stdout: keeps every CSV row the CLI writes with its write time."""

    def __init__(self):
        self.rows: list[str] = []
        self.times: list[float] = []

    def write(self, text: str) -> int:
        self.times.append(perf_counter())
        self.rows.append(text)
        return len(text)

    def flush(self) -> None:
        pass


class StreamSingle(Workload):
    """Incremental single-split detection: ``stream -`` with a detection every tick.

    One pass streams the whole seeded input: ``n_s`` prefill rows, then
    in-distribution rows, then shifted rows, so both verdicts and a
    transition occur. The run repeats identical passes until ``seconds``
    have passed rather than cutting a pass short, so every run measures the
    same mix of ticks whatever the speed of the build under test.
    """

    name = "stream-single"
    gate_samples = 16

    def setup(self) -> None:
        self.generate()
        self.induce_and_baseline()
        self.lines = Path(self.path("stream")).read_text().splitlines(keepends=True)

    def _pass(self) -> tuple[dict[int, list], dict[int, float], list[float]]:
        sink = _TickSink()
        feed = _Feed(self.lines, self.sizes.n_s - 1, self.tracer)
        self.phase("prefill")
        code, _, _ = self.cli(
            ["stream", "-", "--rules", self.rules_path, "--baseline", self.baseline_path,
             "--stride", "1"],
            request="stream", stdin=feed, stdout=sink,
        )
        self.phase("post")
        self.check(code == 0, f"stream exited {code}")
        ticks: dict[int, list] = {}
        end: dict[int, float] = {}
        for cells, t in zip(csv.reader(sink.rows[1:]), sink.times[1:]):
            index = int(cells[0])
            ticks.setdefault(index, []).append(cells)
            end[index] = t
        return ticks, end, feed.handed

    def reset(self) -> None:
        super().reset()
        self.spans = 0.0
        self.intervals = 0
        self.passes = 0
        self.first_ticks: dict[int, list] | None = None

    def run(self, seconds: float) -> None:
        deadline = perf_counter() + seconds
        while True:
            ticks, end, handed = self._pass()
            self.passes += 1
            order = sorted(ticks)
            self.latencies += [end[i] - handed[i] for i in order]
            if len(order) > 1:
                self.spans += end[order[-1]] - end[order[0]]
                self.intervals += len(order) - 1
            self.attempted += len(order)
            if self.first_ticks is None:
                self.first_ticks = ticks
                self._gate(order, ticks)
            elif ticks != self.first_ticks:
                self.fail(f"pass {self.passes} wrote different ticks from pass 1")
            if perf_counter() >= deadline:
                return

    def summary(self) -> Timed:
        latencies = self.latencies
        throughput = self.intervals / self.spans if self.spans > 0 else 0.0
        order = sorted(self.first_ticks or {})
        verdicts = [self.first_ticks[i][0][6] for i in order]
        n = len(latencies)
        return Timed(
            latencies, "tick",
            named={
                "stream_samples_per_s": (throughput, "samples/s", n),
                "tick_latency_p50_ms": (quantile(latencies, 0.5) * 1e3, "ms", n),
                "tick_latency_p99_ms": (quantile(latencies, 0.99) * 1e3, "ms", n),
            },
            notes={
                "passes": self.passes,
                "ticks_per_pass": len(order),
                "ood_ticks_per_pass": verdicts.count("OoD"),
                "transitions_per_pass": sum(a != b for a, b in zip(verdicts, verdicts[1:])),
            },
        )

    def _gate(self, order: list[int], ticks: dict[int, list]) -> None:
        """Stream flags must equal batch flags on a recount of the same window.

        At evenly spaced ticks and at every verdict change, the window's last
        ``n_s`` rows are recounted with ``hit_histogram`` and scored with
        ``detect_split``; metric values, flags and verdict must match the
        tick's CSV rows exactly.
        """
        if not self.check(bool(order), "stream wrote no ticks"):
            return
        step = max(len(order) // self.gate_samples, 1)
        sampled = set(order[::step]) | {order[-1]}
        sampled |= {b for a, b in zip(order, order[1:]) if ticks[a][0][6] != ticks[b][0][6]}
        ruleset = parse_ruleset(Path(self.rules_path).read_text())
        bundle = BaselineBundle.from_document(Path(self.baseline_path).read_text())
        X = self.inputs.stream_X
        columns = tuple(f"x{j + 1}" for j in range(X.shape[1]))
        n_s = self.sizes.n_s
        for i in sorted(sampled):
            window = Split(DataTable(columns, X[i - n_s + 1 : i + 1]), origin=OPERATIONAL)
            report = detect_split(bundle.training, hit_histogram(ruleset, window), bundle.baselines)
            expected = [
                [str(i), name, repr(m.representative), repr(m.baseline[0]),
                 repr(m.baseline[1]), str(int(m.flag)), report.verdict]
                for name, m in report.per_metric.items()
            ]
            if ticks[i] != expected:
                self.fail(f"tick {i} differs from the batch recount")


# ---------------------------------------------------------------------------
# batch-single
# ---------------------------------------------------------------------------

class BatchSingle(Workload):
    """Repeated ``detect`` calls against a design-size baseline, in and shifted alternately."""

    name = "batch-single"

    def __init__(self, *args):
        super().__init__(*args)
        self.baseline_bytes: list[bytes] = []

    def setup(self) -> None:
        self.generate()
        self.baseline_bytes.append(self.induce_and_baseline())

    def reset(self) -> None:
        super().reset()
        self.calls: list[tuple[int, int, str]] = []

    def run(self, seconds: float) -> None:
        files = (self.path("op_in"), self.path("op_shifted"))
        self.phase("timed")
        deadline = perf_counter() + seconds
        while True:
            k = len(self.calls)
            code, out, elapsed = self.cli(
                ["detect", files[k % 2], "--rules", self.rules_path,
                 "--baseline", self.baseline_path],
                request=f"detect/{k}",
            )
            self.latencies.append(elapsed)
            self.calls.append((k % 2, code, out))
            if perf_counter() >= deadline:
                break
        self.phase("post")

    def summary(self) -> Timed:
        latencies = self.latencies
        in_ood = 0
        for shifted, code, out in self.calls:
            try:
                verdict = json.loads(out)["verdict"] if code in (0, 3) else None
            except (ValueError, KeyError):
                verdict = None
            expected_code = 3 if verdict == "OoD" else 0
            ok = verdict is not None and code == expected_code and (code == 3 or not shifted)
            self.check(ok, f"detect on {'shifted' if shifted else 'in'} file: exit {code}, {verdict}")
            in_ood += int(not shifted and code == 3)
        if len(self.baseline_bytes) > 1:
            self.check(
                all(b == self.baseline_bytes[0] for b in self.baseline_bytes),
                "baseline files differ between builds from the same inputs",
            )
        n = len(latencies)
        return Timed(
            latencies, "detect call",
            named={
                "detect_p50_ms": (quantile(latencies, 0.5) * 1e3, "ms", n),
                "detect_p90_ms": (quantile(latencies, 0.9) * 1e3, "ms", n),
            },
            notes={"in_distribution_exit_3": in_ood, "baseline_builds": len(self.baseline_bytes)},
        )


# ---------------------------------------------------------------------------
# eval-group
# ---------------------------------------------------------------------------

class EvalGroup(Workload):
    """``eval --mode group`` at criterion 5's desk configuration, one repetition per call."""

    name = "eval-group"
    # One set-up is a single warm-up repetition, so cheap and noisy: take
    # the median of more of them.
    setups = 9

    def argv(self, seed: int) -> list[str]:
        s = self.sizes
        return [
            "eval", "--synthetic", "gaussian", "--shift", gen.SHIFT_SPEC, "--mode", "group",
            "--ns", str(s.eval_ns), "--ntr", str(s.eval_ntr), "--nop", str(s.eval_nop),
            "--repetitions", "1", "--seed", str(seed),
        ]

    def setup(self) -> None:
        # Nothing to write: eval draws its data from the seed it is given.
        # Preparation is one untimed repetition, on a seed the timed calls
        # do not use, so lazy first-call work is done before timing.
        self.generate()
        code, _, _ = self.cli(self.argv(self.inputs.eval_seeds[-1]), request="setup/eval")
        self.check(code == 0, f"warm-up eval exited {code}")

    def reset(self) -> None:
        super().reset()
        self.outputs: list[tuple[int, str]] = []

    def run(self, seconds: float) -> None:
        self.phase("timed")
        deadline = perf_counter() + seconds
        while True:
            k = len(self.outputs)
            code, out, elapsed = self.cli(self.argv(self.inputs.eval_seeds[k]), request=f"eval/{k}")
            self.latencies.append(elapsed)
            self.outputs.append((code, out))
            if perf_counter() >= deadline:
                break
        self.phase("post")

    def summary(self) -> Timed:
        latencies = self.latencies
        fp = fn = 0
        for code, out in self.outputs:
            try:
                doc = json.loads(out) if code == 0 else {}
            except ValueError:
                doc = {}
            ok = doc.get("repetitions") == 1 and doc.get("mode") == "group"
            if self.check(ok, f"eval exited {code} or reported {doc.get('repetitions')} repetitions"):
                fp += doc["fpr"]
                fn += doc["fnr"]
        n = len(latencies)
        self.check(fn == 0, f"group FNR {fn / n:.3f} for the 2-sigma shift, expected 0")
        return Timed(
            latencies, "repetition",
            named={"eval_reps_per_s": (n / sum(latencies), "reps/s", n)},
            notes={"fpr": fp / n, "fnr": fn / n},
        )


WORKLOADS = {w.name: w for w in (StreamSingle, BatchSingle, EvalGroup)}

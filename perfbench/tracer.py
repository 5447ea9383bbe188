"""Layer spans for the traced benchmark run, recorded from outside the package.

``Tracer.install`` wraps the public entry points of each rulewatch module
(every module-level reference to them, so calls made between modules are
seen too) and ``uninstall`` restores the originals; nothing under ``src/``
changes. A span records name, start, end, parent span and the request it
served (a tick's sample index, a detect call, an eval repetition, or a
set-up step). Spans are held in memory and written once, at the end.

Self time is kept by time slicing: between two trace events the elapsed
time belongs to the innermost open span's layer, or to ``harness`` when
none is open, in the current phase (set-up, prefill, timed).
"""
from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (module, attribute, layer, span name, work counter or None)
TARGETS = (
    ("rulewatch.cli", "main", "cli", "cli.main", None),
    ("rulewatch.rules", "parse_ruleset", "rules", "rules.parse_ruleset", None),
    ("rulewatch.rules", "Ruleset.hit_mask_table", "rules", "rules.hit_mask_table",
     lambda args, result: result.shape[0]),
    ("rulewatch.rules", "ruleset_hits", "rules", "rules.ruleset_hits", None),
    ("rulewatch.streaming", "StreamMonitor.push", "streaming", "streaming.monitor_push", None),
    ("rulewatch.streaming", "SlidingHitWindow.push", "streaming", "streaming.window_push", None),
    ("rulewatch.streaming", "stream_detect", "streaming", "streaming.stream_detect", None),
    ("rulewatch.metrics", "weighted_mutual_information", "metrics", "metrics.wmi", None),
    ("rulewatch.metrics", "lp_norm", "metrics", "metrics.lp_norm", None),
    ("rulewatch.metrics", "fit_bank", "metrics", "metrics.fit_bank", None),
    ("rulewatch.metrics", "rule_based_information", "metrics", "metrics.rbi", None),
    ("rulewatch.detection", "detect_split", "detection", "detection.detect_split", None),
    ("rulewatch.detection", "single_split_baseline", "detection",
     "detection.single_split_baseline", None),
    ("rulewatch.detection", "group_baseline", "detection", "detection.group_baseline", None),
    ("rulewatch.detection", "detect_group", "detection", "detection.detect_group", None),
    ("rulewatch.detection", "BaselineBundle.to_document", "detection",
     "detection.bundle_to_document", None),
    ("rulewatch.detection", "BaselineBundle.from_document", "detection",
     "detection.bundle_from_document", None),
    ("rulewatch.histogram", "make_splits", "histogram", "histogram.make_splits", None),
    ("rulewatch.histogram", "hit_matrix", "histogram", "histogram.hit_matrix", None),
    ("rulewatch.histogram", "hit_histogram", "histogram", "histogram.hit_histogram", None),
    ("rulewatch.data", "DataTable.from_csv", "data", "data.from_csv",
     lambda args, result: result.n_rows),
    ("rulewatch.inducer", "induce_ruleset", "inducer", "inducer.induce_ruleset", None),
    ("rulewatch.synth", "GaussianMixtureSource.sample", "synth", "synth.sample", None),
)
LAYERS = ("cli", "rules", "streaming", "metrics", "detection", "histogram", "data",
          "inducer", "synth")
SPAN_FIELDS = ("id", "name", "start", "end", "parent", "request")
MAX_SPANS = 200_000  # spans kept in memory; later ones are only counted as dropped


class _Stat:
    __slots__ = ("calls", "total", "work", "timed_calls", "timed_total")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.work = 0
        self.timed_calls = 0
        self.timed_total = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.request: object = None
        self.phase = "setup"
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.self_time: dict[tuple[str, str], float] = defaultdict(float)
        self.layer_calls: dict[tuple[str, str], int] = defaultdict(int)
        self._stack: list[list] = []  # [id, name, layer, start]
        self._next_id = 0
        self._last = perf_counter()
        self._undo: list = []

    # -- time slicing -------------------------------------------------------
    def _slice(self, now: float) -> None:
        layer = self._stack[-1][2] if self._stack else "harness"
        self.self_time[(layer, self.phase)] += now - self._last
        self._last = now

    def set_phase(self, phase: str) -> None:
        self._slice(perf_counter())
        self.phase = phase

    def _enter(self, name: str, layer: str) -> list:
        now = perf_counter()
        self._slice(now)
        frame = [self._next_id, name, layer, now]
        self._next_id += 1
        self._stack.append(frame)
        self.layer_calls[(layer, self.phase)] += 1
        return frame

    def _exit(self, frame: list, work) -> None:
        now = perf_counter()
        self._slice(now)
        self._stack.pop()
        span_id, name, _, start = frame
        stat = self.stats[name]
        stat.calls += 1
        stat.total += now - start
        stat.work += work
        if self.phase == "timed":
            stat.timed_calls += 1
            stat.timed_total += now - start
        if len(self.spans) < MAX_SPANS:
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append((span_id, name, start, now, parent, self.request))
        else:
            self.dropped += 1

    # -- installation -------------------------------------------------------
    def _wrap(self, fn, name: str, layer: str, work):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name, layer)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._exit(frame, work(args, result) if work and result is not None else 0)

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("rulewatch")]
        for mod_name, attr, layer, name, work in TARGETS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(raw.__func__, name, layer, work))
                else:
                    patched = self._wrap(raw, name, layer, work)
                setattr(cls, meth, patched)
                self._undo.append((setattr, cls, meth, raw))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name, layer, work)
            # Rebind every module-level reference, including values held in
            # module-level dicts (dispatch tables), so cross-module calls go
            # through the wrapper.
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((setattr, mod, key, original))
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapped
                                self._undo.append((dict.__setitem__, value, k, original))

    def uninstall(self) -> None:
        for fn, target, key, original in reversed(self._undo):
            fn(target, key, original)
        self._undo.clear()

    # -- results ------------------------------------------------------------
    def per_call(self, name: str, scale: float) -> float:
        stat = self.stats.get(name)
        return stat.total / stat.calls * scale if stat and stat.calls else 0.0

    def rate(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat.work / stat.total if stat and stat.total else 0.0

    def timed_calls(self, name: str, requests: int) -> float:
        stat = self.stats.get(name)
        return stat.timed_calls / requests if stat and requests else 0.0

    def span_time(self, name: str, request: object) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[1] == name and s[5] == request)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"fields": SPAN_FIELDS, "dropped": self.dropped, "spans": self.spans}
        path.write_text(json.dumps(doc))

"""Rule-hit histogram monitoring.

Fingerprint a training distribution as per-rule hit histograms over data
splits, build per-metric [min, max] baselines, and flag operational data
whose histograms fall outside them, in batch or incrementally over a
sliding sample window.
"""

from .data import CsvFormatError, DataError, DataTable, InsufficientDataError
from .detection import (
    BaselineBundle, Baselines, DetectionError, DetectionReport,
    FingerprintMismatchError, MetricReport, compute_fingerprint, detect, detect_group,
    detect_split, group_baseline, single_split_baseline,
)
from .histogram import (
    HitHistogram, HitMatrix, Split, hit_histogram, hit_matrix, make_splits,
)
from .inducer import InducerError, RuleQualityWarning, induce_ruleset
from .metrics import (
    MetricError, alpha_weight, fit_bank, lp_norm, mutual_information,
    rule_based_information, weighted_mutual_information,
)
from .rules import (
    Condition, MissingFeatureError, NonNumericValueError, Rule, RuleError,
    RuleSyntaxError, Ruleset, format_ruleset, parse_ruleset, ruleset_hits,
)
from .streaming import (
    InsufficientSamplesError, MomentAccumulator, SlidingHitWindow, StreamMonitor,
    StreamStateError, WindowSizeMismatchWarning, stream_detect,
)

__all__ = [
    "CsvFormatError", "DataError", "DataTable", "InsufficientDataError",
    "BaselineBundle", "Baselines", "DetectionError", "DetectionReport",
    "FingerprintMismatchError", "MetricReport", "compute_fingerprint", "detect",
    "detect_group", "detect_split", "group_baseline", "single_split_baseline",
    "HitHistogram", "HitMatrix", "Split", "hit_histogram", "hit_matrix", "make_splits",
    "InducerError", "RuleQualityWarning", "induce_ruleset",
    "MetricError", "alpha_weight", "fit_bank", "lp_norm", "mutual_information",
    "rule_based_information", "weighted_mutual_information",
    "Condition", "MissingFeatureError", "NonNumericValueError", "Rule", "RuleError",
    "RuleSyntaxError", "Ruleset", "format_ruleset", "parse_ruleset", "ruleset_hits",
    "InsufficientSamplesError", "MomentAccumulator", "SlidingHitWindow",
    "StreamMonitor", "StreamStateError", "WindowSizeMismatchWarning", "stream_detect",
]

__version__ = "0.1.0"

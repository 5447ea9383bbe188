"""The package root's public surface is pinned: a new or dropped export is a
visible change to this file."""
import ast
from pathlib import Path

import rulewatch

EXPORTS = [
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


def test_the_package_root_exports_the_pinned_names():
    assert rulewatch.__all__ == EXPORTS
    assert all(hasattr(rulewatch, name) for name in EXPORTS)


def test_the_package_root_exports_every_name_it_imports():
    tree = ast.parse(Path(rulewatch.__file__).read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported == rulewatch.__all__

"""Report rendering: canonical JSON for machines, aligned-column text for
people. Both are deterministic functions of the report contents."""

from __future__ import annotations

import json

from . import benchmarks
from .corpus import CLASS_ORDER
from .evaluation import AblationReport, EvalReport


def eval_report_json(report: EvalReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def ablation_report_json(report: AblationReport) -> str:
    payload = report.to_dict()
    payload["baseline_report"] = report.baseline.to_dict()
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _pct(value: float) -> str:
    return f"{100.0 * value:.2f}"


def _published(value) -> str:
    return "-" if value is None else f"{value:.2f}"


def _table(rows: list) -> list:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [cell.ljust(widths[i]) for i, cell in enumerate(row)]
        lines.append("  ".join(cells).rstrip())
    return lines


def _config_lines(config: dict) -> list:
    lines = ["config:"]
    for key in sorted(config):
        lines.append(f"  {key}: {config[key]}")
    return lines


def loo_references(classifier: str, groups) -> dict:
    """Published per-event accuracies matching a leave-one-out config, or
    {} when none were published for it."""
    from .features import AF_GROUPS, GROUPS
    if groups is None:
        groups = GROUPS
    removed = set(GROUPS) - set(groups)
    if not removed:
        return benchmarks.LOO_ACCURACY.get(classifier, {})
    if removed == set(AF_GROUPS):
        return benchmarks.LOO_ACCURACY_WITHOUT_AF.get(classifier, {})
    return {}


def eval_report_text(report: EvalReport) -> str:
    references = {}
    if report.protocol.startswith("loo"):
        references = loo_references(report.config.get("classifier"),
                                    report.config.get("feature_groups"))
    lines = [f"protocol: {report.protocol}"]
    lines.extend(_config_lines(report.config))
    lines.append("")
    header = ["event", "n", "accuracy"]
    if references:
        header.append("published")
    rows = [header]
    for event, stats in report.per_event.items():
        row = [event, str(stats["n_test"]), _pct(stats["accuracy"])]
        if references:
            row.append(_published(references.get(event)))
        rows.append(row)
    macro_row = ["macro mean", "", _pct(report.macro_mean)]
    if references:
        macro_row.append(_published(references.get("macro")))
    rows.append(macro_row)
    lines.extend(_table(rows))
    lines.append("")
    lines.append(f"overall accuracy: {_pct(report.overall_accuracy)}")
    lines.append("")
    lines.append("confusion matrix (rows gold, columns predicted):")
    labels = [label.value for label in CLASS_ORDER]
    matrix_rows = [[""] + labels]
    for i, label in enumerate(labels):
        matrix_rows.append([label] + [str(c) for c in report.confusion[i]])
    lines.extend(_table(matrix_rows))
    lines.append("")
    pr_rows = [["class", "precision", "recall"]]
    for label in labels:
        pr_rows.append([label, _pct(report.precision[label]),
                        _pct(report.recall[label])])
    lines.extend(_table(pr_rows))
    lines.append("")
    lines.append("substituted components (numbers are not directly comparable "
                 "to runs with the original tools):")
    for note in report.notes:
        lines.append(f"  - {note}")
    if references:
        lines.append("")
        lines.append("published values are benchmark context from the original "
                     "resource set, not expectations for this run.")
    return "\n".join(lines) + "\n"


def ablation_report_text(report: AblationReport) -> str:
    ladder = benchmarks.ABLATION_LADDER.get(report.config.get("classifier"), {})
    lines = ["ablation study"]
    lines.extend(_config_lines(report.config))
    lines.append("")
    header = ["features", "accuracy", "delta"]
    if ladder:
        header.append("published (fixed split)")
    rows = [header]
    base_row = ["all groups", _pct(report.baseline.headline_accuracy), ""]
    if ladder:
        base_row.append(_published(ladder["all"]))
    rows.append(base_row)
    for row in report.rows:
        cells = [f"without {row['removed']}", _pct(row["accuracy"]),
                 f"{100.0 * row['delta']:+.2f}"]
        if ladder:
            cells.append(_published(ladder.get(row["removed"])))
        rows.append(cells)
    lines.extend(_table(rows))
    for row in report.rows:
        t_test = row.get("t_test")
        if t_test:
            lines.append("")
            lines.append(
                f"paired t-test, all groups vs. without {row['removed']}: "
                f"t={t_test['t']:.4f} p={t_test['p']:.6f} "
                f"significant(p<0.001)={t_test['significant_at_001']}")
            if t_test.get("degenerate_variance"):
                lines.append("  warning: zero variance across folds; p is a limit")
    if ladder:
        lines.append("")
        lines.append("published values are fixed-split benchmark context from "
                     "the original resource set, not expectations for this run.")
    return "\n".join(lines) + "\n"

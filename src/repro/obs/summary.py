"""Human-readable stage breakdowns from observability artifacts.

``fabp-repro obs summarize PATH`` routes here.  :func:`load_artifact`
sniffs which of the three artifact kinds ``PATH`` holds and
:func:`summarize` renders the matching per-stage table:

* a **metrics** JSON written by ``--metrics-json`` (schema
  ``fabp-metrics``) — stage wall-time from ``fabp_stage_seconds``, engine
  breakdown from ``fabp_score_seconds``, a per-endpoint service table from
  ``fabp_service_request_seconds`` (daemon artifacts), plus the
  resilience counters;
* a Chrome **trace** JSON written by ``--trace-json`` (``traceEvents``)
  — spans aggregated by name;
* a **scan report** JSON written by ``fabp-repro scan --report-json``
  (schema v1, v2 or v3; see :func:`normalize_report_dict`) — chunk
  attempts aggregated by outcome plus the v2 ``metrics`` section and,
  for sharded scans, the v3 per-shard table.

The table format is the same for all three — stage, calls, total seconds,
mean seconds, share of the total — which is exactly the stage-level
evidence the paper's evaluation tables (§IV) are built from.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

ArtifactKind = str  # "metrics" | "trace" | "scan-report"

#: Current ScanReport schema (mirrors repro.host.resilience.ScanReport).
SCAN_REPORT_VERSION = 3


def _table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Minimal monospace table (keeps this module stdlib-only)."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    def fmt(row: Sequence[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()

    lines = [fmt(list(headers)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in cells)
    return "\n".join(lines)


def load_artifact(
    path: Union[str, pathlib.Path]
) -> Tuple[ArtifactKind, Dict[str, Any]]:
    """Read ``path`` and classify it; raises ``ValueError`` on unknown data."""
    payload = json.loads(pathlib.Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a JSON object")
    if payload.get("schema") == "fabp-metrics":
        return "metrics", payload
    if "traceEvents" in payload:
        return "trace", payload
    if "queries" in payload or "chunk_attempts" in payload:
        return "scan-report", payload
    raise ValueError(
        f"{path}: unrecognized artifact (expected a fabp-metrics JSON, a "
        "Chrome trace JSON, or a scan report JSON)"
    )


def normalize_report_dict(report: Dict[str, Any]) -> Dict[str, Any]:
    """Upgrade a ScanReport dict to the v3 shape (v1/v2 stay readable).

    Schema v1 (PR 4) had no ``metrics`` section; v2 added it; v3 adds the
    ``shards`` section (empty for single-shard scans).  Anything newer
    than :data:`SCAN_REPORT_VERSION` is refused — forward compatibility
    by silent field-dropping is how wrong dashboards happen.  Consumers —
    this summarizer, tests, downstream tooling — should call this instead
    of branching on ``version`` themselves.
    """
    version = int(report.get("version", 1))
    if version > SCAN_REPORT_VERSION:
        raise ValueError(
            f"scan report schema v{version} is newer than supported "
            f"v{SCAN_REPORT_VERSION}"
        )
    normalized = dict(report)
    normalized.setdefault("metrics", {})
    normalized.setdefault("shards", [])
    normalized["version"] = SCAN_REPORT_VERSION
    return normalized


# -- per-kind row builders -----------------------------------------------------


def _share_rows(
    entries: List[Tuple[str, int, float]]
) -> List[List[object]]:
    """(name, calls, total_s) -> table rows with mean and share columns."""
    grand_total = sum(total for _, _, total in entries)
    rows: List[List[object]] = []
    for name, calls, total in sorted(
        entries, key=lambda item: (-item[2], item[0])
    ):
        mean = total / calls if calls else 0.0
        share = total / grand_total if grand_total > 0 else 0.0
        rows.append(
            [name, calls, f"{total:.4f}", f"{mean:.6f}", f"{share:.1%}"]
        )
    return rows


def _metric_samples(
    payload: Dict[str, Any], name: str
) -> List[Dict[str, Any]]:
    for metric in payload.get("metrics", []):
        if metric.get("name") == name:
            return list(metric.get("samples", []))
    return []


def summarize_metrics(payload: Dict[str, Any]) -> str:
    """Stage + engine breakdown tables from a fabp-metrics artifact."""
    sections: List[str] = []
    stage_entries = [
        (
            str(s["labels"].get("stage", "?")),
            int(s.get("count", 0)),
            float(s.get("sum", 0.0)),
        )
        for s in _metric_samples(payload, "fabp_stage_seconds")
    ]
    if stage_entries:
        sections.append("Stage breakdown (fabp_stage_seconds)")
        sections.append(
            _table(
                ["stage", "calls", "total_s", "mean_s", "share"],
                _share_rows(stage_entries),
            )
        )
    engine_entries = [
        (
            str(s["labels"].get("engine", "?")),
            int(s.get("count", 0)),
            float(s.get("sum", 0.0)),
        )
        for s in _metric_samples(payload, "fabp_score_seconds")
    ]
    if engine_entries:
        sections.append("")
        sections.append("Scoring engines (fabp_score_seconds)")
        sections.append(
            _table(
                ["engine", "calls", "total_s", "mean_s", "share"],
                _share_rows(engine_entries),
            )
        )
    service_entries = [
        (
            str(s["labels"].get("endpoint", "?")),
            int(s.get("count", 0)),
            float(s.get("sum", 0.0)),
        )
        for s in _metric_samples(payload, "fabp_service_request_seconds")
    ]
    if service_entries:
        sections.append("")
        sections.append("Service endpoints (fabp_service_request_seconds)")
        sections.append(
            _table(
                ["endpoint", "requests", "total_s", "mean_s", "share"],
                _share_rows(service_entries),
            )
        )
    counter_rows: List[List[object]] = []
    for metric in payload.get("metrics", []):
        if metric.get("kind") not in ("counter", "gauge"):
            continue
        for sample in metric.get("samples", []):
            labels = sample.get("labels", {})
            suffix = (
                "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
                if labels
                else ""
            )
            value = sample.get("value", 0)
            shown = int(value) if float(value).is_integer() else f"{value:.4g}"
            counter_rows.append([f"{metric['name']}{suffix}", shown])
    if counter_rows:
        sections.append("")
        sections.append("Counters & gauges")
        sections.append(_table(["metric", "value"], counter_rows))
    if not sections:
        return "(empty metrics artifact: was observability enabled?)"
    return "\n".join(sections)


def summarize_trace(payload: Dict[str, Any]) -> str:
    """Spans aggregated by name from a Chrome trace artifact."""
    totals: Dict[str, Tuple[int, float]] = {}
    for event in payload.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        name = str(event.get("name", "?"))
        calls, total = totals.get(name, (0, 0.0))
        totals[name] = (calls + 1, total + float(event.get("dur", 0.0)) / 1e6)
    if not totals:
        return "(empty trace: was observability enabled?)"
    entries = [(name, calls, total) for name, (calls, total) in totals.items()]
    dropped = payload.get("otherData", {}).get("dropped_spans", 0)
    lines = [
        "Span breakdown (traceEvents)",
        _table(
            ["span", "calls", "total_s", "mean_s", "share"], _share_rows(entries)
        ),
    ]
    if dropped:
        lines.append(f"(+ {dropped} spans dropped by the ring buffer)")
    return "\n".join(lines)


def _one_report_rows(report: Dict[str, Any]) -> List[Tuple[str, int, float]]:
    totals: Dict[str, Tuple[int, float]] = {}
    for attempt in report.get("chunk_attempts", []):
        outcome = str(attempt.get("outcome", "?"))
        calls, total = totals.get(outcome, (0, 0.0))
        totals[outcome] = (calls + 1, total + float(attempt.get("seconds", 0.0)))
    return [(f"attempt:{k}", c, t) for k, (c, t) in totals.items()]


def _shard_rows(report: Dict[str, Any]) -> List[List[object]]:
    rows: List[List[object]] = []
    for shard in report.get("shards", []):
        rows.append(
            [
                shard.get("shard", "?"),
                f"{shard.get('start', '?')}..{shard.get('stop', '?')}",
                shard.get("nucleotides", "?"),
                shard.get("status", "?"),
                shard.get("attempts", 0),
                shard.get("resumed_chunks", 0),
                shard.get("hedges", 0),
                f"{float(shard.get('elapsed_seconds', 0.0)):.3f}",
            ]
        )
    return rows


def normalize_scan_artifact(payload: Dict[str, Any]) -> Dict[str, Any]:
    """A scan-report artifact with every report in it upgraded to v3.

    A bare ``ScanReport`` dict is :func:`normalize_report_dict` itself; a
    ``--report-json`` wrapper keeps its shape, with its top-level
    ``report`` (version 2) or each ``queries[i].report`` (version 1, a
    copy per query) normalized.
    """
    if "report" in payload:  # the CLI wrapper: the batch's one report
        return {**payload, "report": normalize_report_dict(payload["report"])}
    if "queries" in payload:  # the version-1 CLI wrapper: a copy per query
        queries = [
            {**entry, "report": normalize_report_dict(entry.get("report", {}))}
            for entry in payload["queries"]
        ]
        return {**payload, "queries": queries}
    return normalize_report_dict(payload)


def summarize_scan_report(payload: Dict[str, Any]) -> str:
    """Outcome/stage tables from a scan report artifact (v1, v2 or v3)."""
    payload = normalize_scan_artifact(payload)
    reports: List[Tuple[str, Dict[str, Any]]]
    if "report" in payload:
        reports = [("batch", payload["report"])]
    elif "queries" in payload:
        reports = [
            (str(entry.get("query", "query")), entry["report"])
            for entry in payload["queries"]
        ]
    else:
        reports = [("scan", payload)]
    sections: List[str] = []
    for name, report in reports:
        entries = _one_report_rows(report)
        stage_seconds = report.get("metrics", {}).get("stage_seconds", {})
        entries.extend(
            (f"stage:{stage}", 1, float(seconds))
            for stage, seconds in stage_seconds.items()
        )
        shards = report.get("shards", [])
        dead = sum(1 for s in shards if s.get("status") == "dead")
        if dead:
            state = "dead-shards"
        elif report.get("degraded"):
            state = "degraded"
        else:
            state = "clean"
        chunks = report.get("chunks", {})
        sections.append(
            f"{name}: {chunks.get('completed', '?')}/{chunks.get('total', '?')} "
            f"chunks [{state}] mode={report.get('mode', '?')} "
            f"elapsed={report.get('elapsed_seconds', 0.0):.3f}s "
            f"(schema v{report.get('version')})"
        )
        if entries:
            sections.append(
                _table(
                    ["stage", "calls", "total_s", "mean_s", "share"],
                    _share_rows(entries),
                )
            )
        if shards:
            sections.append(
                _table(
                    [
                        "shard", "references", "nucleotides", "status",
                        "attempts", "resumed", "hedges", "elapsed_s",
                    ],
                    _shard_rows(report),
                )
            )
        sections.append("")
    return "\n".join(sections).rstrip()


def summarize(
    path: Union[str, pathlib.Path], kind: Optional[ArtifactKind] = None
) -> str:
    """Load ``path``, pick the right renderer, return the breakdown text."""
    detected, payload = load_artifact(path)
    kind = kind or detected
    if kind == "metrics":
        return summarize_metrics(payload)
    if kind == "trace":
        return summarize_trace(payload)
    if kind == "scan-report":
        return summarize_scan_report(payload)
    raise ValueError(f"unknown artifact kind {kind!r}")

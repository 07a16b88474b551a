"""Artifact sniffing, ScanReport v1/v2->v3 normalization, summarize rendering."""

import json

import pytest

from repro.obs.metrics import MetricsRegistry, to_json
from repro.obs.summary import (
    SCAN_REPORT_VERSION,
    load_artifact,
    normalize_report_dict,
    normalize_scan_artifact,
    summarize,
    summarize_metrics,
    summarize_scan_report,
    summarize_trace,
)
from repro.obs.trace import TraceRecorder


def v1_report():
    """A ScanReport dict as PR 4 wrote it: version 1, no metrics section."""
    return {
        "version": 1,
        "mode": "serial",
        "degraded": False,
        "clean": True,
        "elapsed_seconds": 1.5,
        "chunks": {"total": 3, "completed": 3},
        "counters": {"ok": 3},
        "chunk_attempts": [
            {"chunk": 0, "attempt": 1, "outcome": "ok", "seconds": 0.4},
            {"chunk": 1, "attempt": 1, "outcome": "raise", "seconds": 0.1},
            {"chunk": 1, "attempt": 2, "outcome": "ok", "seconds": 0.5},
        ],
    }


def metrics_payload():
    reg = MetricsRegistry()
    stage = reg.histogram("fabp_stage_seconds", "Stage time.", ("stage",))
    stage.labels(stage="scan.score").observe(0.75)
    stage.labels(stage="scan.merge").observe(0.25)
    engine = reg.histogram("fabp_score_seconds", "Engine time.", ("engine",))
    engine.labels(engine="bitscore").observe(0.5)
    reg.counter("fabp_scan_retries_total", "Retries.").default.inc(2)
    return to_json(reg)


class TestLoadArtifact:
    def test_sniffs_metrics(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(metrics_payload()))
        kind, payload = load_artifact(path)
        assert kind == "metrics"
        assert payload["schema"] == "fabp-metrics"

    def test_sniffs_trace(self, tmp_path):
        rec = TraceRecorder(origin=0.0)
        rec.record("scan.score", "scan", start=1.0, duration=0.5, thread_id=1)
        path = tmp_path / "t.json"
        path.write_text(json.dumps(rec.to_chrome(pid=1)))
        assert load_artifact(path)[0] == "trace"

    def test_sniffs_bare_and_wrapped_scan_reports(self, tmp_path):
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(v1_report()))
        assert load_artifact(bare)[0] == "scan-report"
        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text(
            json.dumps({"version": 1, "queries": [{"query": "q", "report": v1_report()}]})
        )
        assert load_artifact(wrapped)[0] == "scan-report"

    def test_rejects_unknown_payloads(self, tmp_path):
        alien = tmp_path / "alien.json"
        alien.write_text('{"hello": "world"}')
        with pytest.raises(ValueError, match="unrecognized artifact"):
            load_artifact(alien)
        array = tmp_path / "array.json"
        array.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="not a JSON object"):
            load_artifact(array)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_artifact(tmp_path / "nope.json")


def v2_report():
    """A ScanReport dict as PR 5-8 wrote it: version 2, no shards section."""
    report = v1_report()
    report["version"] = 2
    report["metrics"] = {"stage_seconds": {"execute": 1.4, "merge": 0.1}}
    return report


class TestNormalizeReportDict:
    def test_v1_gains_empty_metrics_section(self):
        original = v1_report()
        normalized = normalize_report_dict(original)
        assert normalized["version"] == SCAN_REPORT_VERSION
        assert normalized["metrics"] == {}
        assert normalized["shards"] == []
        assert original["version"] == 1  # input not mutated
        assert "metrics" not in original

    def test_missing_version_treated_as_v1(self):
        report = v1_report()
        del report["version"]
        assert normalize_report_dict(report)["version"] == SCAN_REPORT_VERSION

    def test_v2_metrics_pass_through(self):
        report = v1_report()
        report["version"] = 2
        report["metrics"] = {"stage_seconds": {"execute": 1.0}}
        normalized = normalize_report_dict(report)
        assert normalized["metrics"] == {"stage_seconds": {"execute": 1.0}}

    def test_v2_accepted_and_gains_empty_shards(self):
        original = v2_report()
        normalized = normalize_report_dict(original)
        assert normalized["version"] == SCAN_REPORT_VERSION
        assert normalized["shards"] == []
        assert normalized["metrics"] == original["metrics"]
        assert "shards" not in original  # input not mutated

    def test_v3_shards_pass_through(self):
        report = v2_report()
        report["version"] = 3
        report["shards"] = [
            {"shard": 0, "start": 0, "stop": 3, "nucleotides": 9000,
             "status": "dead", "attempts": 2, "resumed_chunks": 1,
             "hedges": 0, "elapsed_seconds": 0.5},
        ]
        normalized = normalize_report_dict(report)
        assert normalized["shards"] == report["shards"]

    def test_newer_schema_is_refused(self):
        report = v1_report()
        report["version"] = SCAN_REPORT_VERSION + 1
        with pytest.raises(ValueError, match="newer than supported"):
            normalize_report_dict(report)

    def test_v4_is_refused(self):
        report = v2_report()
        report["version"] = 4
        with pytest.raises(ValueError, match="newer than supported"):
            normalize_report_dict(report)

    def test_live_report_round_trips(self):
        from repro.host.resilience import ScanReport, ShardStatus

        report = ScanReport(mode="sharded", workers=2, chunks_total=2)
        report.shards = [
            ShardStatus(0, 0, 3, 9000, "ok", 1, 0, 0, 0.1),
            ShardStatus(1, 3, 6, 9000, "dead", 3, 2, 1, 0.9, "budget"),
        ]
        payload = report.to_dict()
        assert payload["version"] == SCAN_REPORT_VERSION
        normalized = normalize_report_dict(payload)
        assert normalized["shards"] == payload["shards"]
        restored = [ShardStatus.from_dict(s) for s in normalized["shards"]]
        assert restored == report.shards


class TestSummarizeRendering:
    def test_metrics_tables(self):
        text = summarize_metrics(metrics_payload())
        assert "Stage breakdown (fabp_stage_seconds)" in text
        assert "scan.score" in text and "75.0%" in text
        assert "Scoring engines (fabp_score_seconds)" in text
        assert "fabp_scan_retries_total" in text

    def test_empty_metrics_hint(self):
        empty = to_json(MetricsRegistry())
        assert "was observability enabled?" in summarize_metrics(empty)

    def test_trace_table_and_dropped_note(self):
        rec = TraceRecorder(origin=0.0)
        rec.record("scan.score", "scan", start=1.0, duration=0.5, thread_id=1)
        payload = rec.to_chrome(pid=1)
        text = summarize_trace(payload)
        assert "Span breakdown (traceEvents)" in text
        assert "scan.score" in text
        assert "dropped" not in text
        payload["otherData"]["dropped_spans"] = 5
        assert "5 spans dropped" in summarize_trace(payload)

    def test_scan_report_outcomes_and_stages(self):
        report = v2_report()
        text = summarize_scan_report(report)
        assert "3/3 chunks [clean] mode=serial" in text
        assert "(schema v3)" in text
        assert "attempt:ok" in text and "attempt:raise" in text
        assert "stage:execute" in text

    def test_cli_wrappers_of_both_versions(self):
        """Version 2 holds the batch's one report; version 1 a copy per query."""
        queries = [{"query": "q1", "num_hits": 2}, {"query": "q2", "num_hits": 0}]
        text = summarize_scan_report(
            {"version": 2, "queries": queries, "report": v2_report()}
        )
        assert text.count("chunks [clean]") == 1
        assert text.startswith("batch: 3/3 chunks [clean]")
        old = [dict(entry, report=v1_report()) for entry in queries]
        text = summarize_scan_report({"version": 1, "queries": old})
        assert "q1: 3/3 chunks [clean]" in text and "q2: 3/3 chunks [clean]" in text

    def test_normalize_scan_artifact_upgrades_every_report(self):
        """Bare reports and both wrapper versions; the input is not mutated."""
        queries = [{"query": "q1", "num_hits": 2}, {"query": "q2", "num_hits": 0}]
        old = {"version": 1, "queries": [dict(entry, report=v1_report()) for entry in queries]}
        new = {"version": 2, "queries": queries, "report": v2_report()}
        assert normalize_scan_artifact(v1_report()) == normalize_report_dict(v1_report())
        upgraded = normalize_scan_artifact(old)
        assert [entry["report"] for entry in upgraded["queries"]] == [
            normalize_report_dict(v1_report())
        ] * 2
        assert old["queries"][0]["report"]["version"] == 1
        upgraded = normalize_scan_artifact(new)
        assert upgraded["report"] == normalize_report_dict(v2_report())
        assert upgraded["queries"] == queries and new["report"]["version"] == 2

    def test_scan_report_shard_table(self):
        report = v2_report()
        report["version"] = 3
        report["shards"] = [
            {"shard": 0, "start": 0, "stop": 3, "nucleotides": 9000,
             "status": "ok", "attempts": 1, "resumed_chunks": 0,
             "hedges": 0, "elapsed_seconds": 0.1},
            {"shard": 1, "start": 3, "stop": 6, "nucleotides": 9000,
             "status": "dead", "attempts": 3, "resumed_chunks": 2,
             "hedges": 1, "elapsed_seconds": 0.9},
        ]
        text = summarize_scan_report(report)
        assert "[dead-shards]" in text
        assert "resumed" in text and "hedges" in text
        assert "3..6" in text and "dead" in text

    def test_summarize_autodetects_kind(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(metrics_payload()))
        assert "Stage breakdown" in summarize(path)

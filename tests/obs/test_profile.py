"""Profiling-hook tests: correct families when enabled, no-ops when not."""

from types import SimpleNamespace

from repro.obs import REGISTRY, RECORDER, state
from repro.obs import profile


def family(name):
    return {f.name: f for f in REGISTRY.families()}[name]


def counter_value(name, **labels):
    return family(name).labels(**labels).value


class TestStage:
    def test_timer_is_valid_even_while_disabled(self):
        with profile.stage("quiet") as timer:
            sum(range(1000))
        assert timer.seconds > 0
        assert REGISTRY.families() == []
        assert len(RECORDER) == 0

    def test_enabled_emits_histogram_and_span(self):
        state.enable()
        with profile.stage("scan.pack", category="scan", refs=3) as timer:
            pass
        assert timer.seconds > 0
        child = family("fabp_stage_seconds").labels(stage="scan.pack")
        assert child.count == 1
        (span,) = RECORDER.spans()
        assert span.name == "scan.pack"
        assert span.category == "scan"
        assert span.args == {"refs": 3}

    def test_timer_survives_exceptions(self):
        try:
            with profile.stage("doomed") as timer:
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert timer.seconds > 0


class TestScanHooks:
    def test_score_call(self):
        state.enable()
        profile.record_score_call("bitscore", 0.25, positions=1000)
        profile.record_score_call("bitscore", 0.25, positions=500)
        assert counter_value("fabp_score_calls_total", engine="bitscore") == 2
        assert counter_value("fabp_score_positions_total", engine="bitscore") == 1500
        hist = family("fabp_score_seconds").labels(engine="bitscore")
        assert hist.count == 2 and hist.sum == 0.5

    def test_thresholded_scan_counts_positions_not_hits(self):
        """A thresholded call reports the positions it scored, however few pass."""
        import numpy as np

        from repro.core.aligner import align

        state.enable()
        codes = np.random.default_rng(7).integers(0, 4, 1017).astype(np.uint8)
        for engine in ("bitscore_batch", "naive"):
            # 18 elements: 1,000 positions; 6 elements: 1,012, all of them hits.
            assert not align("MKVLAW", codes, threshold=18, engine=engine).hits
            assert len(align("MK", codes, threshold=0, engine=engine).hits) == 1012
            assert counter_value("fabp_score_calls_total", engine=engine) == 2
            assert counter_value("fabp_score_positions_total", engine=engine) == 2012

    def test_scan_merge_totals(self):
        state.enable()
        profile.record_scan_merge(6, 17)
        assert counter_value("fabp_scan_references_total") == 6
        assert counter_value("fabp_scan_hits_total") == 17

    def test_scan_attempt_emits_counter_histogram_and_span(self):
        state.enable()
        profile.record_scan_attempt(3, 1, "ok", 0.125, worker=2)
        assert counter_value("fabp_scan_chunk_attempts_total", outcome="ok") == 1
        assert family("fabp_chunk_attempt_seconds").labels(outcome="ok").count == 1
        (span,) = RECORDER.spans()
        assert span.name == "chunk 3"
        assert span.category == "scan.chunk"
        assert span.args == {"chunk": 3, "attempt": 1, "outcome": "ok", "worker": 2}

    def test_report_counters_and_degraded_flag(self):
        state.enable()
        profile.record_scan_report_counters(2, 0, degraded=False)
        assert counter_value("fabp_scan_retries_total") == 2
        assert counter_value("fabp_scan_respawns_total") == 0
        names = {f.name for f in REGISTRY.families()}
        assert "fabp_scan_degraded_total" not in names
        profile.record_scan_report_counters(0, 0, degraded=True)
        assert counter_value("fabp_scan_degraded_total") == 1

    def test_checkpoint_accounting(self):
        state.enable()
        profile.record_checkpoint_chunk(10)
        profile.record_checkpoint_chunk(20)
        assert counter_value("fabp_checkpoint_chunks_total") == 2
        assert counter_value("fabp_checkpoint_bytes_total") == 30

    def test_shm_gauge_is_high_water_mark(self):
        state.enable()
        profile.record_shm_bytes(100)
        profile.record_shm_bytes(50)
        assert family("fabp_shm_bytes").default.value == 100


class TestAccelAndBenchHooks:
    def fake_run(self):
        return SimpleNamespace(
            plan=SimpleNamespace(device=SimpleNamespace(name="FabP-250"), segments=4),
            beats=1000,
            compute_cycles=800,
            stall_cycles=50,
            load_cycles=100,
            writeback_cycles=25,
            drain_cycles=25,
            elapsed_seconds=0.01,
            reference_length=4000,
            hits=[(0, 9)],
        )

    def test_kernel_run_cycles_by_kind(self):
        state.enable()
        profile.record_kernel_run(self.fake_run())
        assert counter_value("fabp_kernel_runs_total", device="FabP-250") == 1
        assert counter_value("fabp_kernel_beats_total", device="FabP-250") == 1000
        cycles = family("fabp_kernel_cycles_total")
        assert cycles.labels(device="FabP-250", kind="compute").value == 800
        assert cycles.labels(device="FabP-250", kind="stall").value == 50
        (span,) = RECORDER.spans()
        assert span.name == "accel.kernel.run"
        assert span.args["beats"] == 1000

    def test_schedule_plan(self):
        state.enable()
        profile.record_schedule_plan(4)
        profile.record_schedule_plan(4)
        assert counter_value("fabp_schedule_plans_total", segments="4") == 2

    def test_bench_record(self):
        state.enable()
        profile.record_bench_record("bitscore", 2, 1.5e8, 0.2)
        gauge = family("fabp_bench_positions_per_s").labels(
            engine="bitscore", workers="2"
        )
        assert gauge.value == 1.5e8
        (span,) = RECORDER.spans()
        assert span.name == "bench.bitscore"


class TestDisabledHooksAreNoops:
    def test_every_hook_is_silent_while_disabled(self):
        profile.record_score_call("bitscore", 0.1, 10)
        profile.record_scan_merge(1, 1)
        profile.record_scan_attempt(0, 1, "ok", 0.1)
        profile.record_scan_report_counters(1, 1, degraded=True)
        profile.record_checkpoint_chunk(10)
        profile.record_shm_bytes(10)
        profile.record_schedule_plan(2)
        profile.record_bench_record("naive", 1, 1.0, 1.0)
        assert REGISTRY.families() == []
        assert len(RECORDER) == 0


class TestEncodingCacheHook:
    def test_disabled_is_noop(self):
        profile.record_encoding_cache(3, 1, 2)
        assert REGISTRY.families() == []

    def test_gauges_snapshot_the_cache(self):
        state.enable()
        profile.record_encoding_cache(3, 1, 2)
        assert family("fabp_encoding_cache_hits").default.value == 3
        assert family("fabp_encoding_cache_misses").default.value == 1
        assert family("fabp_encoding_cache_entries").default.value == 2

    def test_extended_alignment_emits_cache_gauges(self):
        from repro.core.aligner import alignment_scores_extended

        state.enable()
        alignment_scores_extended("S", "AGU")
        names = {f.name for f in REGISTRY.families()}
        assert {
            "fabp_encoding_cache_hits",
            "fabp_encoding_cache_misses",
            "fabp_encoding_cache_entries",
        } <= names
        assert family("fabp_encoding_cache_entries").default.value >= 1

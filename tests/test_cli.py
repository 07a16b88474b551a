"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def synthetic_files(tmp_path):
    db = tmp_path / "db.fasta"
    queries = tmp_path / "q.fasta"
    code = main(
        [
            "generate",
            "--queries", "2",
            "--length", "20",
            "--references", "2",
            "--reference-length", "4000",
            "--seed", "5",
            "--out-db", str(db),
            "--out-queries", str(queries),
        ]
    )
    assert code == 0
    return db, queries


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_device_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--device", "asic"])


class TestEncode:
    def test_inline_query(self, capsys):
        assert main(["encode", "--query", "MFSR*"]) == 0
        out = capsys.readouterr().out
        assert "AUG-UU(C/U)" in out
        assert "hex bytes" in out

    def test_bits_flag(self, capsys):
        assert main(["encode", "--query", "M", "--bits"]) == 0
        out = capsys.readouterr().out
        assert "000000 001100 001000" in out

    def test_missing_query_errors(self):
        with pytest.raises(SystemExit):
            main(["encode"])


class TestBadQueryLetters:
    """Invalid --query letters end every subcommand with exit 2, one line."""

    @pytest.mark.parametrize("command", ["encode", "search", "scan"])
    def test_bad_letters_exit_two(self, synthetic_files, capsys, command):
        db, _queries = synthetic_files
        argv = [command, "--query", "MKZ1"]
        if command != "encode":
            argv += ["--database", str(db)]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "invalid protein letters" in err
        assert len(err.strip().splitlines()) == 1


class TestScanQueryEnvelope:
    """``scan`` refuses a query over 750 elements with exit 2, one line."""

    @pytest.mark.parametrize("flags", [[], ["--session"], ["--shards", "2"]])
    def test_251_residues_exit_two(self, synthetic_files, capsys, flags):
        db, _queries = synthetic_files
        argv = ["scan", "--query", "M" * 251, "--database", str(db), *flags]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: query_0: query has 753 elements")
        assert len(captured.err.strip().splitlines()) == 1
        assert "database:" not in captured.out  # refused before any scan

    def test_250_residues_are_scanned(self, synthetic_files, capsys):
        db, _queries = synthetic_files
        argv = ["scan", "--query", "M" * 250, "--database", str(db), "--workers", "1"]
        assert main(argv) == 0
        assert "query_0: 0 hits" in capsys.readouterr().out


class TestSearch:
    def test_finds_planted(self, synthetic_files, capsys):
        db, queries = synthetic_files
        code = main(
            [
                "search",
                "--query-file", str(queries),
                "--database", str(db),
                "--min-identity", "0.9",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 hits >=" in out
        assert "synthetic_ref_" in out

    def test_generate_reports_plantings(self, synthetic_files, capsys):
        # (fixture already ran generate; re-run to capture output)
        db, queries = synthetic_files
        assert db.exists() and queries.exists()

    def test_both_strands_flag(self, synthetic_files, capsys):
        db, queries = synthetic_files
        code = main(
            [
                "search",
                "--query-file", str(queries),
                "--database", str(db),
                "--both-strands",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "strand" in out

    def test_rescore_flag(self, synthetic_files, capsys):
        db, queries = synthetic_files
        code = main(
            [
                "search",
                "--query-file", str(queries),
                "--database", str(db),
                "--rescore",
                "--max-evalue", "1e-2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verified" in out
        assert "E-value" in out


class TestModelCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "FabP-50" in out and "FabP-250" in out
        assert "GB/s" in out

    def test_fig6(self, capsys):
        assert main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "speedup_vs_cpu12" in out

    def test_crossover(self, capsys):
        assert main(["crossover"]) == 0
        out = capsys.readouterr().out
        assert "crossover at" in out

    def test_crossover_large_device(self, capsys):
        assert main(["crossover", "--device", "large"]) == 0
        out = capsys.readouterr().out
        assert "Large" in out

    def test_stats(self, capsys):
        assert main(["stats", "--query", "MFWKLE", "--reference-length", "1000000"]) == 0
        out = capsys.readouterr().out
        assert "null score" in out
        assert "suggested threshold" in out

    def test_export_rtl(self, tmp_path, capsys):
        code = main(
            ["export-rtl", "--query", "MFW", "--out", str(tmp_path), "--loadable"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fmax" in out
        files = list(tmp_path.glob("*.v"))
        assert len(files) == 1
        assert "FDRE" in files[0].read_text()

    def test_compose(self, capsys):
        assert main(["compose", "--query", "MFW"]) == 0
        out = capsys.readouterr().out
        assert "Met (M)" in out
        assert "expected null" in out

    def test_plan(self, capsys):
        code = main(["plan", "--queries", "30x10", "250x2", "--boards", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "queries/hour" in out
        assert "FabP vs GPU" in out

    def test_plan_bad_spec(self):
        with pytest.raises(SystemExit, match="LENxCOUNT"):
            main(["plan", "--queries", "banana"])


class TestLintExitCodes:
    """The documented lint contract: 0 clean, 1 findings, 2 usage error."""

    def test_clean_run_exits_zero(self, capsys):
        # Demo designs carry a known benign warning; without --strict,
        # warnings do not fail the run.
        assert main(["lint"]) == 0
        assert "0 errors" in capsys.readouterr().out

    def test_strict_promotes_warnings_to_exit_one(self, capsys):
        assert main(["lint", "--strict"]) == 1
        capsys.readouterr()

    def test_strict_clean_after_suppression_exits_zero(self, capsys):
        # Suppressing the one known warning restores a clean strict run.
        assert main(["lint", "--strict", "--ignore", "NL003"]) == 0
        capsys.readouterr()

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--no-such-flag"])
        assert excinfo.value.code == 2

    def test_symbolic_json_carries_timing_payload(self, capsys):
        import json

        assert main(["lint", "--symbolic", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        timing = payload["timing"]
        assert "fabp_popcount_750" in timing or any(
            "750" in name for name in timing
        ), sorted(timing)
        record = next(iter(timing.values()))
        assert "fmax_mhz" in record
        assert "excluded_false_pins" in record


class TestCheckExitCodes:
    """The documented check contract: 0 clean, 1 findings, 2 usage error.

    Self-hosting (``check --strict`` over the installed tree) exiting 0 is
    the engine's acceptance gate; the exit-1 path runs over a planted dirty
    tree so the gate is demonstrably capable of failing.
    """

    def test_self_hosting_strict_exits_zero(self, capsys):
        assert main(["check", "--strict"]) == 0
        assert "0 errors, 0 warnings" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        dirty = tmp_path / "host"
        dirty.mkdir()
        (dirty / "bad.py").write_text(
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        assert main(["check", "--root", str(dirty)]) == 1
        assert "RC006" in capsys.readouterr().out

    def test_ignore_restores_clean_exit(self, tmp_path, capsys):
        dirty = tmp_path / "host"
        dirty.mkdir()
        (dirty / "bad.py").write_text(
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        assert main(["check", "--root", str(dirty), "--ignore", "RC006"]) == 0
        capsys.readouterr()

    def test_missing_root_exits_two(self, tmp_path, capsys):
        assert main(["check", "--root", str(tmp_path / "nowhere")]) == 2
        capsys.readouterr()

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "--no-such-flag"])
        assert excinfo.value.code == 2

    def test_json_artifact_carries_rule_catalogue(self, tmp_path, capsys):
        import json

        out = tmp_path / "check.json"
        assert main(["check", "--strict", "--format", "json",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        ids = {entry["rule"] for entry in payload["rules"]}
        assert {"RC001", "RC008", "OB001", "OB004"} <= ids
        assert payload["summary"]["errors"] == 0


class TestProve:
    def test_proofs_hold(self, capsys):
        code = main(["prove", "--widths", "36", "--equivalence-width", "12"])
        assert code == 0
        out = capsys.readouterr().out
        assert "20 amino acids verified" in out
        assert "proven equivalent (symbolic)" in out
        assert "verdict: all proofs hold" in out

    def test_self_test_refutes_seeded_mutations(self, capsys):
        code = main(
            [
                "prove",
                "--widths", "36",
                "--equivalence-width", "12",
                "--self-test",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "refuted with counterexamples" in out

    def test_json_artifact(self, tmp_path, capsys):
        import json

        artifact = tmp_path / "proofs.json"
        code = main(
            [
                "prove",
                "--widths", "36", "72",
                "--equivalence-width", "12",
                "--format", "json",
                "--out", str(artifact),
            ]
        )
        assert code == 0
        capsys.readouterr()
        payload = json.loads(artifact.read_text())
        assert payload["ok"] is True
        assert len(payload["comparators"]) == 20
        assert [r["netlist"] for r in payload["ranges"]] == [
            "popcounter_fabp_36",
            "popcounter_fabp_72",
        ]
        assert payload["equivalence"]["proven"] is True


class TestCheckPatternsAndSarif:
    DIRTY = (
        "def f():\n"
        "    try:\n"
        "        g()\n"
        "    except Exception:\n"
        "        pass\n"
    )

    def _dirty_root(self, tmp_path):
        dirty = tmp_path / "host"
        dirty.mkdir()
        (dirty / "bad.py").write_text(self.DIRTY)
        return dirty

    def test_ignore_accepts_ranges(self, tmp_path, capsys):
        root = self._dirty_root(tmp_path)
        assert main(["check", "--root", str(root),
                     "--ignore", "RC001-RC008"]) == 0
        capsys.readouterr()

    def test_ignore_accepts_globs(self, tmp_path, capsys):
        root = self._dirty_root(tmp_path)
        assert main(["check", "--root", str(root), "--ignore", "RC00*"]) == 0
        capsys.readouterr()

    def test_unmatched_ignore_pattern_warns(self, tmp_path, capsys):
        root = tmp_path / "host"
        root.mkdir()
        (root / "ok.py").write_text("x = 1\n")
        assert main(["check", "--root", str(root), "--ignore", "ZZ999"]) == 0
        assert "matches no known rule" in capsys.readouterr().err

    def test_sarif_artifact_lists_all_rule_families(self, tmp_path, capsys):
        import json

        out = tmp_path / "check.sarif"
        assert main(["check", "--strict", "--format", "sarif",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        rule_ids = {entry["id"] for entry in run["tool"]["driver"]["rules"]}
        assert {"RC001", "OB001", "KC001", "KC008"} <= rule_ids
        assert run["results"] == []

    def test_sarif_results_carry_findings(self, tmp_path, capsys):
        import json

        root = self._dirty_root(tmp_path)
        out = tmp_path / "dirty.sarif"
        assert main(["check", "--root", str(root), "--format", "sarif",
                     "--out", str(out)]) == 1
        capsys.readouterr()
        payload = json.loads(out.read_text())
        results = payload["runs"][0]["results"]
        assert any(r["ruleId"] == "RC006" for r in results)
        assert all(r["level"] in ("error", "warning", "note") for r in results)


class TestLintSarif:
    def test_lint_emits_valid_sarif(self, capsys):
        import json

        assert main(["lint", "--query", "MKV", "--format", "sarif"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        assert payload["runs"][0]["tool"]["driver"]["name"] == "fabp-repro"


class TestProveKernel:
    def test_kernel_artifact(self, tmp_path, capsys):
        import json

        artifact = tmp_path / "kernel_proofs.json"
        code = main(["prove", "kernel", "--format", "json",
                     "--out", str(artifact)])
        assert code == 0
        capsys.readouterr()
        payload = json.loads(artifact.read_text())
        assert payload["schema"] == "fabp-kernel-proof/v1"
        assert payload["ok"] is True
        assert payload["lane_budget"]["fits"] is True
        assert set(payload["engines"]) == {
            "bitscore", "bitscore_batch", "vectorized", "naive",
        }
        assert payload["budget_fits_all_accumulators"] is True

    def test_kernel_self_test_refutes_mutations(self, capsys):
        assert main(["prove", "kernel", "--self-test"]) == 0
        out = capsys.readouterr().out
        assert "self-test: seeded overflow + undersized budget refuted" in out
        assert "verdict: kernel contracts hold" in out

    def test_kernel_text_names_every_engine(self, capsys):
        assert main(["prove", "kernel"]) == 0
        out = capsys.readouterr().out
        assert "lane budget: popcount(750)" in out
        for engine in ("bitscore", "bitscore_batch", "vectorized", "naive"):
            assert f"engine {engine}:" in out


class TestBench:
    def test_tiny_bench_writes_artifact(self, tmp_path, capsys):
        import json

        artifact = tmp_path / "BENCH_scoring.json"
        code = main(
            [
                "bench",
                "--residues", "10",
                "--reference-length", "20000",
                "--scan-references", "2",
                "--scan-reference-length", "10000",
                "--workers", "1",
                "--repeats", "1",
                "--out", str(artifact),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Score-engine benchmark" in out
        payload = json.loads(artifact.read_text())
        engines = {r["engine"] for r in payload["records"]}
        assert {"naive", "vectorized", "bitscore", "parallel-scan"} <= engines
        for record in payload["records"]:
            assert {"engine", "L_q", "L_r", "n_refs", "wall_s", "positions_per_s"} <= set(record)
        assert payload["speedups"]["bitscore_vs_naive"] > 0

    def test_min_speedup_gate_failure(self, capsys):
        # An impossible bar makes the gate trip: the bench still completed,
        # so per the exit-code contract this is degradation (3), not fatal (1).
        code = main(
            [
                "bench",
                "--residues", "8",
                "--reference-length", "8000",
                "--scan-references", "2",
                "--scan-reference-length", "4000",
                "--workers", "1",
                "--repeats", "1",
                "--out", "",
                "--min-speedup", "1e12",
            ]
        )
        assert code == 3
        assert "FAIL" in capsys.readouterr().out

    def test_quick_flag(self, tmp_path, capsys):
        artifact = tmp_path / "quick.json"
        code = main(["bench", "--quick", "--out", str(artifact), "--min-speedup", "5"])
        assert code == 0
        assert artifact.exists()
        assert "speedup gate" in capsys.readouterr().out


class TestScan:
    """The scan subcommand and its exit-code contract: 0/3/4/1."""

    def scan(self, db, queries, *extra):
        return main(
            [
                "scan",
                "--query-file", str(queries),
                "--database", str(db),
                "--min-identity", "0.9",
                "--workers", "1",
                "--chunk-size", "1",
                *extra,
            ]
        )

    def test_clean_scan_exits_zero(self, synthetic_files, capsys):
        db, queries = synthetic_files
        assert self.scan(db, queries) == 0
        out = capsys.readouterr().out
        assert "[clean]" in out
        assert "synthetic_ref_" in out

    def test_recovered_faults_still_exit_zero(self, synthetic_files, capsys):
        db, queries = synthetic_files
        code = self.scan(db, queries, "--inject-faults", "0:raise,1:corrupt")
        assert code == 0
        out = capsys.readouterr().out
        assert "[clean]" in out
        assert "retries=2" in out

    def test_degraded_scan_exits_three(self, synthetic_files, capsys):
        db, queries = synthetic_files
        code = self.scan(
            db, queries, "--inject-faults", "0:raise:always", "--retries", "1"
        )
        assert code == 3
        out = capsys.readouterr().out
        assert "DEGRADED" in out

    def test_no_degrade_makes_exhaustion_fatal(self, synthetic_files, capsys):
        db, queries = synthetic_files
        code = self.scan(
            db, queries,
            "--inject-faults", "0:raise:always",
            "--retries", "1",
            "--no-degrade",
        )
        assert code == 1
        assert "fatal:" in capsys.readouterr().err

    def test_missing_database_is_fatal(self, synthetic_files, capsys):
        _db, queries = synthetic_files
        code = self.scan("/no/such/file.fasta", queries)
        assert code == 1
        assert "fatal:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, field", [("--retries", "max_retries"), ("--max-respawns", "max_respawns")]
    )
    def test_negative_budget_is_fatal(self, synthetic_files, capsys, flag, field):
        db, queries = synthetic_files
        assert self.scan(db, queries, "--workers", "2", flag, "-1") == 1
        assert f"fatal: {field} must be >= 0" in capsys.readouterr().err

    def test_report_json_artifact(self, synthetic_files, tmp_path, capsys):
        import json

        db, queries = synthetic_files
        artifact = tmp_path / "report.json"
        code = self.scan(
            db, queries,
            "--inject-faults", "0:corrupt",
            "--report-json", str(artifact),
        )
        assert code == 0
        capsys.readouterr()
        payload = json.loads(artifact.read_text())
        assert payload["version"] == 1
        assert payload["degraded"] is False
        assert len(payload["queries"]) == 2
        report = payload["queries"][0]["report"]
        assert report["counters"]["corrupt"] == 1
        assert report["clean"] is True

    def test_session_matches_per_query_scans(self, synthetic_files, capsys):
        """--session: same hit table as the per-query path, one warm runtime."""
        db, queries = synthetic_files
        assert self.scan(db, queries) == 0
        plain = capsys.readouterr().out
        assert self.scan(db, queries, "--session") == 0
        warm = capsys.readouterr().out
        assert "session:" in warm
        assert "engine=bitscore_batch" in warm

        def hit_rows(out):
            return [
                line.split() for line in out.splitlines()
                if line.strip().startswith("query_")
                and "hits" not in line
            ]

        assert hit_rows(warm) == hit_rows(plain)

    def test_session_chaos_scan_keeps_fault_free_hits(self, synthetic_files, capsys):
        """--session takes --fault-rate: recovered faults leave the hits alone."""
        db, queries = synthetic_files
        assert self.scan(db, queries, "--session") == 0
        clean = capsys.readouterr().out
        # Seed 1 plans a crash on task 0 and a corrupt result on task 1.
        code = self.scan(
            db, queries, "--session", "--workers", "2",
            "--fault-rate", "0.5", "--fault-seed", "1",
            "--chunk-timeout", "5", "--fault-hang-seconds", "5",
        )
        assert code in (0, 3)
        chaos = capsys.readouterr().out
        assert "retries=0" not in chaos

        def hit_rows(out):
            return [
                line.split() for line in out.splitlines()
                if line.strip().startswith("query_") and "hits" not in line
            ]

        assert hit_rows(chaos) == hit_rows(clean)

    def test_checkpoint_then_resume(self, synthetic_files, tmp_path, capsys):
        db, queries = synthetic_files
        ckpt = tmp_path / "ckpt"
        assert self.scan(db, queries, "--checkpoint", str(ckpt)) == 0
        capsys.readouterr()
        # Resume under an always-crashing plan: only checkpointed chunks
        # can complete it cleanly, proving nothing was rescored.
        code = self.scan(
            db, queries,
            "--checkpoint", str(ckpt),
            "--resume",
            "--inject-faults", "0:crash:always,1:crash:always",
            "--retries", "0",
        )
        assert code == 0
        assert "2 from checkpoint" in capsys.readouterr().out

    def test_quarantined_records_are_reported(self, synthetic_files, capsys):
        import pathlib

        db, queries = synthetic_files
        dirty = pathlib.Path(str(db) + ".dirty.fasta")
        dirty.write_text(db.read_text() + ">\nACGT\n>trailing_empty\n")
        code = self.scan(dirty, queries)
        assert code == 0
        out = capsys.readouterr().out
        assert "quarantined 2 bad records" in out

    def test_on_bad_record_raise_is_fatal(self, synthetic_files, capsys):
        import pathlib

        db, queries = synthetic_files
        dirty = pathlib.Path(str(db) + ".dirty.fasta")
        dirty.write_text(db.read_text() + ">\nACGT\n")
        code = self.scan(dirty, queries, "--on-bad-record", "raise")
        assert code == 1
        assert "fatal:" in capsys.readouterr().err


class TestScanShards:
    """``--shards``: the supervised multi-shard path and its exit 4."""

    def scan(self, db, queries, *extra):
        return main(
            [
                "scan",
                "--query-file", str(queries),
                "--database", str(db),
                "--min-identity", "0.9",
                *extra,
            ]
        )

    def test_sharded_matches_plain_scan(self, synthetic_files, capsys):
        db, queries = synthetic_files
        assert self.scan(db, queries, "--workers", "1") == 0
        plain = capsys.readouterr().out
        assert self.scan(db, queries, "--shards", "2") == 0
        sharded = capsys.readouterr().out
        assert "(workers=2); 2 shards, task ids shard 0: 0, shard 1: 1" in sharded
        assert "mode=sharded" in sharded

        def hit_rows(out):
            return [
                line.split() for line in out.splitlines()
                if line.strip().startswith("query_") and "hits" not in line
            ]

        assert hit_rows(sharded) == hit_rows(plain)

    def test_dead_shard_exits_four(self, synthetic_files, tmp_path, capsys):
        import json

        db, queries = synthetic_files
        artifact = tmp_path / "report.json"
        code = self.scan(
            db, queries,
            "--shards", "2",
            "--inject-faults", "0:crash:always",
            "--retries", "1",
            "--report-json", str(artifact),
        )
        assert code == 4
        assert "DEAD SHARD 0" in capsys.readouterr().out
        payload = json.loads(artifact.read_text())
        assert payload["dead_shards"] is True
        shards = payload["queries"][0]["report"]["shards"]
        assert shards[0]["status"] == "dead"

    def test_shards_with_session_scan_one_batch(self, synthetic_files, capsys):
        db, queries = synthetic_files
        assert self.scan(db, queries, "--shards", "2") == 0
        alone = capsys.readouterr().out
        assert self.scan(db, queries, "--shards", "2", "--session") == 0
        assert capsys.readouterr().out == alone

    def test_shards_take_chunk_fault_plans(self, synthetic_files, capsys):
        db, queries = synthetic_files
        code = self.scan(
            db, queries, "--shards", "2", "--chunk-size", "1",
            "--inject-faults", "0:raise",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chunks of <= 1 references" in out
        assert "retries=1" in out


class TestObsCli:
    """--metrics-json/--trace-json and the obs summarize subcommand."""

    def scan(self, db, queries, *extra):
        return main(
            [
                "scan",
                "--query-file", str(queries),
                "--database", str(db),
                "--min-identity", "0.9",
                "--workers", "1",
                "--chunk-size", "1",
                *extra,
            ]
        )

    def test_scan_writes_metrics_and_trace(self, synthetic_files, tmp_path, capsys):
        import json

        from repro import obs

        db, queries = synthetic_files
        metrics = tmp_path / "metrics.json"
        trace = tmp_path / "trace.json"
        code = self.scan(
            db, queries, "--metrics-json", str(metrics), "--trace-json", str(trace)
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"wrote {metrics}" in out
        assert f"wrote {trace}" in out
        payload = json.loads(metrics.read_text())
        assert payload["schema"] == "fabp-metrics"
        names = {m["name"] for m in payload["metrics"]}
        assert "fabp_stage_seconds" in names
        doc = json.loads(trace.read_text())
        assert doc["otherData"]["generator"] == "repro.obs"
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        # The CLI run must leave the layer off for the rest of the process.
        assert not obs.enabled()

    def test_scan_without_flags_leaves_obs_off(self, synthetic_files, capsys):
        from repro import obs

        db, queries = synthetic_files
        obs.reset()
        assert self.scan(db, queries) == 0
        capsys.readouterr()
        assert not obs.enabled()
        assert obs.REGISTRY.families() == []

    def test_report_json_reports_are_schema_v3(self, synthetic_files, tmp_path, capsys):
        import json

        db, queries = synthetic_files
        artifact = tmp_path / "report.json"
        assert self.scan(db, queries, "--report-json", str(artifact)) == 0
        capsys.readouterr()
        payload = json.loads(artifact.read_text())
        report = payload["queries"][0]["report"]
        assert report["version"] == 3
        assert "execute" in report["metrics"]["stage_seconds"]
        assert report["shards"] == []  # single-shard scans carry no shard rows

    def test_bench_writes_metrics(self, tmp_path, capsys):
        import json

        metrics = tmp_path / "bench_metrics.json"
        code = main(
            [
                "bench",
                "--residues", "8",
                "--reference-length", "8000",
                "--scan-references", "2",
                "--scan-reference-length", "4000",
                "--workers", "1",
                "--repeats", "1",
                "--out", "",
                "--metrics-json", str(metrics),
            ]
        )
        assert code == 0
        capsys.readouterr()
        names = {m["name"] for m in json.loads(metrics.read_text())["metrics"]}
        assert "fabp_bench_positions_per_s" in names
        assert "fabp_score_seconds" in names

    def test_summarize_each_artifact_kind(self, synthetic_files, tmp_path, capsys):
        db, queries = synthetic_files
        metrics = tmp_path / "metrics.json"
        trace = tmp_path / "trace.json"
        report = tmp_path / "report.json"
        code = self.scan(
            db, queries,
            "--metrics-json", str(metrics),
            "--trace-json", str(trace),
            "--report-json", str(report),
        )
        assert code == 0
        capsys.readouterr()

        assert main(["obs", "summarize", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "metrics artifact" in out
        assert "Stage breakdown (fabp_stage_seconds)" in out

        assert main(["obs", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "trace artifact" in out
        assert "Span breakdown (traceEvents)" in out

        assert main(["obs", "summarize", str(report)]) == 0
        out = capsys.readouterr().out
        assert "scan-report artifact" in out
        assert "attempt:ok" in out

    def test_summarize_json_format(self, synthetic_files, tmp_path, capsys):
        import json

        db, queries = synthetic_files
        metrics = tmp_path / "metrics.json"
        assert self.scan(db, queries, "--metrics-json", str(metrics)) == 0
        capsys.readouterr()
        assert main(["obs", "summarize", str(metrics), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "metrics"
        assert payload["artifact"]["schema"] == "fabp-metrics"

    def test_summarize_missing_file_is_fatal(self, capsys):
        assert main(["obs", "summarize", "/no/such/artifact.json"]) == 1
        assert "fatal:" in capsys.readouterr().err

    def test_summarize_unknown_payload_is_fatal(self, tmp_path, capsys):
        alien = tmp_path / "alien.json"
        alien.write_text('{"hello": "world"}')
        assert main(["obs", "summarize", str(alien)]) == 1
        assert "fatal:" in capsys.readouterr().err

    def test_obs_requires_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["obs"])
        assert excinfo.value.code == 2


class TestServeContract:
    def test_database_is_required(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve"])
        assert excinfo.value.code == 2

    def test_unknown_engine_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["serve", "--database", "db.fasta", "--engine", "warp"]
            )
        assert excinfo.value.code == 2

    def test_missing_database_file_is_fatal(self, capsys):
        assert main(["serve", "--database", "/no/such/db.fasta"]) == 1
        assert "fatal:" in capsys.readouterr().err

    def test_defaults_follow_the_documented_contract(self):
        args = build_parser().parse_args(["serve", "--database", "db.fasta"])
        assert (args.host, args.port) == ("127.0.0.1", 8765)
        assert (args.max_queue, args.max_batch) == (64, 16)
        assert args.cache_entries == 256
        assert args.shards is None and args.engine is None

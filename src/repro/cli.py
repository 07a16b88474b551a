"""Command-line interface: ``python -m repro.cli <command>``.

Subcommands:

* ``encode``    — back-translate and encode protein queries (FASTA or inline)
* ``search``    — align queries against a reference database (FASTA)
* ``scan``      — fault-tolerant software scan of a FASTA database through
  the supervised runtime: retries/timeouts, checkpoint/resume,
  deterministic fault injection, machine-readable ``ScanReport``
* ``serve``     — front-door scan daemon over one resident warm runtime:
  HTTP job admission (``POST /scan``), batched passes, LRU result cache,
  Prometheus ``/metrics``, graceful SIGTERM drain (``docs/service.md``)
* ``generate``  — build a synthetic database with planted homologs
* ``table1``    — print the Table I resource model
* ``fig6``      — print the Fig. 6 performance/energy sweep
* ``crossover`` — print the §IV-B bandwidth/resource crossover sweep
* ``stats``     — null-score statistics and threshold suggestion for a query
* ``bench``     — score-engine benchmark (naive/vectorized/bitscore/parallel
  scan) writing the ``BENCH_scoring.json`` perf artifact
* ``lint``      — static lint of generated netlists and instruction streams
* ``prove``     — symbolic proofs: comparator/reference equivalence per
  amino acid, popcount score-range bounds, block equivalence
* ``obs``       — observability utilities: ``obs summarize`` renders the
  stage/engine breakdown of a ``--metrics-json``, ``--trace-json`` or
  ``--report-json`` artifact

``scan`` and ``bench`` accept ``--metrics-json PATH`` and ``--trace-json
PATH``: either flag turns the :mod:`repro.obs` layer on for the run and
writes the corresponding artifact (Prometheus-convention metrics as JSON;
Chrome ``trace_event`` JSON openable in ``about:tracing`` / Perfetto).

Exit codes: ``lint``/``prove`` follow the lint convention (0 clean, 1
findings/refutations, 2 usage error).  ``scan``, ``serve`` and ``bench``
follow the robustness contract documented in ``docs/robustness.md``:
0 = clean, 3 = completed **with degradation** (the report says how),
4 = completed **with dead shards** (``--shards`` only: some shard
exhausted its health budget and its references are missing from the
results), 1 = fatal, 2 = usage error (argparse).  ``serve`` applies the
same scheme to its whole run — the worst outcome of any job it served —
and maps it onto HTTP statuses per ``docs/service.md``.  Everything is
deterministic given ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.accel.device import KINTEX7, LARGE_FPGA, FpgaDevice

DEVICES = {"kintex7": KINTEX7, "large": LARGE_FPGA}


def _device(name: str) -> FpgaDevice:
    return DEVICES[name]


def _load_queries(args) -> List:
    """The queries of ``--query``/``--query-file``; bad letters exit 2."""
    from repro.seq import fasta
    from repro.seq.sequence import ProteinSequence, SequenceError

    try:
        if args.query_file:
            return fasta.read_proteins(args.query_file)
        if args.query:
            return [
                ProteinSequence(q, name=f"query_{i}") for i, q in enumerate(args.query)
            ]
    except SequenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    raise SystemExit("provide --query SEQ... or --query-file FASTA")


def cmd_encode(args) -> int:
    from repro.core import pattern_string
    from repro.core.encoding import encode_query, instruction_bit_string

    for query in _load_queries(args):
        encoded = encode_query(query)
        print(f">{query.name or 'query'}  ({len(query)} aa, "
              f"{encoded.storage_bits()} bits)")
        print(f"  pattern: {pattern_string(query)}")
        if args.bits:
            bits = " ".join(instruction_bit_string(i) for i in encoded.instructions)
            print(f"  instructions: {bits}")
        else:
            hex_str = "".join(f"{i:02x}" for i in encoded.instructions)
            print(f"  instructions (hex bytes): {hex_str}")
    return 0


def cmd_search(args) -> int:
    from repro.analysis.report import text_table
    from repro.host.session import FabPHost
    from repro.seq import fasta

    host = FabPHost(_device(args.device))
    count = host.load_fasta(args.database)
    print(f"database: {count} references, {host.database_nucleotides:,} nt "
          f"({host.database_bytes:,} packed bytes) on {host.device.name}")
    reference_texts = None
    if args.rescore:
        reference_texts = {
            header: sequence for header, sequence in fasta.read_fasta(args.database)
        }
    rows = []
    for query in _load_queries(args):
        result = host.search(
            query,
            min_identity=args.min_identity,
            both_strands=args.both_strands,
        )
        if args.rescore:
            from repro.host.rescore import rescore_search_result

            report = rescore_search_result(
                result, reference_texts, max_evalue=args.max_evalue
            )
            for rescored in report.hits[: args.max_hits]:
                rows.append(
                    [
                        query.name or "query",
                        rescored.hit.reference,
                        rescored.hit.position,
                        rescored.hit.strand,
                        rescored.alignment.score,
                        f"{rescored.evalue:.2g}",
                    ]
                )
            print(
                f"{query.name}: {len(result.hits)} raw hits -> "
                f"{len(report.hits)} verified (E <= {args.max_evalue})"
            )
            continue
        shown = result.hits[: args.max_hits]
        for hit in shown:
            rows.append(
                [
                    query.name or "query",
                    hit.reference,
                    hit.position,
                    hit.strand,
                    hit.score,
                    f"{hit.score / len(result.query):.0%}",
                ]
            )
        if not shown:
            rows.append([query.name or "query", "-", "-", "-", "-", "-"])
        print(
            f"{query.name}: {len(result.hits)} hits >= {result.threshold}, "
            f"{result.total_seconds * 1e3:.2f} ms modeled "
            f"({result.kernel_seconds * 1e3:.2f} ms kernel)"
        )
    print()
    last_column = "E-value" if args.rescore else "identity"
    print(
        text_table(
            ["query", "reference", "position", "strand", "score", last_column], rows
        )
    )
    return 0


def _obs_begin(args) -> bool:
    """Enable observability when the command asked for an artifact."""
    if not (getattr(args, "metrics_json", None) or getattr(args, "trace_json", None)):
        return False
    from repro import obs

    obs.reset()
    obs.enable()
    return True


def _obs_finish(args, active: bool) -> None:
    """Write the requested artifacts and switch observability back off."""
    if not active:
        return
    from repro import obs

    try:
        if args.metrics_json:
            print(f"wrote {obs.write_metrics_json(args.metrics_json)}")
        if args.trace_json:
            print(f"wrote {obs.write_trace_json(args.trace_json)}")
    finally:
        obs.disable()


def _id_range(ids: Sequence[int]) -> str:
    """``"3-5"`` for a contiguous id list, ``"-"`` for none."""
    if not ids:
        return "-"
    return str(ids[0]) if len(ids) == 1 else f"{ids[0]}-{ids[-1]}"


def cmd_scan(args) -> int:
    """Supervised scan; exit 0 clean / 3 degraded / 4 dead shards / 1 fatal."""
    import json
    import pathlib

    from repro.analysis.report import text_table
    from repro.core.contracts import check_query_elements
    from repro.core.encoding import encode_query
    from repro.host.errors import ScanError
    from repro.host.faults import FaultPlan
    from repro.host.resilience import RetryPolicy
    from repro.host.scan import SESSION_ENGINE, PackedDatabase
    from repro.host.scan_session import ScanSession
    from repro.seq import fasta

    on_error = None if args.on_bad_record == "ignore" else args.on_bad_record
    queries = _load_queries(args)
    encoded = [encode_query(query) for query in queries]
    for query, elements in zip(queries, encoded):
        try:
            check_query_elements(len(elements))
        except ValueError as exc:
            print(f"error: {query.name or 'query'}: {exc}", file=sys.stderr)
            return 2
    obs_active = _obs_begin(args)
    payload: Dict[str, object] = {"version": 2, "queries": []}
    rows: List[list] = []
    session = None
    try:
        if args.chunk_timeout < 0:
            raise ValueError("--chunk-timeout must be >= 0")
        skipped: List[fasta.SkippedRecord] = []
        references = fasta.read_rna(args.database, on_error=on_error, skipped=skipped)
        database = PackedDatabase.from_references(references)
        # Every query runs in one batch on this session; with --shards it
        # is sharded, with one worker thread per shard.
        session = ScanSession(database, workers=args.workers, shards=args.shards)
        shard_specs = session.shard_specs
        num_workers = session.num_workers
        # The batch's own plan: fault plans and checkpoints are keyed on
        # its task ids.
        tasks = session.plan_tasks(encoded, chunk_size=args.chunk_size)
        granule = (
            f"chunks of <= {args.chunk_size} references"
            if args.chunk_size
            else "position-balanced tasks"
        )
        owners = ""
        if shard_specs is not None:
            owned: Dict[int, List[int]] = {}
            for task_id, task in enumerate(tasks):
                owned.setdefault(task.shard, []).append(task_id)
            owners = f"; {len(shard_specs)} shards, task ids " + ", ".join(
                f"shard {spec.shard}: {_id_range(owned.get(spec.shard, []))}"
                for spec in shard_specs
            )
        print(
            f"database: {database.num_references} references, "
            f"{database.total_nucleotides:,} nt in {len(tasks)} {granule} "
            f"(workers={num_workers}){owners}"
        )
        if skipped:
            print(f"quarantined {len(skipped)} bad records:")
            for record in skipped[:10]:
                print(f"  - {record}")
            payload["skipped_records"] = [
                {"header": s.header, "reason": s.reason, "line": s.line}
                for s in skipped
            ]

        policy = RetryPolicy(
            max_retries=args.retries,
            timeout=args.chunk_timeout or None,
            max_respawns=args.max_respawns,
            degrade=not args.no_degrade,
        )
        plan = None
        if args.inject_faults:
            plan = FaultPlan.parse(
                args.inject_faults, hang_seconds=args.fault_hang_seconds
            )
        elif args.fault_rate > 0:
            plan = FaultPlan.from_seed(
                args.fault_seed,
                len(tasks),
                rate=args.fault_rate,
                max_attempts=args.fault_attempts,
                hang_seconds=args.fault_hang_seconds,
            )

        print(
            f"session: {session.resident_bytes:,} resident bytes, "
            f"{num_workers} workers, engine={SESSION_ENGINE}"
        )
        # One warm runtime for the whole query stream: queries share
        # passes, and one batch report covers every query.  With --shards
        # the tasks carry shard labels; a shard whose task exhausts its
        # budget is dead and its references missing.
        batches, report = session.scan_batch(
            encoded,
            threshold=args.threshold,
            min_identity=None if args.threshold is not None else args.min_identity,
            chunk_size=args.chunk_size,
            policy=policy,
            faults=plan,
            checkpoint_dir=pathlib.Path(args.checkpoint) if args.checkpoint else None,
            resume=args.resume,
            with_report=True,
        )
        print(f"batch of {len(queries)} queries: {report.summary()}")
        payload["report"] = report.to_dict()
        for index, (query, results) in enumerate(zip(queries, batches)):
            hits = sorted(
                (
                    (result.reference_name, hit.position, hit.score)
                    for result in results
                    for hit in result.hits
                ),
                key=lambda item: (-item[2], item[0], item[1]),
            )
            for reference, position, score in hits[: args.max_hits]:
                rows.append([query.name or "query", reference, position, score])
            print(f"{query.name or 'query'}: {len(hits)} hits")
            payload["queries"].append(  # type: ignore[union-attr]
                {"query": query.name or f"query_{index}", "num_hits": len(hits)}
            )
        if report.degraded:
            print(f"  DEGRADED: {report.degraded_reason}")
        for shard in report.shards:
            if shard.status == "dead":
                print(
                    f"  DEAD SHARD {shard.shard} "
                    f"(references {shard.start}..{shard.stop}): "
                    f"{shard.detail}"
                )
    except (ScanError, fasta.FastaError, OSError, ValueError) as exc:
        print(f"fatal: {exc}", file=sys.stderr)
        _obs_finish(args, obs_active)
        return 1
    finally:
        if session is not None:
            session.close()
    if rows:
        print()
        print(text_table(["query", "reference", "position", "score"], rows))
    payload["degraded"] = report.degraded
    payload["dead_shards"] = report.dead_shards > 0
    if args.report_json:
        path = pathlib.Path(args.report_json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {path}")
    _obs_finish(args, obs_active)
    return report.exit_code()


def cmd_serve(args) -> int:
    """Front-door daemon; exits with the worst job outcome after drain."""
    import pathlib

    from repro import obs
    from repro.host.errors import ScanError
    from repro.host.scan import SESSION_ENGINE, PackedDatabase
    from repro.seq import fasta
    from repro.service import ScanServer, ScanService

    on_error = None if args.on_bad_record == "ignore" else args.on_bad_record
    service = None
    try:
        skipped: List[fasta.SkippedRecord] = []
        references = fasta.read_rna(
            args.database, on_error=on_error, skipped=skipped
        )
        database = PackedDatabase.from_references(references)
        if skipped:
            print(f"quarantined {len(skipped)} bad records")
        if not args.no_obs:
            # The daemon keeps the registry live for /metrics scrapes.
            obs.reset()
            obs.enable()
        service = ScanService(
            database,
            workers=args.workers,
            shards=args.shards,
            max_queue=args.max_queue,
            max_batch=args.max_batch,
            cache_entries=args.cache_entries,
            checkpoint_dir=args.checkpoint,
        )
        server = ScanServer(
            service, host=args.host, port=args.port, verbose=args.verbose
        )
    except (ScanError, fasta.FastaError, OSError, OverflowError, ValueError) as exc:
        # OverflowError: bind() refuses a port outside 0-65535.
        print(f"fatal: {exc}", file=sys.stderr)
        if service is not None:
            service.close(drain=False)
        if not args.no_obs:
            obs.disable()
        return 1
    host, port = server.address
    backend = (
        f"shards={args.shards}" if args.shards is not None
        else f"workers={service.stats()['backend']['workers']}"
    )
    print(
        f"serving http://{host}:{port} — {database.num_references} references, "
        f"{database.total_nucleotides:,} nt resident "
        f"(engine={SESSION_ENGINE}, {backend}, "
        f"cache={args.cache_entries} entries, queue<={args.max_queue})"
    )
    print(
        "endpoints: POST /scan | GET /jobs/<id> /results/<id> "
        "/healthz /metrics — SIGTERM drains gracefully"
    )
    if args.ready_file:
        # Test/CI rendezvous: the resolved address, written once listening.
        ready = pathlib.Path(args.ready_file)
        ready.parent.mkdir(parents=True, exist_ok=True)
        ready.write_text(f"{host} {port}\n")
    server.install_signal_handlers()
    server.serve_forever()
    stats = service.stats()
    cache = stats["cache"]
    print(
        f"drained: {stats['jobs']['done']} done, "
        f"{stats['jobs']['failed']} failed, "
        f"{stats['batches_dispatched']} batches, "
        f"cache hit ratio {cache['hit_ratio']:.0%}"
    )
    if args.metrics_json:
        print(f"wrote {obs.write_metrics_json(args.metrics_json)}")
    if not args.no_obs:
        obs.disable()
    return service.exit_code()


def cmd_generate(args) -> int:
    from repro.seq import fasta
    from repro.workloads.builder import build_database, sample_queries

    rng = np.random.default_rng(args.seed)
    queries = sample_queries(args.queries, length=args.length, rng=rng)
    database = build_database(
        queries,
        num_references=args.references,
        reference_length=args.reference_length,
        substitution_rate=args.substitution_rate,
        indel_events=args.indels,
        codon_usage=args.codon_usage,
        rng=rng,
    )
    fasta.write_fasta(
        args.out_db, [(r.name, r.letters) for r in database.references]
    )
    fasta.write_fasta(args.out_queries, [(q.name, q.letters) for q in queries])
    print(f"wrote {args.references} references -> {args.out_db}")
    print(f"wrote {args.queries} queries -> {args.out_queries}")
    for planting in database.planted:
        print(
            f"  planted {planting.query.name} in ref {planting.reference_index} "
            f"@ {planting.position} (subs={planting.substitutions}, "
            f"indels={planting.indels})"
        )
    return 0


def cmd_table1(args) -> int:
    from repro.accel.resources import table1
    from repro.analysis.report import text_table

    rows = []
    for length, report in table1(_device(args.device)).items():
        row = report.row()
        rows.append([f"FabP-{length}", report.plan.segments] + list(row.values()))
    print(
        text_table(
            ["design", "cycles/beat", "LUT", "FF", "BRAM", "DSP", "DRAM BW"],
            rows,
            title=f"Table I model on {_device(args.device).name}",
        )
    )
    return 0


def cmd_fig6(args) -> int:
    from repro.perf.figures import figure6

    fig = figure6(device=_device(args.device))
    print(fig.table("speedup"))
    print()
    print(fig.table("energy"))
    print()
    for key, value in fig.headline().items():
        print(f"{key}: {value:.2f}")
    return 0


def cmd_crossover(args) -> int:
    from repro.accel.scheduler import max_unsegmented_elements, plan_schedule
    from repro.analysis.report import text_table

    device = _device(args.device)
    rows = []
    for residues in (25, 50, 75, 100, 150, 200, 250):
        plan = plan_schedule(3 * residues, device)
        rows.append(
            [
                residues,
                plan.segments,
                "BW" if plan.bandwidth_bound else "LUTs",
                f"{plan.lut_utilization:.0%}",
            ]
        )
    crossover = max_unsegmented_elements(device) // 3
    print(
        text_table(
            ["query(aa)", "cycles/beat", "bound", "LUT util"],
            rows,
            title=f"{device.name}: crossover at {crossover} aa",
        )
    )
    return 0


def cmd_stats(args) -> int:
    from repro.analysis.statistics import null_score_model

    for query in _load_queries(args):
        model = null_score_model(query)
        elements = len(model.query)
        print(f">{query.name or 'query'} ({len(query)} aa, {elements} elements)")
        print(f"  null score: mean {model.mean:.2f}, sd {model.variance ** 0.5:.2f}")
        for identity in (0.7, 0.8, 0.9):
            threshold = int(np.ceil(identity * elements))
            expected = model.expected_hits(threshold, args.reference_length)
            print(
                f"  identity >= {identity:.0%} (threshold {threshold}): "
                f"{expected:.3g} expected random hits / {args.reference_length:,} nt"
            )
        suggested = model.threshold_for_fpr(args.target_fpr, args.reference_length)
        print(
            f"  suggested threshold for <= {args.target_fpr} random hits: "
            f"{suggested} ({suggested / elements:.0%} identity)"
        )
    return 0


def cmd_export_rtl(args) -> int:
    import pathlib

    from repro.accel.rtl_kernel import build_alignment_array
    from repro.rtl.timing import analyze
    from repro.rtl.verilog import write_verilog

    queries = _load_queries(args)
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for query in queries:
        array = build_alignment_array(
            query, instances=args.instances, threshold=args.threshold,
            loadable=args.loadable,
        )
        name = (query.name or "query").replace(" ", "_")
        path = out_dir / f"fabp_{name}.v"
        lines = write_verilog(array.netlist, path, f"fabp_{name}")
        report = analyze(array.netlist)
        stats = array.netlist.stats()
        print(
            f"{path}: {lines} lines, {stats['luts']} LUTs, {stats['ffs']} FFs, "
            f"fmax ~{report.fmax_mhz:.0f} MHz"
        )
    return 0


def cmd_compose(args) -> int:
    from repro.analysis.composition import (
        format_composition_table,
        query_composition,
    )

    print(format_composition_table())
    for query in _load_queries(args) if (args.query or args.query_file) else []:
        composition = query_composition(query)
        print(
            f"\n>{query.name or 'query'}: {composition.residues} aa, "
            f"{composition.total_information_bits:.0f} bits, expected null "
            f"{composition.expected_null_score:.1f}/{composition.max_score}"
        )
    return 0


def cmd_plan(args) -> int:
    from repro.analysis.planner import (
        WorkloadMix,
        compare_deployments,
        format_deployment_table,
    )

    counts = {}
    for spec in args.queries:
        try:
            length, count = spec.lower().split("x")
            counts[int(length)] = counts.get(int(length), 0) + int(count)
        except ValueError:
            raise SystemExit(f"bad query spec {spec!r}; expected LENxCOUNT like 50x60")
    mix = WorkloadMix(args.database_nt, counts)
    plans = compare_deployments(
        mix,
        device=_device(args.device),
        boards=args.boards,
        share_fabric=not args.no_share,
    )
    print(format_deployment_table(plans))
    fabp, gpu, cpu12 = plans[0], plans[1], plans[2]
    print(
        f"\nFabP vs GPU: {gpu.batch_seconds / fabp.batch_seconds:.2f}x faster, "
        f"{gpu.joules_per_query / fabp.joules_per_query:.1f}x less energy/query"
    )
    print(
        f"FabP vs TBLASTN-12: {cpu12.batch_seconds / fabp.batch_seconds:.1f}x faster, "
        f"{cpu12.joules_per_query / fabp.joules_per_query:.1f}x less energy/query"
    )
    return 0


def cmd_bench(args) -> int:
    from repro.perf.scorebench import (
        format_report,
        quick_batch_benchmark,
        quick_benchmark,
        run_batch_benchmark,
        run_score_benchmark,
    )

    obs_active = _obs_begin(args)
    try:
        if args.quick:
            report = quick_benchmark(seed=args.seed)
        else:
            report = run_score_benchmark(
                residues=args.residues,
                reference_length=args.reference_length,
                scan_references=args.scan_references,
                scan_reference_length=args.scan_reference_length,
                workers_sweep=tuple(args.workers),
                repeats=args.repeats,
                seed=args.seed,
            )
        if args.batch:
            if args.quick:
                batch_report = quick_batch_benchmark(seed=args.seed)
            else:
                batch_report = run_batch_benchmark(
                    residues=args.residues,
                    reference_length=args.reference_length,
                    repeats=args.repeats,
                    seed=args.seed,
                )
            # One merged artifact: the batch/session rows and speedups ride
            # in the same schema as the engine sweep.
            report.records.extend(batch_report.records)
            report.speedups.update(batch_report.speedups)
            report.meta["batch"] = batch_report.meta
    finally:
        _obs_finish(args, obs_active)
    print(format_report(report))
    if args.out:
        path = report.write(args.out)
        print(f"\nwrote {path}")
    if args.min_speedup > 0:
        achieved = report.speedups.get("bitscore_vs_naive", 0.0)
        if achieved < args.min_speedup:
            # Exit-code contract (docs/robustness.md): the benchmark ran to
            # completion but below the bar — completed-with-degradation (3),
            # reserving 1 for fatal errors.
            print(
                f"FAIL: bitscore is {achieved:.2f}x the naive path, "
                f"required >= {args.min_speedup:.2f}x"
            )
            return 3
        print(
            f"bitscore speedup gate: {achieved:.1f}x >= "
            f"{args.min_speedup:.1f}x required"
        )
    if args.min_batch_amortization > 0:
        achieved = report.speedups.get("batch_amortization_k8", 0.0)
        if achieved < args.min_batch_amortization:
            print(
                f"FAIL: batched bitscore amortizes {achieved:.2f}x at k=8, "
                f"required >= {args.min_batch_amortization:.2f}x "
                f"(run with --batch to produce the records)"
            )
            return 3
        print(
            f"batch amortization gate: {achieved:.1f}x >= "
            f"{args.min_batch_amortization:.1f}x required at k=8"
        )
    return 0


def _emit_reports(reports, args, *, extra=None, sarif_rules=None) -> None:
    """Serialize reports per ``--format`` and write to ``--out`` or stdout.

    The one serializer stack (text/json/sarif over the shared Finding
    model) serves both ``lint`` and ``check`` — SARIF is what GitHub code
    scanning ingests.
    """
    from repro.lint import render_json, render_sarif, render_text

    if args.format == "json":
        text = render_json(reports, extra=extra)
    elif args.format == "sarif":
        text = render_sarif(reports, rules=sarif_rules)
    else:
        text = render_text(reports)
    _write_or_print(text, args.out)


def _write_or_print(text: str, out: Optional[str]) -> None:
    if out:
        import pathlib

        path = pathlib.Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n")
        print(f"wrote {path}")
    else:
        print(text)


def cmd_lint(args) -> int:
    from repro.core.encoding import encode_query
    from repro.core.instr_lint import lint_query
    from repro.rtl.lint import demo_designs, lint_netlist
    from repro.rtl.timing import analyze
    from repro.seq.sequence import ProteinSequence

    ignore = [r for spec in args.ignore for r in spec.split(",") if r]
    reports = []
    resources = {}
    timing = {}
    for name, netlist in demo_designs():
        reports.append(lint_netlist(netlist, ignore=ignore, symbolic=args.symbolic))
        resources[name] = netlist.stats()
        timing[name] = analyze(
            netlist, exclude_false_paths=args.symbolic
        ).to_dict()
    if args.query or args.query_file:
        queries = _load_queries(args)
    else:
        # Default: the full amino-acid alphabet exercises every opcode.
        queries = [ProteinSequence("ACDEFGHIKLMNPQRSTVWY", name="alphabet")]
    for query in queries:
        reports.append(lint_query(encode_query(query), ignore=ignore))

    _emit_reports(
        reports, args, extra={"resources": resources, "timing": timing}
    )

    failed = any(not r.ok for r in reports)
    if args.strict:
        failed = failed or any(r.warnings for r in reports)
    return 1 if failed else 0


def cmd_check(args) -> int:
    """Static analysis (RC/OB/KC rules) over the repo's own source.

    Same exit-code contract as ``lint``: 0 clean, 1 findings (errors, or
    warnings under ``--strict``), 2 usage error.  ``--ignore`` accepts
    exact ids, same-family ranges (``RC001-RC004``) and globs (``KC00*``)
    — the same selector grammar line pragmas use.
    """
    from repro.lint import rule_pattern_matches
    from repro.statics import STATIC_RULES, rule_catalogue, run_statics

    ignore = [r for spec in args.ignore for r in spec.split(",") if r]
    known_ids = STATIC_RULES.ids()
    for pattern in ignore:
        if not any(rule_pattern_matches(pattern, rid) for rid in known_ids):
            print(
                f"check: --ignore pattern {pattern!r} matches no known rule",
                file=sys.stderr,
            )
    try:
        reports = run_statics(args.root, ignore=ignore)
    except OSError as error:
        print(f"check: cannot analyze {args.root}: {error}", file=sys.stderr)
        return 2
    if not reports:
        print(f"check: no Python modules under {args.root}", file=sys.stderr)
        return 2

    catalogue = rule_catalogue()
    _emit_reports(reports, args, extra={"rules": catalogue}, sarif_rules=catalogue)

    failed = any(not r.ok for r in reports)
    if args.strict:
        failed = failed or any(r.warnings for r in reports)
    return 1 if failed else 0


def _prove_popcounter(width: int, style: str):
    from repro.rtl.netlist import Netlist
    from repro.rtl.popcount import add_pop36, add_tree_adder_popcount

    netlist = Netlist(f"pc_{style}_{width}")
    bits = netlist.add_input_bus("bits", width)
    if style == "fabp":
        out = add_pop36(netlist, bits)[: max(1, width.bit_length())]
    else:
        out = add_tree_adder_popcount(netlist, bits)
    netlist.set_output_bus("score", out)
    return netlist


def _prove_self_test() -> Dict[str, object]:
    """Refute two seeded single-bit mutations; both must yield witnesses."""
    import dataclasses

    from repro.core.absint import check_comparator_netlist
    from repro.rtl.comparator import build_instance_comparator
    from repro.rtl.equivalence import check_equivalence

    # One flipped INIT bit in element 1's comparison LUT.
    mutated = build_instance_comparator(3)
    lut = mutated.luts[2]
    mutated.luts[2] = dataclasses.replace(lut, init=lut.init ^ (1 << 7))
    divergences = check_comparator_netlist(mutated, 3)
    comparator_refuted = len(divergences) == 1 and divergences[0].element == 1

    # One flipped INIT bit in the first popcount LUT of an 18-bit block.
    broken = _prove_popcounter(18, "fabp")
    lut = broken.luts[0]
    broken.luts[0] = dataclasses.replace(lut, init=lut.init ^ 1)
    result = check_equivalence(_prove_popcounter(18, "tree"), broken, mode="symbolic")
    popcount_refuted = result.proven and not result.equivalent

    return {
        "ok": comparator_refuted and popcount_refuted,
        "comparator_mutation": {
            "refuted": comparator_refuted,
            "counterexamples": [d.to_dict() for d in divergences],
        },
        "popcount_mutation": {
            "refuted": popcount_refuted,
            "result": result.to_dict(),
        },
    }


def _cmd_prove_kernel(args) -> int:
    """``fabp-repro prove kernel``: lane budgets + dtype envelopes as one artifact."""
    import json

    from repro.statics import prove_kernels

    payload = prove_kernels(self_test=args.self_test)
    lines: List[str] = []

    budget = payload["lane_budget"]
    status = "exact" if budget["exact"] else ("bound" if budget["proven"] else "FAILED")
    lines.append(
        f"lane budget: popcount({payload['max_query_elements']}) needs "
        f"{budget['needed_bits']} bits of the {budget['out_bits']}-bit count "
        f"word [{status}] — {'fits' if budget['fits'] else 'DOES NOT FIT'}"
    )
    flow = payload["dtype_flow"]
    for name, bits in sorted(payload["accumulator_value_bits"].items()):
        report = flow[name]
        if not report["analyzed"]:
            verdict = "NOT ANALYZED"
        elif report["clean"]:
            returns = ", ".join(report["returns"]) or "—"
            verdict = f"dtype flow clean (returns {returns})"
        else:
            verdict = f"{len(report['events'])} dtype-flow event(s)"
        lines.append(f"engine {name}: {bits} accumulator value bits; {verdict}")
        for event in report["events"]:
            lines.append(f"  {event['kind']} at line {event['line']}: {event['message']}")
    if args.self_test:
        self_test = payload["self_test"]
        lines.append(
            "self-test: seeded overflow + undersized budget "
            + ("refuted" if self_test["ok"] else "NOT refuted")
        )
    ok = bool(payload["ok"])
    lines.append(f"verdict: {'kernel contracts hold' if ok else 'REFUTED'}")

    text = json.dumps(payload, indent=2) if args.format == "json" else "\n".join(lines)
    _write_or_print(text, args.out)
    if args.out and args.format != "json":
        print("\n".join(lines))
    return 0 if ok else 1


def cmd_prove(args) -> int:
    if args.target == "kernel":
        return _cmd_prove_kernel(args)

    import json

    from repro.core.absint import verify_all_amino_acids
    from repro.rtl.equivalence import check_equivalence
    from repro.rtl.popcount import build_popcounter
    from repro.rtl.ranges import prove_count_range

    payload: Dict[str, object] = {}
    lines: List[str] = []
    ok = True

    # 1. Cross-layer: every amino acid's generated comparator == the §III-B
    #    reference semantics, exact over all 2^11 combinations per element.
    reports = verify_all_amino_acids()
    payload["comparators"] = {aa: r.to_dict() for aa, r in reports.items()}
    failed = sorted(aa for aa, report in reports.items() if not report.ok)
    ok = ok and not failed
    if failed:
        lines.append(f"comparators: FAILED for {', '.join(failed)}")
        for aa in failed:
            for divergence in reports[aa].divergences:
                lines.append(f"  {aa}: {divergence.describe()}")
            for mismatch in reports[aa].codon_mismatches:
                lines.append(f"  {aa}: {mismatch}")
    else:
        lines.append(
            f"comparators: {len(reports)} amino acids verified against the "
            "reference semantics (symbolic, no vectors)"
        )

    # 2. Word-level score-range proofs at the Table I design points.
    ranges: List[Dict[str, object]] = []
    for width in args.widths:
        proof = prove_count_range(build_popcounter(width, style="fabp").netlist)
        ranges.append(proof.to_dict())
        ok = ok and proof.width_ok
        status = "exact" if proof.exact else ("bound" if proof.proven else "FAILED")
        lines.append(
            f"range: fabp_{width} score in [{proof.min_value}, "
            f"{proof.max_value}] fits {proof.out_width} bits [{status}]"
            + ("" if proof.width_ok else f" — {proof.reason}")
        )
    payload["ranges"] = ranges

    # 3. Symbolic block equivalence: hand-optimized Pop36 compressor vs the
    #    naive tree adder, proven per output cone at a tractable width.
    result = check_equivalence(
        _prove_popcounter(args.equivalence_width, "fabp"),
        _prove_popcounter(args.equivalence_width, "tree"),
        mode="symbolic",
    )
    payload["equivalence"] = result.to_dict()
    ok = ok and result.equivalent
    lines.append(
        f"equivalence: fabp vs tree popcount at {args.equivalence_width} bits "
        + ("proven equivalent (symbolic)" if result else f"REFUTED: {result.counterexample}")
    )

    # 4. Optional negative control: seeded mutations must be refuted.
    if args.self_test:
        self_test = _prove_self_test()
        payload["self_test"] = self_test
        ok = ok and bool(self_test["ok"])
        lines.append(
            "self-test: seeded single-bit mutations "
            + ("refuted with counterexamples" if self_test["ok"] else "NOT refuted")
        )

    payload["ok"] = ok
    lines.append(f"verdict: {'all proofs hold' if ok else 'REFUTED'}")

    text = json.dumps(payload, indent=2) if args.format == "json" else "\n".join(lines)
    _write_or_print(text, args.out)
    if args.out and args.format != "json":
        print("\n".join(lines))
    return 0 if ok else 1


def cmd_obs_summarize(args) -> int:
    """Render the stage breakdown of an observability artifact."""
    import json

    from repro import obs

    try:
        kind, payload = obs.load_artifact(args.artifact)
    except (OSError, ValueError) as exc:
        print(f"fatal: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        if kind == "scan-report":
            payload = obs.normalize_scan_artifact(payload)
        print(json.dumps({"kind": kind, "artifact": payload}, indent=2))
        return 0
    print(f"{args.artifact}: {kind} artifact")
    print()
    print(obs.summarize(args.artifact, kind))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="FabP reproduction command-line interface"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_query_args(p):
        p.add_argument("--query", nargs="*", help="inline protein sequence(s)")
        p.add_argument("--query-file", help="protein FASTA file")

    def add_obs_args(p):
        p.add_argument("--metrics-json", metavar="PATH",
                       help="enable observability and write the metrics "
                       "registry here as JSON")
        p.add_argument("--trace-json", metavar="PATH",
                       help="enable observability and write the span "
                       "timeline here as Chrome trace JSON "
                       "(about:tracing / Perfetto)")

    p = sub.add_parser("encode", help="back-translate and encode queries")
    add_query_args(p)
    p.add_argument("--bits", action="store_true", help="print raw bit strings")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("search", help="search queries against a FASTA database")
    add_query_args(p)
    p.add_argument("--database", required=True, help="nucleotide FASTA (.gz ok)")
    p.add_argument("--min-identity", type=float, default=0.9)
    p.add_argument("--max-hits", type=int, default=20)
    p.add_argument("--both-strands", action="store_true",
                   help="also search the reverse complement")
    p.add_argument("--rescore", action="store_true",
                   help="verify hits with gapped SW and rank by E-value")
    p.add_argument("--max-evalue", type=float, default=1e-3)
    p.add_argument("--device", choices=sorted(DEVICES), default="kintex7")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser(
        "scan",
        help="fault-tolerant software scan of a FASTA database "
        "(supervised runtime; exit 0 clean, 3 degraded, 4 dead shards, "
        "1 fatal)",
    )
    add_query_args(p)
    p.add_argument("--database", required=True, help="nucleotide FASTA (.gz ok)")
    p.add_argument("--min-identity", type=float, default=0.9)
    p.add_argument("--threshold", type=int, default=None,
                   help="absolute score threshold (overrides --min-identity)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker threads (default: one per CPU; 1 = serial)")
    p.add_argument("--shards", type=int, default=None, metavar="N",
                   help="scan through one ScanSession whose database is "
                   "partitioned into N contiguous shards, as one batch on N "
                   "workers (--workers is ignored); a shard with a task "
                   "that exhausts its retries is dead and its references "
                   "are missing (exit 4)")
    p.add_argument("--chunk-size", type=int, default=None,
                   help="references per task, the retry/checkpoint/fault "
                   "granule (default: position-balanced windows)")
    p.add_argument("--max-hits", type=int, default=10)
    p.add_argument("--retries", type=int, default=3,
                   help="extra attempts per task after the first failure")
    p.add_argument("--chunk-timeout", type=float, default=300.0,
                   help="per-task attempt timeout in seconds (0 disables)")
    p.add_argument("--max-respawns", type=int, default=8,
                   help="lost workers (crashed or timed-out attempts) "
                   "tolerated before the scan is declared unhealthy")
    p.add_argument("--no-degrade", action="store_true",
                   help="raise instead of finishing in-process (or, with "
                   "--shards, reporting the shard dead) when the workers "
                   "are unhealthy or a task exhausts its retries")
    p.add_argument("--checkpoint", metavar="DIR",
                   help="persist completed tasks here (manifest + one .npz "
                   "per task) so a killed scan can --resume")
    p.add_argument("--resume", action="store_true",
                   help="skip tasks already completed in --checkpoint; "
                   "refuses on a fingerprint mismatch")
    p.add_argument("--report-json", metavar="PATH",
                   help="write the machine-readable ScanReport payload here")
    p.add_argument("--on-bad-record", choices=("skip", "raise", "ignore"),
                   default="skip",
                   help="what to do with malformed/empty/duplicate FASTA "
                   "records (default: quarantine and report)")
    p.add_argument("--inject-faults", metavar="SPEC",
                   help="deterministic fault plan keyed on task ids, e.g. "
                   "'1:crash,4:hang,7:corrupt:2' (TASK:KIND[:ATTEMPTS])")
    p.add_argument("--fault-rate", type=float, default=0.0,
                   help="instead of --inject-faults: fault each planned task "
                   "with this probability (seeded)")
    p.add_argument("--fault-seed", type=int, default=0)
    p.add_argument("--fault-attempts", type=int, default=1,
                   help="max leading faulty attempts per chosen task")
    p.add_argument("--fault-hang-seconds", type=float, default=3600.0,
                   help="how long an injected hang waits (a supervised "
                   "hang ends at --chunk-timeout; in-process hangs are not "
                   "supervised)")
    add_obs_args(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser(
        "serve",
        help="front-door scan daemon: HTTP job admission over one warm "
        "runtime, batched passes, LRU result cache, /metrics, graceful "
        "SIGTERM drain (exit: worst job outcome, 0/3/4, or 1 fatal)",
    )
    p.add_argument("--database", required=True, help="nucleotide FASTA (.gz ok)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: loopback only)")
    p.add_argument("--port", type=int, default=8765,
                   help="TCP port (0 = OS-assigned; see --ready-file)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker threads of the warm session "
                   "(default: one per CPU; 1 = serial)")
    p.add_argument("--shards", type=int, default=None, metavar="N",
                   help="open the resident session with N shards, one "
                   "worker each (dead shards surface as per-job exit 4)")
    p.add_argument("--max-queue", type=int, default=64,
                   help="admission queue bound; a full queue answers 503")
    p.add_argument("--max-batch", type=int, default=16,
                   help="most jobs coalesced into one scan_batch dispatch")
    p.add_argument("--cache-entries", type=int, default=256,
                   help="LRU result-cache entries (0 disables caching)")
    p.add_argument("--checkpoint", metavar="DIR",
                   help="durable per-batch checkpoints under DIR; an "
                   "interrupted drain leaves chunks an identical re-submit "
                   "resumes")
    p.add_argument("--on-bad-record", choices=("skip", "raise", "ignore"),
                   default="skip",
                   help="what to do with malformed FASTA records")
    p.add_argument("--ready-file", metavar="PATH",
                   help="write 'HOST PORT' here once listening (handshake "
                   "for tests/CI, pairs with --port 0)")
    p.add_argument("--no-obs", action="store_true",
                   help="do not enable the metrics registry (/metrics will "
                   "serve an empty exposition)")
    p.add_argument("--metrics-json", metavar="PATH",
                   help="write the final metrics registry here as JSON "
                   "after the drain")
    p.add_argument("--verbose", action="store_true",
                   help="log each HTTP request to stderr")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("generate", help="build a synthetic planted database")
    p.add_argument("--queries", type=int, default=3)
    p.add_argument("--length", type=int, default=40)
    p.add_argument("--references", type=int, default=2)
    p.add_argument("--reference-length", type=int, default=20_000)
    p.add_argument("--substitution-rate", type=float, default=0.0)
    p.add_argument("--indels", type=int, default=0)
    p.add_argument("--codon-usage", choices=("uniform", "paper", "first"),
                   default="paper")
    p.add_argument("--seed", type=int, default=2021)
    p.add_argument("--out-db", default="synthetic_db.fasta")
    p.add_argument("--out-queries", default="synthetic_queries.fasta")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("table1", help="print the Table I resource model")
    p.add_argument("--device", choices=sorted(DEVICES), default="kintex7")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("fig6", help="print the Fig. 6 sweep")
    p.add_argument("--device", choices=sorted(DEVICES), default="kintex7")
    p.set_defaults(func=cmd_fig6)

    p = sub.add_parser("crossover", help="print the SEC IV-B crossover sweep")
    p.add_argument("--device", choices=sorted(DEVICES), default="kintex7")
    p.set_defaults(func=cmd_crossover)

    p = sub.add_parser("export-rtl", help="export query datapaths as Verilog")
    add_query_args(p)
    p.add_argument("--out", default="rtl_export")
    p.add_argument("--instances", type=int, default=2)
    p.add_argument("--threshold", type=int, default=8)
    p.add_argument("--loadable", action="store_true",
                   help="build the FF query memory instead of constants")
    p.set_defaults(func=cmd_export_rtl)

    p = sub.add_parser("compose", help="pattern composition table / query info")
    add_query_args(p)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("plan", help="deployment planning: time/energy per platform")
    p.add_argument("--database-nt", type=int, default=4_000_000_000,
                   help="database size in nucleotides")
    p.add_argument("--queries", nargs="+", default=["50x60", "150x30", "250x10"],
                   metavar="LENxCOUNT", help="query mix, e.g. 50x60 250x10")
    p.add_argument("--boards", type=int, default=1)
    p.add_argument("--no-share", action="store_true",
                   help="disable multi-query fabric sharing")
    p.add_argument("--device", choices=sorted(DEVICES), default="kintex7")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser(
        "bench",
        help="score-engine benchmark: naive vs vectorized vs bitscore vs "
        "the chunked multi-threaded database scan",
    )
    p.add_argument("--quick", action="store_true",
                   help="CI-sized workload (seconds, not minutes)")
    p.add_argument("--residues", type=int, default=250,
                   help="query residues (L_q = 3x this, elements)")
    p.add_argument("--reference-length", type=int, default=1_000_000,
                   help="single-reference workload length (nt)")
    p.add_argument("--scan-references", type=int, default=8)
    p.add_argument("--scan-reference-length", type=int, default=250_000)
    p.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4],
                   help="worker counts for the parallel-scan sweep")
    p.add_argument("--repeats", type=int, default=3,
                   help="best-of repeats per vectorized measurement")
    p.add_argument("--seed", type=int, default=2021)
    p.add_argument("--out", default="BENCH_scoring.json",
                   help="artifact path ('' to skip writing)")
    p.add_argument("--min-speedup", type=float, default=0.0,
                   help="exit 3 (completed-with-degradation) unless bitscore "
                   ">= this multiple of the naive path (CI regression gate)")
    p.add_argument("--batch", action="store_true",
                   help="also run the batched-kernel and warm-session "
                   "benchmark (k sequential sweeps vs one shared sweep, "
                   "cold vs warm ScanSession); records merge into the "
                   "same artifact")
    p.add_argument("--min-batch-amortization", type=float, default=0.0,
                   help="exit 3 unless the shared sweep at k=8 achieves >= "
                   "this multiple of k sequential sweeps (implies --batch "
                   "records must be present)")
    add_obs_args(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "obs",
        help="observability utilities (see docs/observability.md)",
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    p = obs_sub.add_parser(
        "summarize",
        help="stage/engine breakdown of a metrics, trace or scan-report "
        "artifact (kind auto-detected)",
    )
    p.add_argument("artifact", help="path to the JSON artifact")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_obs_summarize)

    p = sub.add_parser(
        "lint", help="static lint of generated netlists and instruction streams"
    )
    add_query_args(p)
    p.add_argument("--format", choices=("text", "json", "sarif"), default="text")
    p.add_argument("--out", help="write the report to a file instead of stdout")
    p.add_argument("--ignore", action="append", default=[], metavar="RULES",
                   help="comma-separated rule ids to suppress (repeatable)")
    p.add_argument("--strict", action="store_true",
                   help="treat warnings as failures (exit codes: 0 clean, "
                   "1 findings, 2 usage error)")
    p.add_argument("--symbolic", action="store_true",
                   help="append the SA-family symbolic proofs (comparator "
                   "divergence, score-range, false paths) and exclude "
                   "proven false paths from the timing payload")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "check",
        help="static analysis of the repo's own source (rules RC001, RC002, "
        "RC004, RC006, RC007, OB001-OB004, KC001-KC008)",
    )
    p.add_argument("--root", default=None,
                   help="package directory to analyze (default: the "
                   "installed repro package)")
    p.add_argument("--format", choices=("text", "json", "sarif"), default="text")
    p.add_argument("--out", help="write the report to a file instead of stdout")
    p.add_argument("--ignore", action="append", default=[], metavar="RULES",
                   help="comma-separated rule ids, ranges (RC001-RC004) or "
                   "globs (KC00*) to suppress (repeatable); line pragmas "
                   "use the same selector grammar and are applied after "
                   "CLI ignores")
    p.add_argument("--strict", action="store_true",
                   help="treat warnings as failures (exit codes: 0 clean, "
                   "1 findings, 2 usage error)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "prove",
        help="symbolic verification: comparator semantics per amino acid, "
        "score-range bounds at the Table I design points, block equivalence; "
        "'prove kernel' proves engine lane budgets and dtype envelopes",
    )
    p.add_argument("target", nargs="?", choices=("rtl", "kernel"), default="rtl",
                   help="what to prove: 'rtl' (default) runs the symbolic "
                   "netlist proofs; 'kernel' emits the engine-contract "
                   "proof artifact (lane budget at 750 elements, dtype-flow "
                   "verdict per scoring engine)")
    p.add_argument("--widths", type=int, nargs="+",
                   default=[150, 300, 450, 600, 750],
                   help="popcount widths (elements) to range-prove")
    p.add_argument("--equivalence-width", type=int, default=18,
                   help="input width for the symbolic fabp-vs-tree "
                   "equivalence proof (per-output cones must stay within "
                   "the truth-table limit)")
    p.add_argument("--self-test", action="store_true",
                   help="also refute seeded single-bit LUT mutations "
                   "(negative control: each must produce a counterexample)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="write the report/artifact to a file")
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("stats", help="null-score statistics for queries")
    add_query_args(p)
    p.add_argument("--reference-length", type=int, default=4_000_000_000)
    p.add_argument("--target-fpr", type=float, default=1.0,
                   help="acceptable expected random hits over the reference")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    import os

    if os.environ.get("FABP_SHMSAN") == "1":
        # Arm the shared-memory sanitizer for this process (and, with
        # FABP_SHMSAN_LOG, its event trail) — how the subprocess
        # integration tests audit a scan's /dev/shm hygiene.
        from repro.statics import shmsan

        if not shmsan.is_installed():
            shmsan.install()
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""Host-side runtime: the OpenCL host program of §IV, in model form.

The paper's host code "encodes the queries and sends them along with the
reference sequences from the host DRAM to the FPGA DRAM", invokes the RTL
kernel, and reads results back.  :class:`FabPHost` reproduces that life
cycle over a whole database:

* references are packed once into the modeled FPGA DRAM image;
* multi-channel devices stripe *references* across channels, each channel
  running its own kernel array (the paper: "FabP is able to utilize
  multiple channels as long as the FPGA has enough resources") — elapsed
  time is the busiest channel's;
* per-query results aggregate hits with reference names, cycle counts and
  achieved bandwidth, and include host-side transfer accounting (PCIe).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.accel.device import FpgaDevice, KINTEX7
from repro.accel.kernel import FabPKernel, KernelRun
from repro.core.encoding import EncodedQuery, encode_query
from repro.seq import fasta, packing
from repro.seq.sequence import as_rna

#: Host-to-FPGA transfer bandwidth (PCIe gen3 x8 effective), bytes/s.
PCIE_BANDWIDTH = 6.0e9


@dataclass(frozen=True)
class DatabaseEntry:
    """One packed reference resident in the modeled FPGA DRAM."""

    name: str
    codes: np.ndarray
    channel: int

    @property
    def length(self) -> int:
        return int(self.codes.size)

    @property
    def packed_bytes(self) -> int:
        return packing.packed_size_bytes(self.length)


@dataclass(frozen=True)
class NamedHit:
    """A hit with its reference attached (host-side result record).

    ``strand`` is ``"+"`` (forward) or ``"-"`` (the hit was found on the
    reverse complement; ``position`` is the forward-strand coordinate where
    the aligned region *starts*).
    """

    reference: str
    position: int
    score: int
    strand: str = "+"

    def __str__(self) -> str:
        return f"{self.reference}:{self.position}({self.strand}) (score {self.score})"


@dataclass(frozen=True)
class HostSearchResult:
    """Aggregated outcome of one query over the whole database."""

    query: EncodedQuery
    threshold: int
    hits: Tuple[NamedHit, ...]
    runs: Tuple[KernelRun, ...]
    channel_cycles: Tuple[int, ...]
    transfer_seconds: float

    @property
    def kernel_seconds(self) -> float:
        """Elapsed kernel time: the busiest channel (channels overlap)."""
        if not self.channel_cycles:
            return 0.0
        device = self.runs[0].plan.device if self.runs else KINTEX7
        return max(self.channel_cycles) / device.clock_hz

    @property
    def total_seconds(self) -> float:
        """End-to-end: query upload + kernel + result readback (paper §IV
        measures exactly this envelope)."""
        return self.kernel_seconds + self.transfer_seconds

    @property
    def total_cycles(self) -> int:
        return sum(run.total_cycles for run in self.runs)

    @property
    def best_hit(self) -> Optional[NamedHit]:
        return max(self.hits, key=lambda h: h.score, default=None)

    def __str__(self) -> str:
        return (
            f"HostSearchResult({len(self.hits)} hits over {len(self.runs)} "
            f"references, {self.total_seconds * 1e3:.2f} ms)"
        )


class FabPHost:
    """Own a database on a device; run queries against all of it."""

    def __init__(self, device: FpgaDevice = KINTEX7):
        self.device = device
        self._entries: List[DatabaseEntry] = []
        self._channel_bytes = [0] * device.memory_channels

    # -- database management --------------------------------------------------

    def add_reference(self, reference, name: str = "") -> DatabaseEntry:
        """Pack one reference into DRAM (striped to the emptiest channel)."""
        if isinstance(reference, np.ndarray):
            codes = np.asarray(reference, dtype=np.uint8)
        elif isinstance(reference, str):
            codes = packing.codes_from_text(reference)
        else:
            rna = as_rna(reference)
            codes = packing.codes_from_text(rna.letters)
            name = name or rna.name
        name = name or f"ref_{len(self._entries)}"
        channel = int(np.argmin(self._channel_bytes))
        entry = DatabaseEntry(name=name, codes=codes, channel=channel)
        self._channel_bytes[channel] += entry.packed_bytes
        self._entries.append(entry)
        return entry

    def add_references(self, references: Sequence) -> List[DatabaseEntry]:
        return [self.add_reference(reference) for reference in references]

    def load_fasta(self, path, *, on_error: Optional[str] = None, skipped=None) -> int:
        """Load every record of a FASTA file into the database.

        ``on_error`` follows :func:`repro.seq.fasta.read_rna`: ``None``
        keeps the historical permissive behaviour, ``"raise"`` turns
        malformed/empty/duplicate records into a typed
        :class:`~repro.seq.fasta.FastaError`, ``"skip"`` quarantines them
        (appending a :class:`~repro.seq.fasta.SkippedRecord` to
        ``skipped`` when a list is provided) so one bad record cannot take
        down a long scan.
        """
        count = 0
        for sequence in fasta.read_rna(path, on_error=on_error, skipped=skipped):
            self.add_reference(sequence)
            count += 1
        return count

    @property
    def entries(self) -> Tuple[DatabaseEntry, ...]:
        """The loaded database entries, in insertion order (read-only)."""
        return tuple(self._entries)

    @property
    def num_references(self) -> int:
        return len(self._entries)

    @property
    def database_nucleotides(self) -> int:
        return sum(entry.length for entry in self._entries)

    @property
    def database_bytes(self) -> int:
        return sum(entry.packed_bytes for entry in self._entries)

    def database_upload_seconds(self) -> float:
        """One-time host->FPGA database transfer over PCIe."""
        return self.database_bytes / PCIE_BANDWIDTH

    # -- search ---------------------------------------------------------------

    def search(
        self,
        query,
        *,
        threshold: Optional[int] = None,
        min_identity: Optional[float] = None,
        both_strands: bool = False,
        max_residues: Optional[int] = None,
    ) -> HostSearchResult:
        """Run one query against every reference in the database.

        ``both_strands=True`` additionally streams each reference's reverse
        complement (a second pass, like running the kernel twice — coding
        regions sit on either strand); reverse hits are reported in
        forward-strand coordinates with ``strand="-"``.  ``max_residues``
        models a fixed hardware bitstream sized for longer queries (shorter
        ones are pad-filled, §IV-A).
        """
        if not self._entries:
            raise ValueError("the database is empty; add references first")
        encoded = query if isinstance(query, EncodedQuery) else encode_query(query)
        kernel = FabPKernel(
            encoded,
            device=self.device,
            threshold=threshold,
            min_identity=min_identity,
            max_residues=max_residues,
        )
        hits: List[NamedHit] = []
        runs: List[KernelRun] = []
        channel_cycles = [0] * self.device.memory_channels
        for entry in self._entries:
            run = kernel.run(entry.codes)
            runs.append(run)
            channel_cycles[entry.channel] += run.total_cycles
            hits.extend(
                NamedHit(entry.name, hit.position, hit.score) for hit in run.hits
            )
            if both_strands:
                # Complement then reverse, in code space: complement of a
                # 2-bit code is its bitwise NOT (A<->U, C<->G).
                rc_codes = (3 - entry.codes)[::-1].copy()
                rc_run = kernel.run(rc_codes)
                runs.append(rc_run)
                channel_cycles[entry.channel] += rc_run.total_cycles
                length = entry.length
                span = len(encoded)
                hits.extend(
                    NamedHit(
                        entry.name,
                        length - hit.position - span,
                        hit.score,
                        strand="-",
                    )
                    for hit in rc_run.hits
                )
        # Host transfers: encoded query up, hit records back.
        query_bytes = -(-encoded.storage_bits() // 8)
        result_bytes = 6 * len(hits)  # 42-bit records padded to 6 bytes
        transfer = (query_bytes + result_bytes) / PCIE_BANDWIDTH
        return HostSearchResult(
            query=encoded,
            threshold=kernel.threshold,
            hits=tuple(sorted(hits, key=lambda h: (-h.score, h.reference, h.position))),
            runs=tuple(runs),
            channel_cycles=tuple(channel_cycles),
            transfer_seconds=transfer,
        )

    def scan(
        self,
        query,
        *,
        threshold: Optional[int] = None,
        min_identity: Optional[float] = None,
        engine: str = "bitscore",
        workers: Optional[int] = 1,
        chunk_size: Optional[int] = None,
        keep_scores: bool = False,
        policy=None,
        faults=None,
        checkpoint_dir=None,
        resume: bool = False,
        with_report: bool = False,
    ):
        """Software fast-path scan of the resident database (no cycle model).

        Runs the bit-parallel scoring engine — optionally across a process
        pool — over every reference already packed into this host, and
        returns per-reference :class:`repro.core.aligner.AlignmentResult`
        objects in database order.  Use :meth:`search` when modeled kernel
        timing is needed; use this when only the hits are.

        The scan is :func:`repro.host.scan.scan_database`, so it runs
        under the task supervisor: ``policy``
        (:class:`repro.host.resilience.RetryPolicy`), ``faults`` and
        ``checkpoint_dir``/``resume`` configure it, and
        ``with_report=True`` returns ``(results, ScanReport)`` so callers
        can inspect retries, timeouts and degradations.
        """
        if not self._entries:
            raise ValueError("the database is empty; add references first")
        from repro.host.scan import PackedDatabase, scan_database

        database = PackedDatabase.from_references(
            [entry.codes for entry in self._entries],
            names=[entry.name for entry in self._entries],
        )
        return scan_database(
            query,
            database,
            threshold=threshold,
            min_identity=min_identity,
            engine=engine,
            workers=workers,
            chunk_size=chunk_size,
            keep_scores=keep_scores,
            policy=policy,
            faults=faults,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            with_report=with_report,
        )

    def search_many(
        self,
        queries: Sequence,
        *,
        threshold: Optional[int] = None,
        min_identity: Optional[float] = None,
    ) -> List[HostSearchResult]:
        """Run a batch of queries sequentially (the paper's usage model:
        one query resident in FF memory at a time)."""
        return [
            self.search(query, threshold=threshold, min_identity=min_identity)
            for query in queries
        ]


def batch_seconds(results: Sequence[HostSearchResult], *, pipelined: bool = True) -> float:
    """Wall-clock of a multi-query batch.

    ``pipelined=True`` models the standard OpenCL double-buffering: while
    the kernel runs query *i*, the host uploads query *i+1* and reads back
    *i-1*'s results, so transfers hide behind compute (except the first
    upload and last readback).  ``pipelined=False`` is the naive serial sum.
    """
    if not results:
        return 0.0
    kernel_total = sum(r.kernel_seconds for r in results)
    transfer_total = sum(r.transfer_seconds for r in results)
    if not pipelined:
        return kernel_total + transfer_total
    exposed = results[0].transfer_seconds / 2 + results[-1].transfer_seconds / 2
    return max(kernel_total, transfer_total) + exposed

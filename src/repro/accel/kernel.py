"""Functional cycle-level model of the FabP accelerator (Fig. 3).

Replays the paper's end-to-end flow on a reference stream:

1. the encoded query is loaded into the (modeled) FF-based query memory;
2. the packed reference streams in 512-bit AXI beats with realistic stalls;
3. the *Reference Stream* buffer keeps the last ``L_q`` elements of the
   previous beat and concatenates the incoming 256 elements, so alignment
   positions that straddle beats are covered (§III-C);
4. every alignment position is scored with the comparator/pop-counter
   semantics (numerically identical to the RTL netlists — tests verify)
   and thresholded; hits go to the write-back buffer;
5. cycles are accounted: ``segments`` cycles per valid beat, one per stall,
   plus query load, pipeline drain and write-back flush.

The hits this kernel produces are **identical** to
:func:`repro.core.aligner.align`; what it adds is the cycle/bandwidth
accounting that the performance model consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.accel.axi import AxiReferenceStream, DEFAULT_EFFICIENCY
from repro.accel.device import FpgaDevice, KINTEX7
from repro.accel.scheduler import SchedulePlan, plan_schedule
from repro.core import comparator as cmp
from repro.core.aligner import Hit, resolve_threshold
from repro.core.encoding import EncodedQuery, encode_query
from repro.obs import profile as _obs_profile
from repro.seq import packing
from repro.seq.sequence import as_rna

#: Write-back record width (32-bit position + 10-bit score), §III-C WB buffer.
WRITEBACK_RECORD_BITS = 42


@dataclass(frozen=True)
class KernelRun:
    """Outcome of one kernel invocation on one reference."""

    query: EncodedQuery
    plan: SchedulePlan
    threshold: int
    hits: Tuple[Hit, ...]
    reference_length: int
    beats: int
    stall_cycles: int
    compute_cycles: int
    load_cycles: int
    writeback_cycles: int
    drain_cycles: int

    @property
    def total_cycles(self) -> int:
        return (
            self.load_cycles
            + self.compute_cycles
            + self.stall_cycles
            + self.writeback_cycles
            + self.drain_cycles
        )

    @property
    def elapsed_seconds(self) -> float:
        return self.total_cycles / self.plan.device.clock_hz

    @property
    def effective_bandwidth(self) -> float:
        """Achieved reference-read bandwidth in bytes/s."""
        if self.total_cycles == 0:
            return 0.0
        bytes_read = self.beats * self.plan.device.bytes_per_beat
        return bytes_read / self.elapsed_seconds

    def __str__(self) -> str:
        return (
            f"KernelRun(len={self.reference_length}, hits={len(self.hits)}, "
            f"cycles={self.total_cycles}, bw={self.effective_bandwidth / 1e9:.2f} GB/s)"
        )


class FabPKernel:
    """The streaming accelerator model for one encoded query."""

    def __init__(
        self,
        query,
        *,
        device: FpgaDevice = KINTEX7,
        threshold: Optional[int] = None,
        min_identity: Optional[float] = None,
        axi_efficiency: float = DEFAULT_EFFICIENCY,
        stall_probability: Optional[float] = None,
        seed: Optional[int] = None,
        max_residues: Optional[int] = None,
    ):
        self.query = query if isinstance(query, EncodedQuery) else encode_query(query)
        self.device = device
        self.threshold = resolve_threshold(self.query, threshold, min_identity)
        # Hardware sizing: a bitstream built for `max_residues` runs any
        # shorter query by filling the spare columns with always-match (D)
        # pad instructions (§IV-A); each pad adds +1 to every score, so the
        # internal threshold is offset and reported scores corrected.
        if max_residues is not None and 3 * max_residues < len(self.query):
            raise ValueError(
                f"query has {self.query.num_residues} residues but the "
                f"hardware supports at most {max_residues}"
            )
        hw_elements = 3 * max_residues if max_residues is not None else len(self.query)
        self.pad_elements = hw_elements - len(self.query)
        self.plan = plan_schedule(hw_elements, device)
        self.axi_efficiency = axi_efficiency
        self.stall_probability = stall_probability
        self.seed = seed
        # Per-instruction lookup tables, computed once per query.
        from repro.core.encoding import pad_instruction

        instructions = np.concatenate(
            [
                self.query.as_array(),
                np.full(self.pad_elements, pad_instruction(), dtype=np.uint8),
            ]
        )
        self._hw_instructions = instructions
        self._tables, self._configs = cmp.instruction_tables(instructions)

    def run(self, reference) -> KernelRun:
        """Stream one reference through the accelerator."""
        codes = self._codes(reference)
        hw_elements = len(self._hw_instructions)
        true_elements = len(self.query)
        # Pad instructions extend alignment windows past the true query; the
        # stream appends zero trailer beats so end-of-reference positions
        # still drain (the D pads match anything, including the zeros).
        base_delivered = packing.packed_size_bytes(codes.size) * 4
        deficit = codes.size + self.pad_elements - base_delivered
        per_beat = self.device.nucleotides_per_beat
        trailer = -(-max(0, deficit) // per_beat)
        stream = AxiReferenceStream(
            codes,
            nucleotides_per_beat=per_beat,
            efficiency=self.axi_efficiency,
            stall_probability=self.stall_probability,
            seed=self.seed,
            trailer_beats=trailer,
        )
        # The stream buffer: retain the last L_q + 1 codes so positions that
        # straddle beats keep their full look-back context (the +1 covers the
        # two-back dependency source of the earliest retained position).
        tail = np.zeros(0, dtype=np.uint8)
        consumed = 0
        hits: List[Hit] = []
        compute_cycles = 0
        stall_cycles = 0
        beats = 0
        for beat in stream.beats():
            if not beat.valid:
                stall_cycles += 1
                continue
            beats += 1
            compute_cycles += self.plan.segments
            chunk = beat.codes
            window = np.concatenate([tail, chunk])
            window_start = consumed - tail.size
            consumed_before = consumed
            consumed += chunk.size
            self._emit_hits(
                window,
                window_start,
                consumed_before,
                consumed,
                hw_elements,
                codes.size - true_elements,  # last valid alignment position
                hits,
            )
            keep = min(hw_elements + 1, window.size)
            tail = window[window.size - keep :]
        load_cycles = -(-6 * hw_elements // self.device.axi_width_bits)
        records_per_beat = self.device.axi_width_bits // WRITEBACK_RECORD_BITS
        writeback_cycles = -(-len(hits) // records_per_beat) if hits else 0
        run = KernelRun(
            query=self.query,
            plan=self.plan,
            threshold=self.threshold,
            hits=tuple(sorted(hits, key=lambda h: h.position)),
            reference_length=int(codes.size),
            beats=beats,
            stall_cycles=stall_cycles,
            compute_cycles=compute_cycles,
            load_cycles=load_cycles,
            writeback_cycles=writeback_cycles,
            drain_cycles=self.plan.pipeline_latency,
        )
        _obs_profile.record_kernel_run(run)
        return run

    def run_stream(self, chunks) -> KernelRun:
        """Stream a reference supplied as an iterable of pieces.

        Constant-memory variant of :meth:`run` for references too large to
        hold as one array (the paper's workload is 4 Gnt): ``chunks`` yields
        RNA/DNA strings or code arrays of arbitrary sizes.  Produces
        identical hits to :meth:`run` on the concatenation; cycle accounting
        is computed from the total beat count (the deterministic stall model
        is position-independent).
        """
        hw_elements = len(self._hw_instructions)
        true_elements = len(self.query)
        tail = np.zeros(0, dtype=np.uint8)
        consumed = 0
        hits: List[Hit] = []
        for chunk in chunks:
            codes = self._codes(chunk)
            if codes.size == 0:
                continue
            window = np.concatenate([tail, codes])
            window_start = consumed - tail.size
            consumed_before = consumed
            consumed += codes.size
            # No clamp needed mid-stream: every completed position k
            # satisfies k <= consumed - hw <= total - true (hw >= true).
            self._emit_hits(
                window,
                window_start,
                consumed_before,
                consumed,
                hw_elements,
                consumed,  # effectively unclamped
                hits,
            )
            keep = min(hw_elements + 1, window.size)
            tail = window[window.size - keep :]
        total = consumed
        if self.pad_elements and total:
            # Flush: padded windows at the reference end drain against zero
            # trailer data (the D pads match anything).
            trailer = np.zeros(self.pad_elements, dtype=np.uint8)
            window = np.concatenate([tail, trailer])
            window_start = consumed - tail.size
            self._emit_hits(
                window,
                window_start,
                consumed,
                consumed + trailer.size,
                hw_elements,
                total - true_elements,
                hits,
            )
        per_beat = self.device.nucleotides_per_beat
        deficit = total + self.pad_elements - packing.packed_size_bytes(total) * 4
        beats = packing.beats_required(total) + -(-max(0, deficit) // per_beat)
        stall_cycles = max(0, int(np.ceil(beats / self.axi_efficiency)) - beats)
        records_per_beat = self.device.axi_width_bits // WRITEBACK_RECORD_BITS
        run = KernelRun(
            query=self.query,
            plan=self.plan,
            threshold=self.threshold,
            hits=tuple(sorted(hits, key=lambda h: h.position)),
            reference_length=int(total),
            beats=beats,
            stall_cycles=stall_cycles,
            compute_cycles=beats * self.plan.segments,
            load_cycles=-(-6 * hw_elements // self.device.axi_width_bits),
            writeback_cycles=-(-len(hits) // records_per_beat) if hits else 0,
            drain_cycles=self.plan.pipeline_latency,
        )
        _obs_profile.record_kernel_run(run)
        return run

    # -- internals ------------------------------------------------------------

    @staticmethod
    def _codes(reference) -> np.ndarray:
        if isinstance(reference, np.ndarray):
            return np.asarray(reference, dtype=np.uint8)
        if isinstance(reference, str):
            return packing.codes_from_text(reference)
        return packing.codes_from_text(as_rna(reference).letters)

    def _emit_hits(
        self,
        window: np.ndarray,
        window_start: int,
        consumed_before: int,
        consumed: int,
        hw_elements: int,
        last_position: int,
        hits: List[Hit],
    ) -> None:
        """Score and threshold the positions newly completed by this beat.

        Position ``k`` completes in this beat iff its last *hardware* element
        index ``k + E_hw - 1`` arrived with this chunk, i.e. lies in
        ``[consumed_before, consumed)``.  Those positions are fully inside
        ``window`` with genuine look-back context (the retained tail is
        ``E_hw + 1`` long); at the very start of the stream the missing
        context reads as code 0, matching both the hardware reset state and
        the golden model's convention.  ``last_position`` clamps alignments
        so the *true* query never extends past the reference.
        """
        num_local = window.size - hw_elements + 1
        if num_local <= 0:
            return
        k_lo = max(0, consumed_before - hw_elements + 1)
        k_hi = min(consumed - hw_elements, last_position)  # inclusive
        lo_local = max(k_lo - window_start, 0)
        hi_local = min(k_hi - window_start, num_local - 1)
        if hi_local < lo_local:
            return
        scores = self._scores_in_window(window, num_local)
        segment = scores[lo_local : hi_local + 1]
        # Pad instructions always match: raw = true + pad_elements.
        internal_threshold = self.threshold + self.pad_elements
        for index in np.nonzero(segment >= internal_threshold)[0]:
            position = window_start + lo_local + int(index)
            hits.append(Hit(position, int(segment[index]) - self.pad_elements))

    def _scores_in_window(self, window: np.ndarray, num_positions: int) -> np.ndarray:
        """Vectorized scoring of window-local alignment offsets."""
        num_elements = len(self._hw_instructions)
        instructions = self._hw_instructions
        length = window.size
        prev1 = np.zeros(length, dtype=np.uint8)
        prev2 = np.zeros(length, dtype=np.uint8)
        if length > 1:
            prev1[1:] = window[:-1]
        if length > 2:
            prev2[2:] = window[:-2]
        x_rows = np.zeros((4, length), dtype=np.uint8)
        x_rows[1] = (prev1 >> 1) & 1
        x_rows[2] = prev2 & 1
        x_rows[3] = (prev2 >> 1) & 1
        scores = np.zeros(num_positions, dtype=np.int32)
        for i in range(num_elements):
            segment = window[i : i + num_positions]
            config = int(self._configs[i])
            if config == 0:
                x = (int(instructions[i]) >> 3) & 1
                scores += self._tables[i, x, segment]
            else:
                bits = x_rows[config, i : i + num_positions]
                scores += self._tables[i, bits, segment]
        return scores

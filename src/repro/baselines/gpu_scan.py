"""Functional SIMT execution model of the paper's CUDA baseline.

The paper compares against "our highly optimized GPU implementation ...
written in CUDA" running the same substitution-only scan.  This module
implements that kernel as a functional simulation with an explicit
execution model, the GPU analogue of :class:`repro.accel.FabPKernel`:

* the reference is tiled across thread blocks; each block stages its tile
  (plus a query-length halo) in shared memory;
* each thread computes one alignment position per grid-stride iteration,
  looping over the encoded query's per-element lookup tables;
* hits are emitted with an atomic counter into a global result buffer.

Functionally it produces **exactly** the golden aligner's hits.  On top it
accounts instructions, global-memory traffic and occupancy, from which it
estimates execution time; a test pins this estimate to the closed-form
model in :mod:`repro.perf.gpu` (same machine constants, two derivations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core import comparator as cmp
from repro.core.aligner import Hit, resolve_threshold
from repro.core.encoding import EncodedQuery, encode_query
from repro.perf.platforms import GTX_1080TI, GpuSpec
from repro.seq import packing
from repro.seq.sequence import as_rna

#: SASS instructions per element comparison in the optimized inner loop
#: (bit-sliced LOP3 + add; Pascal dual-issues).  ``ISSUE_RATE /
#: INSTRUCTIONS_PER_COMPARISON`` must equal the closed-form model's
#: ``comparisons_per_core_cycle`` (1.37) — a test enforces the identity.
INSTRUCTIONS_PER_COMPARISON = 2.92
ISSUE_RATE = 4.0

#: Per-position loop overhead (index math, score init, threshold test).
OVERHEAD_INSTRUCTIONS_PER_POSITION = 12.0


@dataclass(frozen=True)
class GpuLaunchConfig:
    """CUDA launch geometry for the scan kernel."""

    threads_per_block: int = 256
    positions_per_thread: int = 4

    @property
    def tile_positions(self) -> int:
        return self.threads_per_block * self.positions_per_thread

    def blocks_for(self, num_positions: int) -> int:
        if num_positions <= 0:
            return 0
        return -(-num_positions // self.tile_positions)


@dataclass(frozen=True)
class GpuScanResult:
    """Hits + execution statistics for one kernel launch."""

    query: EncodedQuery
    threshold: int
    hits: Tuple[Hit, ...]
    blocks: int
    instructions: int
    global_bytes: int
    shared_bytes_per_block: int
    estimated_seconds: float

    def __str__(self) -> str:
        return (
            f"GpuScanResult({len(self.hits)} hits, {self.blocks} blocks, "
            f"{self.instructions / 1e6:.1f} Minstr, "
            f"{self.estimated_seconds * 1e3:.2f} ms est.)"
        )


class GpuScanKernel:
    """The CUDA scan for one encoded query on one GPU."""

    def __init__(
        self,
        query,
        *,
        gpu: GpuSpec = GTX_1080TI,
        config: Optional[GpuLaunchConfig] = None,
        threshold: Optional[int] = None,
        min_identity: Optional[float] = None,
    ):
        self.query = query if isinstance(query, EncodedQuery) else encode_query(query)
        self.gpu = gpu
        self.config = config if config is not None else GpuLaunchConfig()
        self.threshold = resolve_threshold(self.query, threshold, min_identity)
        self._tables, self._configs = cmp.instruction_tables(self.query.as_array())

    def run(self, reference) -> GpuScanResult:
        """Launch the (simulated) kernel over one reference."""
        codes = self._codes(reference)
        num_elements = len(self.query)
        num_positions = max(0, codes.size - num_elements + 1)
        blocks = self.config.blocks_for(num_positions)

        # --- functional execution: block by block over shared-memory tiles.
        hits: List[Hit] = []
        tile = self.config.tile_positions
        for block in range(blocks):
            start = block * tile
            count = min(tile, num_positions - start)
            # The staged tile: tile positions + halo of E-1 (+2 look-back).
            lo = max(0, start - 2)
            hi = min(codes.size, start + count + num_elements - 1)
            stage = codes[lo:hi]
            scores = self._tile_scores(stage, start - lo, count)
            for index in np.nonzero(scores >= self.threshold)[0]:
                hits.append(Hit(start + int(index), int(scores[index])))

        # --- execution statistics.
        comparisons = num_positions * num_elements
        instructions = int(
            comparisons * INSTRUCTIONS_PER_COMPARISON
            + num_positions * OVERHEAD_INSTRUCTIONS_PER_POSITION
        )
        halo = num_elements - 1 + 2
        global_bytes = blocks * packing.packed_size_bytes(tile + halo)
        shared_bytes = packing.packed_size_bytes(tile + halo)
        compute_seconds = instructions / (
            self.gpu.cuda_cores * self.gpu.clock_ghz * 1e9 * ISSUE_RATE
        )
        memory_seconds = global_bytes / self.gpu.memory_bandwidth
        estimated = max(compute_seconds, memory_seconds) + self.gpu.launch_overhead_s
        return GpuScanResult(
            query=self.query,
            threshold=self.threshold,
            hits=tuple(hits),
            blocks=blocks,
            instructions=instructions,
            global_bytes=global_bytes,
            shared_bytes_per_block=shared_bytes,
            estimated_seconds=estimated,
        )

    # -- internals ------------------------------------------------------------

    @staticmethod
    def _codes(reference) -> np.ndarray:
        if isinstance(reference, np.ndarray):
            return packing.codes_from_array(reference)
        if isinstance(reference, str):
            return packing.codes_from_text(reference)
        return packing.codes_from_text(as_rna(reference).letters)

    def _tile_scores(
        self, stage: np.ndarray, offset: int, count: int
    ) -> np.ndarray:
        """Score ``count`` consecutive positions from a staged tile.

        ``offset`` is the in-tile index of the first position.  Same
        semantics as the golden aligner: look-back past the staged data
        reads as code 0 (only reachable at the reference head, where it is
        correct by convention).
        """
        length = stage.size
        prev1 = np.zeros(length, dtype=np.uint8)
        prev2 = np.zeros(length, dtype=np.uint8)
        if length > 1:
            prev1[1:] = stage[:-1]
        if length > 2:
            prev2[2:] = stage[:-2]
        x_rows = np.zeros((4, length), dtype=np.uint8)
        x_rows[1] = (prev1 >> 1) & 1
        x_rows[2] = prev2 & 1
        x_rows[3] = (prev2 >> 1) & 1
        instructions = self.query.as_array()
        scores = np.zeros(count, dtype=np.int32)
        for i in range(len(self.query)):
            window = stage[offset + i : offset + i + count]
            config = int(self._configs[i])
            if config == 0:
                x = (int(instructions[i]) >> 3) & 1
                scores += self._tables[i, x, window]
            else:
                bits = x_rows[config, offset + i : offset + i + count]
                scores += self._tables[i, bits, window]
        return scores

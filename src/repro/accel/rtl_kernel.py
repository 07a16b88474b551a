"""LUT-level alignment array: the datapath of Fig. 3 as a real netlist.

The full-scale FabP array (257 instances x 750 elements) would be ~0.5 M
LUTs — too big to simulate interactively in Python — so this module builds a
*parameterized* array that is structurally identical (shift-register stream
buffer, two-LUT comparators, registered match vectors, Pop36 pop-counters,
threshold comparators, registered score outputs) at small sizes, and the
test suite proves it cycle-accurate against the golden aligner.  The
resource model scales the measured per-module costs analytically.

Serialization note: the hardware ingests 256 nucleotides per beat; this
model ingests one nucleotide per cycle, which exercises the same comparator
/ pop-counter / threshold logic while keeping netlists small.  Beat-level
throughput is the scheduler/kernel model's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.aligner import Hit
from repro.core.encoding import EncodedQuery, encode_query
from repro.rtl.comparator import add_element_comparator
from repro.rtl.netlist import GND, VCC, Netlist
from repro.rtl.popcount import add_pop36, add_ripple_adder, lut_init
from repro.rtl.simulator import Simulator
from repro.seq import packing
from repro.seq.sequence import as_rna

#: hold-mux function: D when clock-enabled, else keep Q.
_CE_MUX_INIT = lut_init(lambda d, q, ce: d if ce else q, 3)


def _add_ce_ff(netlist: Netlist, data: int, enable: int, name: str) -> int:
    """A clock-enabled FF: hold-mux LUT + FF (CE path of the real FDRE)."""
    d_net = netlist.new_net()
    q_net = netlist.add_ff(d_net, name=name)
    netlist.add_lut_driving(d_net, (data, q_net, enable), _CE_MUX_INIT, name + ".ce")
    return q_net


def _add_threshold(
    netlist: Netlist, score_bits: List[int], threshold: int, name: str
) -> int:
    """``score >= threshold`` as an LSB-first running comparator (1 LUT/bit).

    The real design places this compare in a DSP slice "to save the LUTs";
    the functional behaviour is identical.
    """
    if threshold <= 0:
        return VCC
    if threshold >= (1 << len(score_bits)):
        return GND
    ge = VCC  # "equal so far" seed: score >= threshold holds on a tie
    for i, bit in enumerate(score_bits):
        t_bit = (threshold >> i) & 1
        init = lut_init(lambda s, g, t=t_bit: int(s > t or (s == t and g)), 2)
        ge = netlist.add_lut((bit, ge), init, name=f"{name}.b{i}")
    return ge


@dataclass(frozen=True)
class RtlArray:
    """A built alignment array and its simulation metadata."""

    netlist: Netlist
    query: EncodedQuery
    instances: int
    threshold: int
    #: Valid-cycle latency from a position's last nucleotide entering the
    #: stream buffer to its registered score being observable.
    score_latency: int


def build_alignment_array(
    query, instances: int, threshold: int, *, loadable: bool = False
) -> RtlArray:
    """Build the array netlist for ``instances`` concurrent alignment positions.

    Primary inputs: ``nt[0..1]`` (one 2-bit nucleotide code per cycle) and
    ``valid[0]`` — an invalid cycle freezes every pipeline stage, exactly
    like the paper's AXI stall behaviour.  Outputs per instance ``j``:
    ``score{j}[*]`` and ``hit{j}[0]``.  Instance ``j`` scores positions
    offset by ``j`` cycles relative to instance 0.

    ``loadable=False`` folds the query into LUT constants (smallest netlist
    for simulation).  ``loadable=True`` builds the paper's actual query
    memory — a 6-bit-wide FF shift register ("FabP uses distributed memory
    resources (FFs) for the query sequence"), loaded through ``qin[0..5]``
    while ``qload[0]`` is high, *last* instruction first; the same netlist
    then serves any query of this length.
    """
    encoded = query if isinstance(query, EncodedQuery) else encode_query(query)
    num_elements = len(encoded)
    if instances < 1:
        raise ValueError("need at least one alignment instance")
    suffix = "L" if loadable else ""
    netlist = Netlist(name=f"fabp_array_{num_elements}x{instances}{suffix}")
    nt = netlist.add_input_bus("nt", 2)  # bit0 = lo, bit1 = hi
    valid = netlist.add_input("valid")

    if loadable:
        qin = netlist.add_input_bus("qin", 6)
        qload = netlist.add_input("qload")
        # Word-wide shift register: stage 0 receives qin; after E load
        # cycles (last instruction first) stage i holds instruction i.
        q_bits = []
        previous = qin
        for stage in range(num_elements):
            word = [
                _add_ce_ff(netlist, previous[b], qload, f"qmem{stage}.b{b}")
                for b in range(6)
            ]
            q_bits.append(word)
            previous = word
    else:
        # Query memory folded to constants (same functional object, smaller
        # simulated netlist).
        q_bits = [
            [(GND, VCC)[(instruction >> b) & 1] for b in range(6)]
            for instruction in encoded.instructions
        ]

    # Stream buffer: clock-enabled shift register of 2-bit codes; stage 0 is
    # the newest nucleotide.  Two-pass construction because each hold-mux
    # reads the Q of the FF it feeds.
    depth = num_elements + instances + 1
    d_nets: List[Tuple[int, int]] = []
    q_nets: List[Tuple[int, int]] = []
    for stage in range(depth):
        d_hi, d_lo = netlist.new_net(), netlist.new_net()
        q_hi = netlist.add_ff(d_hi, name=f"sb{stage}.hi")
        q_lo = netlist.add_ff(d_lo, name=f"sb{stage}.lo")
        d_nets.append((d_hi, d_lo))
        q_nets.append((q_hi, q_lo))
    for stage in range(depth):
        prev = (nt[1], nt[0]) if stage == 0 else q_nets[stage - 1]
        own = q_nets[stage]
        netlist.add_lut_driving(
            d_nets[stage][0], (prev[0], own[0], valid), _CE_MUX_INIT, f"sb{stage}.hice"
        )
        netlist.add_lut_driving(
            d_nets[stage][1], (prev[1], own[1], valid), _CE_MUX_INIT, f"sb{stage}.loce"
        )

    # Per instance: comparators -> registered match vector -> Pop36 tree ->
    # registered score -> threshold.  With the newest code at stage 0 and a
    # position's last element just arrived, element i sits at stage
    # j + (E-1-i); its dependency sources are one and two stages deeper.
    for j in range(instances):
        matches: List[int] = []
        for i in range(num_elements):
            stage = j + (num_elements - 1 - i)
            hi, lo = q_nets[stage]
            prev1 = q_nets[stage + 1]
            prev2 = q_nets[stage + 2] if stage + 2 < depth else (GND, GND)
            matches.append(
                add_element_comparator(
                    netlist,
                    q_bits[i],
                    (hi, lo),
                    prev1_hi=prev1[0],
                    prev2_lo=prev2[1],
                    prev2_hi=prev2[0],
                    name=f"i{j}.e{i}",
                )
            )
        matches = [
            _add_ce_ff(netlist, m, valid, f"i{j}.m{n}") for n, m in enumerate(matches)
        ]
        counts: List[List[int]] = [
            add_pop36(netlist, matches[start : start + 36], name=f"i{j}.p36_{c}")
            for c, start in enumerate(range(0, num_elements, 36))
        ]
        level = 0
        while len(counts) > 1:
            merged = [
                add_ripple_adder(
                    netlist, counts[a], counts[a + 1], name=f"i{j}.l{level}a{a}"
                )
                for a in range(0, len(counts) - 1, 2)
            ]
            if len(counts) % 2:
                merged.append(counts[-1])
            counts = merged
            level += 1
        score_bits = counts[0][: max(1, num_elements.bit_length())]
        score_bits = [
            _add_ce_ff(netlist, s, valid, f"i{j}.s{n}") for n, s in enumerate(score_bits)
        ]
        netlist.set_output_bus(f"score{j}", score_bits)
        netlist.set_output_bus(
            f"hit{j}", [_add_threshold(netlist, score_bits, threshold, f"i{j}.thr")]
        )

    # Latency derivation: after n valid edges, stage 0 holds codes[n-1]; the
    # match registers lag the buffer by one edge and the score registers by
    # two, so position k (last element codes[k+E-1]) is observable on the
    # score output after edge k + E + 2.
    return RtlArray(
        netlist=netlist,
        query=encoded,
        instances=instances,
        threshold=threshold,
        score_latency=2,
    )


class RtlKernel:
    """Drive the RTL array over a reference and collect scores + hits.

    Small-scale but end-to-end: every score and hit comes out of LUT/FF
    simulation, not from the golden model.  With ``loadable=True`` the
    array carries the paper's FF-based query memory: the query is shifted
    in through the ``qin`` port before streaming, and :meth:`reload` swaps
    in a different query of the same length without rebuilding hardware.
    """

    def __init__(self, query, *, instances: int = 2, threshold: int, loadable: bool = False):
        self.encoded = query if isinstance(query, EncodedQuery) else encode_query(query)
        self.array = build_alignment_array(
            self.encoded, instances, threshold, loadable=loadable
        )
        self.threshold = threshold
        self.instances = instances
        self.loadable = loadable

    def reload(self, query) -> None:
        """Swap the query (loadable arrays only; length must match)."""
        if not self.loadable:
            raise ValueError("array was built with a constant query memory")
        encoded = query if isinstance(query, EncodedQuery) else encode_query(query)
        if len(encoded) != len(self.encoded):
            raise ValueError(
                f"replacement query has {len(encoded)} elements, hardware "
                f"was built for {len(self.encoded)}"
            )
        self.encoded = encoded

    def _load_phase(self, sim: Simulator) -> None:
        """Shift the query into the FF memory (last instruction first)."""
        for instruction in reversed(self.encoded.instructions):
            inputs = {"nt[0]": 0, "nt[1]": 0, "valid": 0, "qload": 1}
            for bit in range(6):
                inputs[f"qin[{bit}]"] = (int(instruction) >> bit) & 1
            sim.step(inputs)

    def run(self, reference, *, stall_every: Optional[int] = None):
        """Stream a reference; returns ``(scores, hits)`` from instance 0.

        ``stall_every`` inserts an invalid cycle every N cycles to exercise
        the stall/clock-enable path.
        """
        if isinstance(reference, np.ndarray):
            codes = packing.codes_from_array(reference)
        elif isinstance(reference, str):
            codes = packing.codes_from_text(reference)
        else:
            codes = packing.codes_from_text(as_rna(reference).letters)
        num_elements = len(self.encoded)
        sim = Simulator(self.array.netlist)
        if self.loadable:
            self._load_phase(sim)
        num_positions = codes.size - num_elements + 1
        scores = np.full(max(num_positions, 0), -1, dtype=np.int64)
        hits: List[Hit] = []
        latency = self.array.score_latency
        target_edges = codes.size + latency
        fed = 0
        valid_count = 0
        cycle = 0
        hold_query = {"qload": 0} if self.loadable else {}
        while valid_count < target_edges:
            cycle += 1
            stall = stall_every is not None and cycle % stall_every == 0
            if stall:
                sim.step({"nt[0]": 0, "nt[1]": 0, "valid": 0, **hold_query})
                continue
            if fed < codes.size:
                code = int(codes[fed])
                fed += 1
            else:
                code = 0  # drain with don't-care input
            sim.step(
                {"nt[0]": code & 1, "nt[1]": (code >> 1) & 1, "valid": 1, **hold_query}
            )
            valid_count += 1
            # Post-edge, instance 0 exposes the score of position
            # k = valid_count - E - latency.
            k = valid_count - num_elements - latency
            if 0 <= k < num_positions:
                # Propagate the new register state through combinational
                # logic (the threshold comparator) before sampling.
                sim.settle()
                score = int(sim.output_bus("score0")[0])
                scores[k] = score
                if int(sim.output_bus("hit0")[0]):
                    hits.append(Hit(k, score))
        return scores, hits

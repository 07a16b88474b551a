"""Every entry point that takes a ``str`` reference encodes it in one pass.

Each site hands the text straight to ``codes_from_text``.  The rows pin
that each one accepts and refuses exactly what the two-pass form
``codes_from_text(as_rna(text).letters)`` did: lowercase, ``T``/``U``
mixes, stray characters and non-ASCII text included.
"""

import numpy as np
import pytest

from repro.accel.kernel import FabPKernel
from repro.accel.rtl_kernel import RtlKernel
from repro.baselines.gpu_scan import GpuScanKernel
from repro.host.session import FabPHost
from repro.seq.packing import codes_from_text
from repro.seq.sequence import DnaSequence, RnaSequence, as_rna

TEXTS = [
    "",
    "ACGUACGUAC",
    "ACGTACGTAC",
    "acguacguac",
    "acgt",
    "ACGTU",
    "ACGUN",
    "ACG UACG",
    "ACGÜ",
    "AcGU",
    "UUUUGGCCAA",
    "TTTTGGCCAA",
]

SITES = {
    "FabPKernel._codes": FabPKernel._codes,
    "GpuScanKernel._codes": GpuScanKernel._codes,
    "RtlKernel.run": lambda reference: RtlKernel("M", instances=1, threshold=1).run(
        reference
    )[0],
    "FabPHost.add_reference": lambda reference: FabPHost().add_reference(reference).codes,
}


def _outcome(call):
    try:
        return ("ok", np.asarray(call()).tolist())
    except Exception as error:  # the outcome under test is the error itself
        return (type(error).__name__, str(error))


@pytest.mark.parametrize("text", TEXTS)
@pytest.mark.parametrize("site", sorted(SITES))
def test_str_reference_matches_two_pass_encode(site, text):
    run = SITES[site]
    two_pass = _outcome(lambda: codes_from_text(as_rna(text).letters))
    if two_pass[0] == "ok":
        expected = _outcome(lambda: run(np.array(two_pass[1], dtype=np.uint8)))
    else:
        expected = two_pass
    assert _outcome(lambda: run(text)) == expected


@pytest.mark.parametrize(
    "sequence", [RnaSequence("ACGUAC", name="r1"), DnaSequence("ACGTAC", name="r1")]
)
def test_sequence_reference_keeps_its_name(sequence):
    entry = FabPHost().add_reference(sequence)
    assert entry.name == "r1"
    assert entry.codes.tolist() == [0, 1, 2, 3, 0, 1]

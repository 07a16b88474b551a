"""Seeded benchmark inputs: a random RNA database with planted protein queries.

Everything here is independent of the program under test.  Queries are
back-translated with the standard genetic code (serine restricted to its
UCN box, which the FabP pattern covers), written into a random reference
at a recorded position, and lightly mutated, so every query has at least
one known hit above the default 90 % identity threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

NUCLEOTIDES = np.frombuffer(b"ACGU", dtype=np.uint8)
AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"

#: Synonymous codons per amino acid (standard code; Ser keeps only UCN).
CODONS: Dict[str, Tuple[str, ...]] = {
    "A": ("GCU", "GCC", "GCA", "GCG"),
    "C": ("UGU", "UGC"),
    "D": ("GAU", "GAC"),
    "E": ("GAA", "GAG"),
    "F": ("UUU", "UUC"),
    "G": ("GGU", "GGC", "GGA", "GGG"),
    "H": ("CAU", "CAC"),
    "I": ("AUU", "AUC", "AUA"),
    "K": ("AAA", "AAG"),
    "L": ("UUA", "UUG", "CUU", "CUC", "CUA", "CUG"),
    "M": ("AUG",),
    "N": ("AAU", "AAC"),
    "P": ("CCU", "CCC", "CCA", "CCG"),
    "Q": ("CAA", "CAG"),
    "R": ("CGU", "CGC", "CGA", "CGG", "AGA", "AGG"),
    "S": ("UCU", "UCC", "UCA", "UCG"),
    "T": ("ACU", "ACC", "ACA", "ACG"),
    "V": ("GUU", "GUC", "GUA", "GUG"),
    "W": ("UGG",),
    "Y": ("UAU", "UAC"),
}

#: Nucleotide substitutions written into each planted copy (each can spoil
#: at most three query elements, so every plant stays above 90 % identity
#: for queries of 50 aa and longer).
MAX_SUBSTITUTIONS = 4


@dataclass(frozen=True)
class Plant:
    """Query ``query`` was written into reference ``reference`` at ``position``."""

    query: int
    reference: int
    position: int


@dataclass
class Inputs:
    """One workload's generated database and queries."""

    names: List[str]
    references: List[str]
    queries: List[str]
    plants: List[Plant]

    @property
    def lengths(self) -> List[int]:
        return [len(r) for r in self.references]

    def plants_of(self, query: int) -> List[Plant]:
        return [p for p in self.plants if p.query == query]

    def fasta(self) -> str:
        return "".join(f">{n}\n{r}\n" for n, r in zip(self.names, self.references))


def random_protein(rng: np.random.Generator, length: int) -> str:
    letters = np.array(list(AMINO_ACIDS))
    return "".join(letters[rng.integers(0, len(AMINO_ACIDS), length)])


def back_translate(rng: np.random.Generator, protein: str) -> str:
    """One random synonymous coding sequence for ``protein``."""
    return "".join(
        CODONS[aa][int(rng.integers(0, len(CODONS[aa])))] for aa in protein
    )


def mutate(rng: np.random.Generator, rna: str, count: int) -> str:
    """Substitute ``count`` distinct positions with a different nucleotide."""
    letters = list(rna)
    for index in rng.choice(len(letters), size=count, replace=False):
        others = [n for n in "ACGU" if n != letters[index]]
        letters[index] = others[int(rng.integers(0, 3))]
    return "".join(letters)


def make_inputs(
    seed: int,
    num_references: int,
    reference_length: int,
    query_lengths: Sequence[int],
) -> Inputs:
    """A database of equal-length random references with every query planted once.

    Plants are spread round-robin over the references and never overlap.
    """
    rng = np.random.default_rng(seed)
    references = [
        NUCLEOTIDES[rng.integers(0, 4, reference_length)].tobytes().decode("ascii")
        for _ in range(num_references)
    ]
    queries = [random_protein(rng, int(n)) for n in query_lengths]
    plants: List[Plant] = []
    slots: Dict[int, List[Tuple[int, int]]] = {}
    order = rng.permutation(len(queries))
    for rank, query in enumerate(order.tolist()):
        reference = rank % num_references
        coding = mutate(
            rng,
            back_translate(rng, queries[query]),
            int(rng.integers(1, MAX_SUBSTITUTIONS + 1)),
        )
        taken = slots.setdefault(reference, [])
        while True:
            position = int(rng.integers(0, reference_length - len(coding)))
            if all(position + len(coding) <= a or b <= position for a, b in taken):
                break
        taken.append((position, position + len(coding)))
        text = references[reference]
        references[reference] = (
            text[:position] + coding + text[position + len(coding):]
        )
        plants.append(Plant(query, reference, position))
    plants.sort(key=lambda p: p.query)
    names = [f"ref{i:04d}" for i in range(num_references)]
    return Inputs(names, references, queries, plants)


def stratified_lengths(count: int, low: int, high: int) -> List[int]:
    """``count`` lengths evenly spread over ``[low, high]`` (a fixed multiset)."""
    if count == 1:
        return [high]
    return [round(low + (high - low) * i / (count - 1)) for i in range(count)]

"""Correctness gate: every output the benchmark times is checked afterwards.

A query's output is reduced to its hit list, ``(reference, position,
score)`` triples in reference order.  :meth:`Gate.check` requires that

* the result covers every reference, in order, at the expected threshold;
* every planted ``(reference, position)`` of the query is hit;
* every reported hit clears the threshold and matches the ``naive`` oracle
  re-scored over the hit's own window;
* for a small fixed sample of queries, the full hit list over each sampled
  query's planted reference equals the independent ``vectorized`` engine's.

Oracle and vectorized results are memoised, so checking many repeated
outputs stays cheap.  Failures are recorded, never masked.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from inputs import Inputs

Hit = Tuple[int, int, int]

#: The program's default identity cut (90 % of the query's elements).
MIN_IDENTITY = 0.9

#: Queries per workload whose hit lists are compared with the vectorized engine.
VECTORIZED_SAMPLE = 2


def threshold_for(query: str) -> int:
    """Absolute threshold for a protein query: three elements per residue."""
    elements = 3 * len(query)
    return math.ceil(MIN_IDENTITY * elements)


def hits_from_results(results) -> Tuple[List[Hit], List[Tuple[str, int, int]]]:
    """Hit triples and per-reference ``(name, length, threshold)`` of a result list."""
    hits: List[Hit] = []
    shape = []
    for index, result in enumerate(results):
        shape.append((result.reference_name, result.reference_length, result.threshold))
        hits.extend((index, hit.position, hit.score) for hit in result.hits)
    return hits, shape


def hits_from_json(results: Sequence[dict]) -> Tuple[List[Hit], List[Tuple[str, int, int]]]:
    """The same reduction for the HTTP ``/results`` payload."""
    hits: List[Hit] = []
    shape = []
    for index, result in enumerate(results):
        shape.append((result["reference"], result["reference_length"], result["threshold"]))
        hits.extend((index, int(p), int(s)) for p, s in result["hits"])
    return hits, shape


class Gate:
    """Checks hit lists of one workload's queries against its planted inputs."""

    def __init__(self, inputs: Inputs):
        from repro.core.aligner import alignment_scores, alignment_scores_naive
        from repro.core.encoding import encode_query

        self.inputs = inputs
        self._naive = alignment_scores_naive
        self._scores = alignment_scores
        self._encode = encode_query
        self._encoded: Dict[int, object] = {}
        self._oracle: Dict[Tuple[int, int, int], int] = {}
        self._vectorized: Dict[Tuple[int, int], List[Hit]] = {}
        self.sample = set(range(min(VECTORIZED_SAMPLE, len(inputs.queries))))
        self.checked = 0
        self.failures: List[str] = []

    def _query(self, query: int):
        if query not in self._encoded:
            self._encoded[query] = self._encode(self.inputs.queries[query])
        return self._encoded[query]

    def oracle_score(self, query: int, reference: int, position: int) -> int:
        key = (query, reference, position)
        if key not in self._oracle:
            span = 3 * len(self.inputs.queries[query])
            window = self.inputs.references[reference][position:position + span]
            scores = self._naive(self._query(query), window)
            self._oracle[key] = int(scores[0]) if scores.size == 1 else -1
        return self._oracle[key]

    def vectorized_hits(self, query: int, reference: int) -> List[Hit]:
        key = (query, reference)
        if key not in self._vectorized:
            scores = self._scores(
                self._query(query), self.inputs.references[reference],
                engine="vectorized",
            )
            threshold = threshold_for(self.inputs.queries[query])
            positions = np.flatnonzero(scores >= threshold)
            self._vectorized[key] = [
                (reference, int(p), int(scores[p])) for p in positions
            ]
        return self._vectorized[key]

    def check(
        self,
        query: int,
        hits: Sequence[Hit],
        shape: Optional[Sequence[Tuple[str, int, int]]] = None,
    ) -> bool:
        """Record and return whether one query's output is correct."""
        self.checked += 1
        error = self._error(query, list(hits), shape)
        if error is not None:
            self.failures.append(f"query {query}: {error}")
        return error is None

    def _error(self, query, hits, shape) -> Optional[str]:
        inputs = self.inputs
        threshold = threshold_for(inputs.queries[query])
        if shape is not None:
            expected = [
                (name, length, threshold)
                for name, length in zip(inputs.names, inputs.lengths)
            ]
            if [tuple(s) for s in shape] != expected:
                return "result list does not cover the database in order"
        if hits != sorted(hits):
            return "hits out of (reference, position) order"
        located = {(r, p) for r, p, _ in hits}
        for plant in inputs.plants_of(query):
            if (plant.reference, plant.position) not in located:
                return f"planted hit {plant.reference}:{plant.position} missing"
        for reference, position, score in hits:
            if score < threshold:
                return f"hit {reference}:{position} below threshold"
            oracle = self.oracle_score(query, reference, position)
            if score != oracle:
                return f"hit {reference}:{position} scored {score}, oracle {oracle}"
        if query in self.sample:
            for plant in inputs.plants_of(query):
                own = [h for h in hits if h[0] == plant.reference]
                if own != self.vectorized_hits(query, plant.reference):
                    return f"hit list on reference {plant.reference} differs from vectorized"
        return None

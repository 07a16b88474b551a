"""The compiled batch scan kernel against the ``naive`` oracle, and its fallback.

``bitscore.scores_batch`` runs ``scan_kernel.c`` when the library was built
and its NumPy body otherwise.  The edge cases here sit where the C code
could go wrong: word and tile edges (a tile is 8 words, 512 positions),
references shorter than the look-back window, dependent-only queries,
ragged batches that size the shared planes, counters wider than the
750-element budget, the fold's 8-row block and 64-element unroll, the
change from fixed-depth fold instances to the run-time-depth one at 1,024
elements, the plane build's direct and complemented minterm sums (over the
context, and over the code alone for masks that ignore the look-back),
builds cut short to the words a block's folds read, the bound that lets a
hits-only fold abandon a tile, and the fold order (each residue class mod
64 lightest element first) that lets it abandon sooner.
"""

import numpy as np
import pytest

from repro.core import bitscore, native
from repro.core.aligner import scores_batch_from_codes, scores_from_codes
from repro.core.encoding import encode_query, pad_instruction
from repro.seq.generate import random_protein
from repro.seq import packing
from repro.seq.packing import codes_from_text
from repro.workloads.builder import encode_protein_as_rna

requires_native = pytest.mark.skipif(
    bitscore._NATIVE is None, reason="the compiled kernel is not available"
)


def _naive(instructions, codes):
    return scores_from_codes(instructions, codes, "naive")


def _naive_prefix_scores(instructions, codes):
    """``naive`` scores of every prefix ``instructions[:n]``, ``n >= 1``.

    Row ``v`` of ``matches`` is the ``naive`` score of the one-element query
    ``[v]``: instruction ``v``'s comparator output at each position.  The
    score of element count ``n`` at position ``p`` is the sum of element
    ``i``'s output at ``p + i`` over ``i < n``, accumulated one element at a
    time, so each count costs one vector add instead of a ``naive`` run.
    """
    matches = np.stack([_naive(np.array([v], dtype=np.uint8), codes) for v in range(64)])
    total = np.zeros(codes.size, dtype=np.int32)
    prefix = {}
    for n, instruction in enumerate(instructions, start=1):
        total[: codes.size - n + 1] += matches[instruction, n - 1 :]
        prefix[n] = total[: codes.size - n + 1].copy()
    return prefix


def _build_planes(masks, codes, plane_words, x0=0, words=None, fill=0):
    """``fabp_build_planes`` over ``codes`` packed to 2 bits, from position
    ``x0`` (a multiple of 64): the first ``words`` (default all) of each
    ``plane_words``-word plane, the rest left at ``fill``."""
    packed = packing.pack(codes)
    masks = np.ascontiguousarray(masks, dtype=np.uint64)
    planes = np.full((masks.size, plane_words), fill, dtype=np.uint64)
    bitscore._NATIVE.fabp_build_planes(
        packed.ctypes.data, packed.size, x0, masks.ctypes.data, masks.size,
        planes.ctypes.data, plane_words, plane_words if words is None else words,
    )
    return planes


def _assert_batch_is_naive(batch, codes):
    got = bitscore.scores_batch(batch, codes)
    assert len(got) == len(batch)
    for scores, instructions in zip(got, batch):
        assert scores.dtype == np.int32
        assert np.array_equal(scores, _naive(instructions, codes))


@requires_native
class TestNativeKernel:
    @pytest.mark.parametrize("positions", [1, 63, 64, 65, 511, 512, 513])
    def test_word_and_tile_edges(self, rng, positions):
        batch = [encode_query(random_protein(aa, rng=rng)).as_array() for aa in (1, 9, 30)]
        for instructions in batch:
            codes = rng.integers(0, 4, instructions.size + positions - 1).astype(np.uint8)
            scores = bitscore.scores_batch([instructions], codes)[0]
            assert scores.size == positions
            assert np.array_equal(scores, _naive(instructions, codes))

    @pytest.mark.parametrize("length", [1, 2])
    def test_reference_shorter_than_lookback(self, rng, length):
        """Raw instructions of every config read look-back past the start as A."""
        codes = rng.integers(0, 4, length).astype(np.uint8)
        batch = [np.arange(64, dtype=np.uint8)[i : i + length] for i in range(0, 64, 2)]
        batch += [np.array([i], dtype=np.uint8) for i in range(64)]
        _assert_batch_is_naive(batch, codes)

    def test_every_instruction_over_every_context(self, rng):
        codes = rng.integers(0, 4, 3000).astype(np.uint8)
        batch = [rng.permutation(64).astype(np.uint8) for _ in range(3)]
        _assert_batch_is_naive(batch, codes)

    def test_every_plane_is_match_bytes(self):
        """All 256 instruction bytes over all 64 contexts, bit for bit.

        Position ``3c + 2`` of the reference sees context ``c = code |
        prev1 << 2 | prev2 << 4``; every other position (the first two read
        look-back as A) is checked too.  This pins ``_CONTEXT_MASKS`` to
        ``comparator.instruction_tables`` through ``match_bytes``.
        """
        contexts = np.arange(64)
        codes = np.stack(
            [(contexts >> 4) & 3, (contexts >> 2) & 3, contexts & 3], axis=1
        ).ravel().astype(np.uint8)
        instructions = np.arange(256, dtype=np.uint8)
        plane_words = -(-codes.size // bitscore.WORD_BITS)
        planes = _build_planes(
            bitscore._CONTEXT_MASKS[instructions & 63], codes, plane_words
        )
        bits = np.unpackbits(
            planes.view(np.uint8), axis=1, bitorder="little", count=codes.size
        )
        rows, element_rows = bitscore.match_bytes(instructions, codes)
        assert np.array_equal(element_rows, np.arange(256))
        assert np.array_equal(bits, rows)

    def test_instruction_bits_above_six_select_nothing(self, rng, monkeypatch):
        """Raw bytes past 63 score as their low six bits, as in the NumPy body."""
        codes = rng.integers(0, 4, 700).astype(np.uint8)
        batch = [rng.permutation(256).astype(np.uint8)[:90] for _ in range(3)]
        native_scores = bitscore.scores_batch(batch, codes)
        monkeypatch.setattr(bitscore, "_NATIVE", None)
        for got, want in zip(native_scores, bitscore.scores_batch(batch, codes)):
            assert np.array_equal(got, want)

    def test_all_type_iii_queries(self, rng):
        batch = [encode_query("".join(rng.choice(list("LRS*"), 40))).as_array()
                 for _ in range(4)]
        codes = rng.integers(0, 4, 2000).astype(np.uint8)
        _assert_batch_is_naive(batch, codes)

    def test_ragged_batch_sizes_planes_for_every_member(self, rng):
        """The longest member keeps one position; the shortest has the most."""
        codes = rng.integers(0, 4, 1100).astype(np.uint8)
        lengths = (1, 37, 170, 366)  # 366 aa = 1098 elements: 3 positions
        batch = [encode_query(random_protein(aa, rng=rng)).as_array() for aa in lengths]
        batch.append(rng.integers(0, 64, codes.size).astype(np.uint8))  # 1 position
        _assert_batch_is_naive(batch, codes)

    def test_query_past_the_lane_budget_is_exact(self, rng):
        """1,200 elements need 11 counter planes, not the 10 of 750."""
        protein = random_protein(400, rng=rng)
        instructions = encode_query(protein).as_array()
        assert instructions.size == 1200
        codes = rng.integers(0, 4, 2500).astype(np.uint8)
        # A planted back-translation scores past 10 bits at position 100.
        codes[100:1300] = codes_from_text(encode_protein_as_rna(protein, rng=rng).letters)
        got = scores_from_codes(instructions, codes, "bitscore_batch")
        assert got[100] >= 1 << 10
        assert np.array_equal(got, _naive(instructions, codes))

    def test_matches_numpy_body_on_a_long_reference(self, rng, monkeypatch):
        batch = [encode_query(random_protein(aa, rng=rng)).as_array() for aa in (250, 80)]
        codes = rng.integers(0, 4, 60_000).astype(np.uint8)
        native_scores = bitscore.scores_batch(batch, codes)
        monkeypatch.setattr(bitscore, "_NATIVE", None)
        for got, want in zip(native_scores, bitscore.scores_batch(batch, codes)):
            assert np.array_equal(got, want)


@requires_native
class TestFoldBoundaries:
    """Fused hits and kept scores against ``naive`` at every fold boundary.

    Counts 1-130 cross the 8-row block and the 64-element unroll twice;
    511-513 cross counter depth 9 -> 10, and 1,023-1,025 cross 10 -> 11,
    where the last two counts run the run-time-depth fold.  Positions span
    several 512-position tiles, and one batch member keeps a slice whose
    ends are not word-aligned.
    """

    INSTRUCTIONS = np.random.default_rng(25).integers(0, 64, 1025).astype(np.uint8)
    CODES = np.random.default_rng(26).integers(0, 4, 1025 + 599).astype(np.uint8)

    @pytest.fixture(scope="class")
    def oracle(self):
        return _naive_prefix_scores(self.INSTRUCTIONS, self.CODES)

    @pytest.mark.parametrize(
        "counts",
        [range(1, 131), range(511, 514), range(1023, 1026)],
        ids=["1-130", "511-513", "1023-1025"],
    )
    def test_hits_and_kept_scores_match_naive(self, oracle, counts):
        for n in counts:
            want = oracle[n]
            positions = want.size
            # Five thresholds over every position (span n: a perfect match;
            # n + 1: none), then threshold 1 over a slice off word edges.
            thresholds = [0, 1, int(np.median(want)), n, n + 1, 1]
            bounds = [(0, positions)] * 5 + [(37, positions - 70)]
            results = bitscore.hits_batch(
                [self.INSTRUCTIONS[:n]] * len(thresholds), self.CODES,
                thresholds, bounds, keep_scores=True,
            )
            for threshold, (lo, hi), (hits, hit_scores, kept) in zip(
                thresholds, bounds, results
            ):
                window = want[lo:hi]
                (expected,) = np.nonzero(window >= threshold)
                assert np.array_equal(hits, expected), (n, threshold, lo)
                assert np.array_equal(hit_scores, window[expected]), (n, threshold)
                assert np.array_equal(kept, window), (n, lo, hi)


#: One instruction per code that matches exactly that nucleotide, whatever
#: precedes it: a query of them matches the reference it was copied from.
EXACT = np.array([0, 8, 4, 12], dtype=np.uint8)


def _naive_by_element(instructions, codes):
    """``naive`` scores summed from one-element ``naive`` runs, one per element."""
    rows = {int(v): _naive(np.array([v], dtype=np.uint8), codes) for v in set(instructions)}
    count = codes.size - instructions.size + 1
    total = np.zeros(count, dtype=np.int32)
    for i, v in enumerate(instructions.tolist()):
        total += rows[v][i : i + count]
    return total


def _plant(codes, query, position, matches):
    """Copy ``query``'s codes to ``position`` with ``matches[i]`` saying
    whether element ``i`` matches there (a mismatch is the next code)."""
    for i, (code, match) in enumerate(zip(query.tolist(), matches)):
        codes[position + i] = code if match else (code + 1) % 4


@pytest.fixture
def fold_rows():
    """``hits_batch`` with observability on; returns the call's results and
    its folded and nominal element rows (one element over one tile)."""
    from repro import obs
    from repro.obs import REGISTRY

    def run(*args, **kwargs):
        obs.reset()
        obs.enable()
        try:
            results = bitscore.hits_batch(*args, **kwargs)
            (family,) = [f for f in REGISTRY.families() if f.name == "fabp_fold_rows_total"]
            folded = family.labels(outcome="folded").value
            return results, folded, folded + family.labels(outcome="skipped").value
        finally:
            obs.disable()
            obs.reset()

    return run


@requires_native
class TestAbandonedTiles:
    """A hits-only fold stops a tile once the bound ``t - (n - i)`` rules it out.

    The bound is checked after each 64-element stretch and each 8-row tail
    block.  A planted position whose matches all sit in the last elements
    has exactly ``t - (n - i)`` at every check, so a bound one element or
    one stretch too strict drops its hit; a position one short of the bound
    at the first check must not keep its tile, so a bound too loose folds
    rows it should have skipped.
    """

    #: Counter depth 3 (n < 8: single rows only, never abandoned), 4-10,
    #: and the run-time depth past 1,023.
    COUNTS = [5, 8, 20, 40, 100, 200, 300, 750, 1030]

    @staticmethod
    def _case(n, seed, positions=6 * 512 - 3):
        rng = np.random.default_rng(seed)
        query = rng.integers(0, 4, n).astype(np.uint8)
        codes = rng.integers(0, 4, positions + n - 1).astype(np.uint8)
        return query, codes

    @pytest.mark.parametrize(
        "n, late", [(n, late) for n in COUNTS for late in (0, 1, 3, 30) if late < n]
    )
    def test_matches_in_the_last_elements_keep_their_tile(self, n, late):
        """Threshold ``n - late``; the hit at 1,100 matches only its last
        ``n - late`` elements, the one at 2,300 (tile 4) all but its first."""
        query, codes = self._case(n, seed=n * 31 + late)
        threshold = n - late
        _plant(codes, query, 1100, [i >= late for i in range(n)])
        _plant(codes, query, 2300, [i > 0 for i in range(n)])
        instructions = EXACT[query]
        want = _naive_by_element(instructions, codes)
        assert want[1100] == threshold
        ((positions, hit_scores, _),) = bitscore.hits_batch(
            [instructions], codes, [threshold], [(0, want.size)]
        )
        (expected,) = np.nonzero(want >= threshold)
        assert 1100 in expected.tolist()
        assert np.array_equal(positions, expected)
        assert np.array_equal(hit_scores, want[expected])

    @pytest.mark.parametrize("n", COUNTS)
    def test_tiles_out_of_reach_stop_at_the_first_check(self, n, fold_rows):
        """Threshold ``n`` (perfect matches only).  Tile 1 holds a position
        matching the first ``c - 1`` of the ``c`` elements before the first
        check and tile 4 a perfect match: every tile but tile 4 stops at the
        first check, tile 4 folds all ``n`` rows."""
        query, codes = self._case(n, seed=n)
        check = 64 if n >= 64 else (8 if n >= 8 else n)
        _plant(codes, query, 700, [i != check - 1 for i in range(n)])
        _plant(codes, query, 2300, [True] * n)
        instructions = EXACT[query]
        want = _naive_by_element(instructions, codes)
        assert want[700] == n - 1 and want[2300] == n
        ((positions, hit_scores, _),), folded, nominal = fold_rows(
            [instructions], codes, [n], [(0, want.size)]
        )
        (expected,) = np.nonzero(want >= n)
        assert np.array_equal(positions, expected)
        assert np.array_equal(hit_scores, want[expected])
        tiles = -(-want.size // 512)
        assert nominal == tiles * n
        assert folded == (tiles - 1) * check + n

    def test_kept_scores_and_threshold_zero_fold_everything(self, fold_rows):
        query, codes = self._case(300, seed=3)
        instructions = EXACT[query]
        count = codes.size - query.size + 1
        for threshold, keep in ((300, True), (0, False)):
            _, folded, nominal = fold_rows(
                [instructions], codes, [threshold], [(0, count)], keep_scores=keep
            )
            assert folded == nominal == 6 * 300

    @pytest.mark.parametrize(
        "bounds", [(0, 1), (37, 1900), (511, 513), (512, 1024), (1099, 1101), (1101, 3069)]
    )
    def test_ragged_bounds(self, bounds):
        """Perfect matches at 511, 1,100 and 1,900, thresholds at and one
        below the span; bounds that start and end inside words and tiles."""
        n = 200
        query, codes = self._case(n, seed=5)
        for position in (511, 1100, 1900):
            _plant(codes, query, position, [True] * n)
        instructions = EXACT[query]
        want = _naive_by_element(instructions, codes)
        lo, hi = bounds
        thresholds = [n, n - 1, n // 2]
        results = bitscore.hits_batch(
            [instructions] * 3, codes, thresholds, [bounds] * 3
        )
        for threshold, (positions, hit_scores, _) in zip(thresholds, results):
            (expected,) = np.nonzero(want[lo:hi] >= threshold)
            assert np.array_equal(positions, expected), (bounds, threshold)
            assert np.array_equal(hit_scores, want[lo:hi][expected])


#: The 22 instructions that ignore the look-back, with the codes they match
#: (bit c of the nibble: code c); each code matched weighs 16 contexts.
CODE_ONLY = {
    v: mask & 0xF
    for v, mask in enumerate(bitscore._CONTEXT_MASKS[:64].tolist())
    if mask == (mask & 0xF) * 0x1111111111111111
}
#: The code-only instructions a position can mismatch: weights 16, 32, 48.
SELECTIVE = np.array([v for v, nibble in CODE_ONLY.items() if nibble != 0xF], dtype=np.uint8)
#: The code-only instructions of weight 64, which match every context.
ALWAYS = np.array([v for v, nibble in CODE_ONLY.items() if nibble == 0xF], dtype=np.uint8)


def _fold_order(instructions):
    """The kernel's fold order: slot ``p`` folds element ``order[p]``.

    ``order[p] % 64 == p % 64``; within each residue class the elements go
    by weight (contexts matched: the popcount of the truth mask), lightest
    first, ties by index.
    """
    masks = bitscore._CONTEXT_MASKS[np.asarray(instructions) & 63]
    weights = np.array([bin(int(m)).count("1") for m in masks.tolist()])
    order = np.arange(len(instructions))
    for r in range(min(64, len(instructions))):
        members = order[r::64]
        order[r::64] = members[np.lexsort((members, weights[members]))]
    return order


def _checks(n):
    """Element counts after which a hits-only fold checks the bound: each
    64-element stretch, then each 8-row block of the tail."""
    stretches = list(range(64, n + 1, 64))
    return stretches + list(range(64 * (n // 64) + 8, n + 1, 8))


def _modelled_rows(instructions, codes, threshold, order, tile=512):
    """Element rows a hits-only fold of code-only ``instructions`` over all of
    ``codes`` folds when it folds slot ``p`` as element ``order[p]``.

    Every position of a tile takes part in the bound, those past the last
    alignment position too: codes past the reference read as A (code 0).
    """
    n = len(instructions)
    positions = codes.size - n + 1
    tiles = -(-positions // tile)
    padded = np.zeros(tiles * tile + n, dtype=np.int64)
    padded[: codes.size] = codes
    nibbles = np.array([CODE_ONLY[int(v)] for v in instructions])
    folded = 0
    for t in range(tiles):
        window = np.lib.stride_tricks.sliding_window_view(
            padded[t * tile : (t + 1) * tile + n - 1], n
        )  # [position, element] -> code
        matches = (nibbles[None, :] >> window) & 1
        partial = np.cumsum(matches[:, order], axis=1)
        rows = n
        for i in _checks(n):
            bound = threshold - (n - i)
            if bound > 0 and partial[:, i - 1].max() < bound:
                rows = i
                break
        folded += rows
    return folded


def _plant_codes(codes, instructions, position, matches):
    """Write codes at ``position`` so that code-only element ``i`` matches
    exactly where ``matches[i]``: its lowest matching code, or its lowest
    other code."""
    for i, (v, match) in enumerate(zip(instructions.tolist(), matches)):
        nibble = CODE_ONLY[v]
        codes[position + i] = min(c for c in range(4) if (nibble >> c & 1) == match)


@requires_native
class TestFoldOrder:
    """The fold runs each residue class mod 64 lightest element first.

    Queries mix instructions of weights 16 to 64, so the fold order is not
    the query order.  Hits at the bound must survive in that order, the
    rows folded must be those of that order (a query whose selective
    elements sit at its end is ruled out after the first stretch, where
    the query order could not abandon before its end), and scores are the
    same sums in any order.  Counts 5-65 cross the single-element classes
    (n <= 64, where the order is the identity) into the first class of two;
    150 and 750 (n % 64 = 46) have ragged classes; 1,023-1,030 run the
    run-time-depth fold.
    """

    COUNTS = [5, 63, 64, 65, 150, 750, *range(1023, 1031)]

    @staticmethod
    def _case(n, seed, positions=6 * 512 - 3):
        rng = np.random.default_rng(seed)
        instructions = rng.choice(SELECTIVE, n).astype(np.uint8)
        codes = rng.integers(0, 4, positions + n - 1).astype(np.uint8)
        return instructions, codes

    @pytest.mark.parametrize(
        "n, first", [(n, m) for n in COUNTS for m in (1, 3, 30, 100) if m < n]
    )
    def test_mismatches_in_the_first_folded_elements_keep_their_tile(
        self, n, first, fold_rows
    ):
        """Threshold ``n - first``.  The position at 1,100 mismatches the
        ``first`` elements folded first, so after ``i`` slots it has
        ``i - first``: exactly the bound ``t - (n - i)`` at every check.
        The one at 2,300 mismatches only the element folded last.  The rows
        folded are those a model of the fold in this order folds."""
        instructions, codes = self._case(n, seed=n * 37 + first)
        order = _fold_order(instructions)
        assert sorted(order.tolist()) == list(range(n))
        assert all(order % 64 == np.arange(n) % 64)
        threshold = n - first
        early = np.zeros(n, dtype=bool)
        early[order[:first]] = True
        _plant_codes(codes, instructions, 1100, ~early)
        _plant_codes(codes, instructions, 2300, np.arange(n) != order[-1])
        want = _naive_by_element(instructions, codes)
        assert want[1100] == threshold and want[2300] == n - 1
        # At the bound at every check the fold makes (in fold order).
        matched = np.cumsum(~early[order])
        for i in _checks(n):
            if threshold - (n - i) > 0:
                assert matched[i - 1] == threshold - (n - i)
        ((positions, hit_scores, _),), folded, _ = fold_rows(
            [instructions], codes, [threshold], [(0, want.size)]
        )
        (expected,) = np.nonzero(want >= threshold)
        assert {1100, 2300} <= set(expected.tolist())
        assert np.array_equal(positions, expected)
        assert np.array_equal(hit_scores, want[expected])
        assert folded == _modelled_rows(instructions, codes, threshold, order)

    @pytest.mark.parametrize("n", COUNTS)
    def test_selective_elements_at_the_end_stop_at_the_first_check(self, n, fold_rows):
        """The first ``n - 64`` elements match every context, the last 64
        (or all ``n``) weigh 16-48; threshold ``n``.  In query order every
        count equals the bound until the selective elements start, so no
        tile could stop before them; in fold order they come first.  Tile
        0 holds a position mismatching only the element folded just before
        the first check, tile 2 one mismatching only the element folded just
        after it, tile 4 a perfect match (each copy in a tile of its own).
        A second query of the batch puts its selective elements first; the
        rows of both are counted against a model of the fold."""
        rng = np.random.default_rng(n)
        selective = min(n, 64)
        late = np.concatenate([
            rng.choice(ALWAYS, n - selective), rng.choice(SELECTIVE, selective)
        ]).astype(np.uint8)
        early = late[::-1].copy()
        codes = rng.integers(0, 4, 6 * 512 - 3 + n - 1).astype(np.uint8)
        order = _fold_order(late)
        check = _checks(n)[0] if n >= 8 else n
        _plant_codes(codes, late, 100, np.arange(n) != order[check - 1])
        # Tile 2's copy needs an element after the first check to mismatch.
        after = check < n and int(late[order[check]]) not in ALWAYS
        if after:
            _plant_codes(codes, late, 1200, np.arange(n) != order[check])
        _plant_codes(codes, late, 2300, np.ones(n, dtype=bool))
        batch = [late, early]
        want = [_naive_by_element(instructions, codes) for instructions in batch]
        assert want[0][100] == n - 1 and want[0][2300] == n
        results, folded, nominal = fold_rows(batch, codes, [n, n], [(0, want[0].size)] * 2)
        for (positions, hit_scores, _), scores in zip(results, want):
            (expected,) = np.nonzero(scores >= n)
            assert np.array_equal(positions, expected)
            assert np.array_equal(hit_scores, scores[expected])
        tiles = -(-want[0].size // 512)
        assert nominal == 2 * tiles * n
        rows = [_modelled_rows(q, codes, n, _fold_order(q)) for q in batch]
        assert folded == sum(rows)
        if n >= 64:
            # Every tile stops at the first check but tile 2 (at the next
            # one, when it holds a copy) and tile 4 (folded whole).
            second = [i for i in _checks(n) if i > check][0] if after else check
            assert rows[0] == (tiles - 2) * check + second + n
        if n - selective >= 64:
            in_query_order = _modelled_rows(late, codes, n, np.arange(n))
            assert in_query_order >= tiles * (n - selective) > rows[0]

    @pytest.mark.parametrize("n", COUNTS)
    def test_kept_scores_and_threshold_zero_match_naive(self, n, fold_rows):
        """Instructions of every weight, look-back ones included;
        thresholds 0, 1, the median, the top and one above it over
        every position, and a slice off word edges; then threshold 0 alone,
        which folds every row."""
        rng = np.random.default_rng(1000 + n)
        instructions = rng.integers(0, 64, n).astype(np.uint8)
        codes = rng.integers(0, 4, 3 * 512 + 5 + n - 1).astype(np.uint8)
        want = _naive_by_element(instructions, codes)
        top = int(want.max())
        thresholds = [0, 1, int(np.median(want)), top, top + 1, top]
        bounds = [(0, want.size)] * 5 + [(37, want.size - 70)]
        results = bitscore.hits_batch(
            [instructions] * len(thresholds), codes, thresholds, bounds, keep_scores=True
        )
        for threshold, (lo, hi), (hits, hit_scores, kept) in zip(thresholds, bounds, results):
            window = want[lo:hi]
            (expected,) = np.nonzero(window >= threshold)
            assert np.array_equal(hits, expected), (n, threshold, lo)
            assert np.array_equal(hit_scores, window[expected]), (n, threshold)
            assert np.array_equal(kept, window), (n, lo, hi)
        ((hits, hit_scores, _),), folded, nominal = fold_rows(
            [instructions], codes, [0], [(0, want.size)]
        )
        assert np.array_equal(hits, np.arange(want.size))
        assert np.array_equal(hit_scores, want)
        assert folded == nominal == 4 * n

    def test_mixed_batch_of_encoded_queries(self):
        """Back-translated queries (fixed bases, wobble positions and
        look-back elements) of ragged lengths in one call, with planted
        copies, at 90 % identity and at the top score."""
        rng = np.random.default_rng(33)
        proteins = [random_protein(aa, rng=rng) for aa in (250, 90, 17)]
        batch = [encode_query(p).as_array() for p in proteins]
        codes = rng.integers(0, 4, 4_000).astype(np.uint8)
        for protein, at in zip(proteins, (200, 1900, 3500)):
            rna = codes_from_text(encode_protein_as_rna(protein, rng=rng).letters)
            codes[at : at + rna.size] = rna
        wants = [_naive_by_element(q, codes) for q in batch]
        thresholds = [-(-9 * q.size // 10) for q in batch]
        thresholds += [int(w.max()) for w in wants]
        spans = [q.size for q in batch] * 2
        bounds = [(0, codes.size - s + 1) for s in spans]
        results = bitscore.hits_batch(batch * 2, codes, thresholds, bounds)
        for (hits, hit_scores, _), want, threshold in zip(results, wants * 2, thresholds):
            (expected,) = np.nonzero(want >= threshold)
            assert expected.size > 0
            assert np.array_equal(hits, expected)
            assert np.array_equal(hit_scores, want[expected])


@requires_native
def test_plane_build_direct_and_complemented_minterm_sums(rng):
    """Masks selecting 0, 1, 32, 33, 63 and 64 of the 64 contexts.

    Up to 32 selected minterms are ORed directly; past 32 the plane is the
    complement of the OR of the unselected ones.  The last mask is the
    all-match ``D`` instruction's.
    """
    selections = [0, 1, 32, 33, 63, 64]
    masks = [sum(1 << int(v) for v in rng.permutation(64)[:count]) for count in selections]
    d_mask = int(bitscore._CONTEXT_MASKS[pad_instruction()])
    assert d_mask == (1 << 64) - 1
    masks = np.array(masks + [d_mask], dtype=np.uint64)
    codes = rng.integers(0, 4, 1300).astype(np.uint8)
    planes = _build_planes(masks, codes, -(-codes.size // bitscore.WORD_BITS))
    # Look-back before the reference start reads as A (code 0).
    padded = np.concatenate([np.zeros(2, dtype=np.uint8), codes]).astype(np.int64)
    contexts = (padded[2:] | padded[1:-1] << 2 | padded[:-2] << 4).astype(np.uint64)
    want = (masks[:, None] >> contexts) & np.uint64(1)
    bits = np.unpackbits(planes.view(np.uint8), axis=1, bitorder="little", count=codes.size)
    for count, mask, got, expected in zip(selections + [64], masks, bits, want):
        assert bin(int(mask)).count("1") == count
        assert np.array_equal(got, expected), count


#: Each of the 16 context nibbles of a code-only mask is its low nibble.
_CODE_ONLY = np.uint64(0x1111111111111111)


@requires_native
@pytest.mark.parametrize("x0", [64, 32_768])
def test_plane_build_mixes_code_only_and_look_back_masks(rng, x0):
    """Planes from ``x0`` on, where the look-back reads real codes.

    Masks that ignore the look-back are built from the code minterms
    alone, the rest from the context minterms.  Every instruction's mask
    (22 of the 64 ignore the look-back) is checked against
    ``match_bytes``, and every code-only mask, selecting 0 to 4 codes,
    against its truth table.
    """
    instructions = np.arange(64, dtype=np.uint8)
    masks = bitscore._CONTEXT_MASKS[instructions]
    assert int(np.count_nonzero(masks == (masks & np.uint64(0xF)) * _CODE_ONLY)) == 22
    code_only = np.arange(16, dtype=np.uint64) * _CODE_ONLY
    codes = rng.integers(0, 4, x0 + 1_300).astype(np.uint8)
    count = codes.size - x0
    planes = _build_planes(
        np.concatenate([masks, code_only]), codes, -(-count // bitscore.WORD_BITS), x0
    )
    bits = np.unpackbits(planes.view(np.uint8), axis=1, bitorder="little", count=count)
    rows, element_rows = bitscore.match_bytes(instructions, codes)
    assert np.array_equal(element_rows, np.arange(64))
    assert np.array_equal(bits[:64], rows[:, x0:])
    want = (np.arange(16)[:, None] >> codes[None, x0:]) & 1
    assert np.array_equal(bits[64:], want)


@requires_native
@pytest.mark.parametrize("words", [1, 7, 8, 9, 100, 529])
def test_plane_build_writes_only_the_words_asked_for(rng, words):
    """A short build is the prefix of the full one and leaves the rest of
    each plane as it was: a task builds a block only up to the words its
    folds read."""
    masks = bitscore._CONTEXT_MASKS[np.arange(64)]
    plane_words = 529
    codes = rng.integers(0, 4, 64 + 64 * plane_words).astype(np.uint8)
    sentinel = 0x5A5A5A5A5A5A5A5A
    full = _build_planes(masks, codes, plane_words, x0=64)
    short = _build_planes(masks, codes, plane_words, x0=64, words=words, fill=sentinel)
    assert np.array_equal(short[:, :words], full[:, :words])
    assert (short[:, words:] == sentinel).all()


@requires_native
@pytest.mark.parametrize("bounds", [(-1, 10), (5, 4), (0, 52)])
def test_hits_batch_refuses_bounds_outside_the_positions(bounds):
    """The kernel reads planes sized from the bounds: bad ones never reach it."""
    instructions = encode_query("MK").as_array()  # 6 elements: 51 positions
    codes = np.zeros(56, dtype=np.uint8)
    with pytest.raises(ValueError, match="outside"):
        bitscore.hits_batch([instructions], codes, [1], [bounds])


def test_codes_outside_the_alphabet_take_the_numpy_body():
    """The NumPy body's IndexError, never a read outside the truth masks."""
    instructions = encode_query("MK").as_array()
    with pytest.raises(IndexError):
        bitscore.scores_batch([instructions], np.full(20, 7, dtype=np.uint8))


class TestFallback:
    def test_missing_compiler_leaves_numpy_working(self, tmp_path, monkeypatch, rng):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setenv("PATH", str(tmp_path))  # no cc on it
        library = native.load()
        assert library is None
        monkeypatch.setattr(bitscore, "_NATIVE", library)
        instructions = encode_query(random_protein(20, rng=rng)).as_array()
        codes = rng.integers(0, 4, 700).astype(np.uint8)
        (got,) = scores_batch_from_codes([instructions], codes, "bitscore_batch")
        assert np.array_equal(got, _naive(instructions, codes))

    def test_failed_build_leaves_no_files(self, tmp_path, monkeypatch):
        failing = tmp_path / "bin" / "cc"
        failing.parent.mkdir()
        failing.write_text("#!/bin/sh\nexit 1\n")
        failing.chmod(0o755)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setenv("PATH", str(failing.parent))
        assert native.load() is None
        assert list(native.cache_dir().iterdir()) == []

    @requires_native
    def test_build_is_cached_by_source_flags_and_cpu(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert native.load() is not None
        (built,) = native.cache_dir().iterdir()
        assert built == native.library_path(native.SOURCE.read_bytes())
        assert native.library_path(b"/* edited */") != built
        monkeypatch.setattr(native, "_cpu_flags", lambda: "another cpu")
        assert native.library_path(native.SOURCE.read_bytes()) != built


# -- the task entry point ------------------------------------------------------

#: Block length in alignment positions: the kernel builds one block's planes
#: at a time, so a seam sits every BLOCK positions from a window's origin.
BLOCK = native.BLOCK_WORDS * bitscore.WORD_BITS


def _palette():
    """The four exact matchers plus one instruction reading each look-back
    source (prev1 high bit, prev2 low bit, prev2 high bit) and the last."""
    from repro.core import comparator

    _, configs = comparator.instruction_tables(np.arange(64, dtype=np.uint8))
    picks = [int(np.flatnonzero(configs == config)[3]) for config in (1, 2, 3)]
    return np.array([*EXACT, *picks, 63], dtype=np.uint8)


PALETTE = _palette()


class _Reference:
    """One reference with the ``naive`` score of each palette instruction at
    every position, so any palette query's ``naive`` scores are a sum."""

    def __init__(self, codes):
        self.codes = codes
        self.rows = {
            int(v): _naive(np.array([v], dtype=np.uint8), codes) for v in PALETTE
        }

    def scores(self, instructions):
        count = max(0, self.codes.size - instructions.size + 1)
        total = np.zeros(count, dtype=np.int32)
        for i, v in enumerate(instructions.tolist()):
            total += self.rows[v][i : i + count]
        return total


def _image(references):
    """References packed one after another from byte offsets, as
    ``PackedDatabase`` packs them."""
    packed = [packing.pack(reference.codes) for reference in references]
    offsets = np.cumsum([0] + [p.size for p in packed])
    return np.concatenate(packed), offsets


def _assert_task_is_naive(references, windows, batch, thresholds, keep_scores):
    """One ``scan_windows`` call over ``windows`` = (reference, start, stop)
    rows equals ``naive``, cell by cell; returns the cells, window-major,
    as ``(hits, hit_scores, kept scores | None)`` cut from the rows."""
    image, offsets = _image(references)
    spans = [
        (int(offsets[r]), references[r].codes.size, start, stop)
        for r, start, stop in windows
    ]
    rows, positions = bitscore.scan_windows(
        image, spans, bitscore.prepare_batch(batch), thresholds, keep_scores
    )
    k = len(batch)
    assert rows.counts.shape == (len(windows), k) and rows.counts.dtype == np.int64
    assert len(rows.positions) == len(rows.hit_scores) == k
    if not keep_scores:
        assert rows.scores is None
    hit_at, score_at = [0] * k, [0] * k
    cells = []
    total = 0
    for j, (r, start, stop) in enumerate(windows):
        for q, (instructions, threshold) in enumerate(zip(batch, thresholds)):
            want = references[r].scores(instructions)[start:stop]
            total += want.size
            hits = slice(hit_at[q], hit_at[q] + int(rows.counts[j, q]))
            hit_at[q] = hits.stop
            cell = (rows.positions[q][hits], rows.hit_scores[q][hits], None)
            if keep_scores:
                cell = cell[:2] + (rows.scores[q][score_at[q] : score_at[q] + want.size],)
                score_at[q] += want.size
            cells.append(cell)
            hits, hit_scores, kept = cell
            (expected,) = np.nonzero(want >= threshold)
            where = (r, start, stop, q, threshold)
            assert hits.dtype == np.int64 and hit_scores.dtype == np.int32
            assert np.array_equal(hits, expected), where
            assert np.array_equal(hit_scores, want[expected]), where
            if keep_scores:
                assert np.array_equal(kept, want), where
    # Every row holds exactly its query's cells.
    assert hit_at == [row.size for row in rows.positions]
    if keep_scores:
        assert score_at == [row.size for row in rows.scores]
    assert positions == total
    return cells


def _palette_query(rng, span):
    return rng.choice(PALETTE, span).astype(np.uint8)


@requires_native
class TestScanTask:
    """``fabp_scan_task`` (through ``bitscore.scan_windows``) against ``naive``.

    It reads 2-bit codes straight from the packed image: windows start at
    every phase of a byte and of a 64-nt word, references end inside a
    byte, planes are built a block at a time with a halo of the longest
    query's span, and hit rows start small and grow.
    """

    @pytest.fixture(scope="class")
    def short(self):
        rng = np.random.default_rng(27)
        lengths = [0, 1, 2, 3, 5, 29, 30, 31, 63, 64, 65, 127, 130, 514, 1027]
        return [_Reference(rng.integers(0, 4, n).astype(np.uint8)) for n in lengths]

    @pytest.fixture(scope="class")
    def long(self):
        """Two block seams, with a 40-element query planted across the seams
        of windows whose origin is 0 or 64 (positions B and 2B, + 64)."""
        rng = np.random.default_rng(28)
        codes = rng.integers(0, 4, 2 * BLOCK + 700).astype(np.uint8)
        query = rng.integers(0, 4, 40).astype(np.uint8)
        for seam in self.SEAMS:
            for at in (seam - 20, seam + 200):
                codes[at : at + query.size] = query
        return _Reference(codes), EXACT[query]

    #: Where the planted copies cross a seam: at seam - 20 of these.
    SEAMS = (BLOCK, BLOCK + 64, 2 * BLOCK, 2 * BLOCK + 64)

    @pytest.mark.parametrize("keep_scores", [False, True])
    def test_every_start_phase_and_ragged_reference_ends(self, short, keep_scores):
        """Starts 0-8 and 60-68 (every nt % 4, both sides of a word edge),
        stops inside and past the positions, references ending at every
        byte phase and shorter than the span, all in one task."""
        rng = np.random.default_rng(29)
        batch = [_palette_query(rng, span) for span in (1, 7, 30)]
        windows = [
            (r, start, start + extent)
            for r, reference in enumerate(short)
            for start in (*range(9), *range(60, 69))
            for extent in (1, 50, 2000)
            if start <= reference.codes.size
        ]
        _assert_task_is_naive(short, windows, batch, [0, 2, 12], keep_scores)

    @pytest.mark.parametrize(
        "start", [0, 1, 2, 3, 5, 63, 64, 65, 67, BLOCK - 1, BLOCK, BLOCK + 1]
    )
    def test_block_seams_keep_hits_and_scores(self, long, start):
        """Windows whose block seams fall at every offset of a word; the
        planted copies across the seams are hits at threshold span, and the
        kept scores of every position around them equal ``naive``."""
        reference, planted = long
        rng = np.random.default_rng(start)
        batch = [planted, _palette_query(rng, 100), _palette_query(rng, 1)]
        stop = reference.codes.size
        windows = [(0, start, stop), (0, start, BLOCK + 1), (0, start, 2 * BLOCK - 1)]
        windows = [w for w in windows if w[2] > w[1]]
        cells = _assert_task_is_naive(
            [reference], windows, batch, [40, 60, 1], keep_scores=True
        )
        # Blocks start at the window's start rounded down to a word.
        origin = start - start % 64
        hits = (cells[0][0] + start).tolist()
        for seam in (origin + BLOCK, origin + 2 * BLOCK):
            if seam in self.SEAMS and seam - 20 >= start:
                assert seam - 20 in hits
        _assert_task_is_naive([reference], windows, batch, [40, 60, 1], False)

    @pytest.mark.parametrize("threshold", [0, 1])
    def test_every_position_a_hit_grows_the_rows(self, long, threshold):
        """At threshold 0 every position is a hit (65k a query, from rows of
        HIT_ROOM entries); threshold 1 nearly so.  Also with rows of one
        tile, so the task resumes before nearly every tile."""
        reference, planted = long
        rng = np.random.default_rng(threshold)
        batch = [planted, _palette_query(rng, 9), _palette_query(rng, 200)]
        windows = [(0, 3, BLOCK + 5), (0, BLOCK + 5, 2 * BLOCK + 640)]
        _assert_task_is_naive([reference], windows, batch, [threshold] * 3, False)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bitscore, "HIT_ROOM", 64 * native.TILE_WORDS)
            _assert_task_is_naive(
                [reference], windows[:1], batch, [threshold] * 3, False
            )

    @pytest.mark.parametrize("k", [1, 2, 5, 16])
    def test_ragged_spans_over_many_references(self, short, k):
        rng = np.random.default_rng(k)
        batch = [_palette_query(rng, int(rng.integers(1, 120))) for _ in range(k)]
        thresholds = [int(rng.integers(0, batch[q].size + 2)) for q in range(k)]
        windows = []
        for r, reference in enumerate(short):
            cuts = sorted(rng.integers(0, reference.codes.size + 1, 2).tolist())
            edges = [0, *cuts, reference.codes.size]
            windows += [(r, a, b) for a, b in zip(edges, edges[1:]) if b > a]
        for keep_scores in (False, True):
            _assert_task_is_naive(short, windows, batch, thresholds, keep_scores)

    def test_short_windows_after_full_blocks(self, long):
        """Windows of 1-1,025 positions, ending on and off tile edges and a
        few positions past a seam, after a window of whole blocks in the same
        task: each block is built only up to its last cell's tiles plus the
        longest span's halo, and the words past them still hold the last
        block's planes.  A 750-element query reads twelve halo words."""
        reference, planted = long
        rng = np.random.default_rng(34)
        batch = [planted, _palette_query(rng, 750), _palette_query(rng, 65)]
        windows = [(0, 0, reference.codes.size)]
        for start in (0, 3, 64, 700, BLOCK - 20, BLOCK + 64, 2 * BLOCK - 512):
            for extent in (1, 63, 64, 65, 511, 512, 513, 1025):
                windows.append((0, start, start + extent))
        windows += [(0, seam - 20, seam + extent) for seam in self.SEAMS for extent in (1, 40)]
        cells = _assert_task_is_naive(
            [reference], windows, batch, [40, 700, 50], keep_scores=True
        )
        _assert_task_is_naive([reference], windows, batch, [40, 700, 50], False)
        # The copies planted across the seams are hits of their own windows.
        for j, (_, start, _) in enumerate(windows[-8:], start=len(windows) - 8):
            assert 0 in cells[j * len(batch)][0].tolist(), start

    def test_scores_only_without_thresholds(self, short):
        rng = np.random.default_rng(30)
        batch = [_palette_query(rng, span) for span in (3, 64, 65)]
        image, offsets = _image(short)
        windows = [(int(offsets[r]), ref.codes.size, 0, ref.codes.size)
                   for r, ref in enumerate(short)]
        rows, _ = bitscore.scan_windows(
            image, windows, bitscore.prepare_batch(batch), None, True
        )
        assert not rows.counts.any()
        for q, instructions in enumerate(batch):
            assert rows.positions[q].size == rows.hit_scores[q].size == 0
            # Query q's row is its scores over every reference, one after another.
            want = [reference.scores(instructions) for reference in short]
            assert np.array_equal(rows.scores[q], np.concatenate(want))


@requires_native
@pytest.mark.parametrize("window", [(-1, 40, 0, 10), (0, 40, -3, 10), (0, -1, 0, 10)])
def test_scan_windows_refuses_negative_windows(window):
    """The kernel reads the image from each offset and start: bad rows never reach it."""
    image = packing.pack(np.zeros(40, dtype=np.uint8))
    prepared = bitscore.prepare_batch([encode_query("MK").as_array()])
    with pytest.raises(ValueError, match="non-negative"):
        bitscore.scan_windows(image, [window], prepared, [1], False)


@requires_native
def test_task_observes_the_same_call_with_observability_on(monkeypatch):
    """One kernel call per task whether observability is on or off, the
    same payload, and the counters the call returns recorded."""
    from repro import obs
    from repro.host.scan import PackedDatabase
    from repro.host.scan_session import plan_batch
    from repro.obs import REGISTRY

    rng = np.random.default_rng(31)
    references = [rng.integers(0, 4, n).astype(np.uint8) for n in (5000, 70_000, 9)]
    database = PackedDatabase.from_references(references)
    queries = [encode_query(random_protein(aa, rng=rng)) for aa in (40, 30)]
    _, tasks = plan_batch(database.lengths, queries, [60, 45], 2, chunk_size=2)
    calls = []
    real = bitscore.scan_windows
    monkeypatch.setattr(
        bitscore, "scan_windows",
        lambda *args: calls.append(args[1]) or real(*args),
    )
    off = [task.run(database, 0) for task in tasks]
    assert len(calls) == len(tasks)
    obs.reset()
    obs.enable()
    try:
        on = [task.run(database, 0) for task in tasks]
        families = {f.name: f for f in REGISTRY.families()}
        score_calls = families["fabp_score_calls_total"].labels(engine="bitscore_batch")
        positions = families["fabp_score_positions_total"].labels(engine="bitscore_batch")
        folded = families["fabp_fold_rows_total"].labels(outcome="folded").value
        assert score_calls.value == len(tasks)
        assert positions.value == sum(
            max(0, min(stop, int(database.lengths[r]) - len(q) + 1) - start)
            for task in tasks for r, start, stop in task.windows for q in queries
        )
        assert folded > 0
    finally:
        obs.disable()
        obs.reset()
    assert len(calls) == 2 * len(tasks)
    for got, want in zip(on, off):
        assert np.array_equal(got.counts, want.counts)
        for field in ("positions", "hit_scores"):
            rows = zip(getattr(got, field), getattr(want, field))
            assert all(np.array_equal(a, b) for a, b in rows)
        assert got.scores is None and want.scores is None

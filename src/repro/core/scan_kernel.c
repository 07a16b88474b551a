/* Compiled batch scan kernel behind repro.core.bitscore.
 *
 * The software form of FabP's datapath (one one-bit comparator per query
 * element feeding a carry-save Pop36 tree, then a threshold comparator),
 * with the counters kept in registers instead of streamed through memory,
 * fed straight from the 2-bit database image as the FPGA's comparators are
 * fed straight from its DRAM beats:
 *
 *   fabp_scan_task     one supervised scan task: k queries over a list of
 *                      windows of the packed image.  Each window is cut
 *                      into blocks of BLOCK_WORDS words of alignment
 *                      positions; a block's match planes are built from the
 *                      image (small enough to stay in L2), up to the words
 *                      its folds read, and all k queries are folded over
 *                      them before the next block is built.
 *   fabp_build_planes  2-bit reference codes -> one packed match bitplane
 *                      per distinct instruction (bit p%64 of word p/64 is
 *                      position x0 + p).  Each instruction is a 64-bit
 *                      truth mask over the context code | prev1<<2 |
 *                      prev2<<4; look-back before the reference start reads
 *                      as A.
 *
 * The fold walks TILE_WORDS-word tiles, funnel-shifts element i's plane by
 * i bits, folds 8 rows at a time (in the fold order below) through a
 * Harley-Seal CSA block into vertical counter planes, then compares the
 * counter planes with the threshold bit-sliced, 64 positions per word.
 * Only a 16-lane group with a lane at or above the threshold is decoded to
 * int32, and each passing position is appended with its score to the
 * query's hit row.
 *
 * Fold order.  Slot p of a query's fold folds element pi(p), not element
 * p, where pi(p) = p (mod 64): within each residue class mod 64 the
 * elements go in ascending popcount of their truth mask (the number of
 * contexts that match), ties by index.  Element pi(p)'s plane is read from
 * word pi(p)/64 of the tile, shifted by pi(p) % 64 = p % 64 bits, so a
 * slot's shift is the same whichever element it holds, and every shift of
 * the unrolled stretch stays a constant.  A task call builds one int32
 * fold table per query: entry p is plane index * plane_words + pi(p)/64,
 * the offset of the word element pi(p) reads at tile word 0.  It takes
 * O(n): a counting sort of the elements over the weights 0-64, then each
 * element dealt to the next free slot of its class.  A count is a sum, so
 * the order leaves every score as it was; folding the elements that match
 * least first keeps the partial counts of positions that will not pass
 * low, so the bound below rules their tile out sooner.
 *
 * The image.  Reference r's codes are packed four to a byte, code x in
 * bits 2(x%4) of byte x/4 from its byte offset; a window row is (byte
 * offset, length in nt, start, stop).  Query q of span s scores the window's
 * alignment positions [start, min(stop, length - s + 1)).  A block's plane
 * words start at a multiple of 64 nt, so each word is 16 whole bytes of
 * the image: two loads and a bit de-interleave, with no unpacked code
 * array.  Bytes past the reference (or the image) read as 0; no alignment
 * position reads a code past its reference.
 *
 * The outputs.  counts[j*k + q] is the hit count of window j, query q.  The
 * hits of query q go to row q of hit_positions / hit_scores (`room` entries
 * a row), window after window, so a cell's hits are contiguous; positions
 * count from the window's start.  scores (NULL, or room for every cell's
 * positions, cell after cell in the same window-major, query-minor order)
 * receives every int32 score.  With no hit rows, or a threshold above the
 * span, a query writes no hits.
 *
 * Bounded hit room.  A tile writes at most 64 * TILE_WORDS hits, so a fold
 * stops before a tile when its row has less room than that left, and the
 * task returns 1 with its place in `state`; the caller grows the rows
 * (keeping what they hold) and calls again with the same state, which
 * resumes at that tile.  state[0..3] is (window, block, query, tile word;
 * -1 when not resuming), state[4] and state[5] accumulate the element rows
 * folded and the nominal rows (one element over one tile), state[6] the
 * positions scored, and state[7 + q] the fill of hit row q.  A fresh call
 * passes zeros with state[3] = -1 and zeroed counts.
 *
 * Counter depth.  An n-element query's counts lie in [0, n], so
 * max(3, n.bit_length()) counter planes hold every count: ones, twos and
 * fours from the Harley-Seal block, then one plane per further bit.  The
 * fold body is instantiated once for each depth 3-10 (n < 1024, which
 * covers every query up to the 750-element budget), so those counter
 * planes live in registers and the carry ripple unrolls; one instance
 * with a run-time depth serves n >= 1024.  The element loop is unrolled
 * by 64 so that every funnel shift of a full 64-element stretch has a
 * constant count; the 8-row and 1-row tails take run-time shifts.
 *
 * Abandoning a tile.  A fold that writes hits and no scores, with a
 * threshold t > 0, stops folding a tile once no position in it can pass.
 * After the first i elements in fold order, a position's count c only
 * grows by the matches of the n - i elements not yet folded, at most one
 * each whichever they are, so its final count is at most c + (n - i).  If
 * every count in the tile is below t - (n - i), every final count is below
 * t: the tile has no hit, and it emits nothing.  A position that passes
 * has c >= t - (n - i) after every i elements, in any order, so it is
 * never dropped; t - (n - i) <= t <= n < 2**levels keeps the
 * comparison exact (at_least), and it is made only while t - (n - i) > 0.
 * The check runs after each 64-element stretch and after each 8-row block
 * of the tail, where the counter planes are whole; counts of positions
 * outside the cell take part too, which can only keep a tile longer.  The
 * scores fold (scores != NULL) and threshold 0 fold every element.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "the plane layout and code packing assume a little-endian host"
#endif
#if !defined(TILE_WORDS) || !defined(BLOCK_WORDS)
#error "compile with -DTILE_WORDS=<words per tile> -DBLOCK_WORDS=<words per block>"
#endif
#if BLOCK_WORDS % TILE_WORDS != 0
#error "a block holds whole tiles"
#endif

#define T TILE_WORDS

/* Counter planes: ones, twos and fours at least, at most one per bit of
 * an int32 count (see the header for the depths with their own fold). */
#define MIN_LEVELS 3
#define MAX_LEVELS 32

#define ALWAYS_INLINE static inline __attribute__((always_inline))

/* Full adder over 64 lanes: a + b + c = l + 2h.  l is written last, so it
 * may alias a. */
#define CSA(h, l, a, b, c)              \
    do {                                \
        __typeof__(a) u_ = (a) ^ (b);   \
        (h) = ((a) & (b)) | (u_ & (c)); \
        (l) = u_ ^ (c);                 \
    } while (0)

/* One tile of T words: a GCC/Clang vector, one AVX-512 register at T=8. */
typedef uint64_t tile_t __attribute__((vector_size(8 * T)));

/* Bits 0, 2, ..., 62 of v as bits 0..31. */
static inline uint64_t even_bits(uint64_t v)
{
    v &= 0x5555555555555555ULL;
    v = (v | v >> 1) & 0x3333333333333333ULL;
    v = (v | v >> 2) & 0x0F0F0F0F0F0F0F0FULL;
    v = (v | v >> 4) & 0x00FF00FF00FF00FFULL;
    v = (v | v >> 8) & 0x0000FFFF0000FFFFULL;
    return (v | v >> 16) & 0x00000000FFFFFFFFULL;
}

/* Bit 0 and bit 1 of codes x..x+63 of a packed reference of `nbytes` bytes
 * (x a multiple of 64, so 16 whole bytes), as two words: bit b is code
 * x + b.  Bytes at or past nbytes read as 0. */
static inline void load_codes(const uint8_t *ref, int64_t nbytes, int64_t x,
                              uint64_t *lo, uint64_t *hi)
{
    uint64_t w[2] = {0, 0};
    int64_t byte = x / 4;
    if (byte + 16 <= nbytes)
        memcpy(w, ref + byte, 16);
    else if (byte < nbytes)
        memcpy(w, ref + byte, (size_t)(nbytes - byte));
    *lo = even_bits(w[0]) | even_bits(w[1]) << 32;
    *hi = even_bits(w[0] >> 1) | even_bits(w[1] >> 1) << 32;
}

/* Build planes a tile at a time from codes x0.. of a packed reference.  The
 * context bits of T words of positions are bit-sliced into six words each
 * (s0, s1: code; s2, s3: the code one position back; s4, s5: two back).
 * Minterm v of those six bits is low[v & 7] & high[v >> 3], the product of
 * a minterm of s0-s2 and one of s3-s5, and each plane ORs the minterms its
 * truth mask selects.  The 64 minterms partition the positions, so a mask
 * selecting more than 32 is built as the complement of the OR of the ones
 * it leaves out: no plane ORs more than 32 terms.
 *
 * A mask that ignores the look-back (each of its 16 nibbles, one per
 * prev1 | prev2 << 2, is the same) is a function of the code alone:
 * mask == (mask & 0xF) * 0x1111111111111111.  Its plane is the OR of the
 * code minterms of s0, s1 its nibble selects, or the complement of the OR
 * of those it leaves out when it selects more than two: at most two ORs,
 * where the sum over the 64 context minterms takes 16 to 32 terms.  Most
 * instructions of an encoded query (every fixed base of a codon) are of
 * this kind.  x0 is a multiple of 64.  Plane j starts at word
 * j * plane_words, and only its first `words` (<= plane_words) are
 * written. */
void fabp_build_planes(const uint8_t *ref, int64_t nbytes, int64_t x0,
                       const uint64_t *masks, int64_t num_masks,
                       uint64_t *planes, int64_t plane_words, int64_t words)
{
    uint64_t prev_lo = 0, prev_hi = 0;
    if (x0 >= 64)
        load_codes(ref, nbytes, x0 - 64, &prev_lo, &prev_hi);
    for (int64_t w0 = 0; w0 < words; w0 += T) {
        uint64_t sliced[6][T];
        for (int t = 0; t < T; t++) {
            uint64_t lo, hi;
            load_codes(ref, nbytes, x0 + 64 * (w0 + t), &lo, &hi);
            sliced[0][t] = lo;
            sliced[1][t] = hi;
            sliced[2][t] = lo << 1 | prev_lo >> 63;
            sliced[3][t] = hi << 1 | prev_hi >> 63;
            sliced[4][t] = lo << 2 | prev_lo >> 62;
            sliced[5][t] = hi << 2 | prev_hi >> 62;
            prev_lo = lo;
            prev_hi = hi;
        }
        tile_t s[6], low[8], high[8], code[4];
        memcpy(s, sliced, sizeof s);
        for (int v = 0; v < 8; v++) {
            low[v] = (v & 1 ? s[0] : ~s[0]) & (v & 2 ? s[1] : ~s[1])
                   & (v & 4 ? s[2] : ~s[2]);
            high[v] = (v & 1 ? s[3] : ~s[3]) & (v & 2 ? s[4] : ~s[4])
                    & (v & 4 ? s[5] : ~s[5]);
        }
        for (int v = 0; v < 4; v++)
            code[v] = (v & 1 ? s[0] : ~s[0]) & (v & 2 ? s[1] : ~s[1]);
        for (int64_t j = 0; j < num_masks; j++) {
            const uint64_t mask = masks[j], nibble = mask & 0xF;
            tile_t word = {0};
            int complement;
            if (mask == nibble * 0x1111111111111111ULL) {
                complement = __builtin_popcountll(nibble) > 2;
                for (uint64_t pick = complement ? ~nibble & 0xF : nibble;
                     pick != 0; pick &= pick - 1)
                    word |= code[__builtin_ctzll(pick)];
            } else {
                complement = __builtin_popcountll(mask) > 32;
                for (uint64_t pick = complement ? ~mask : mask; pick != 0;
                     pick &= pick - 1) {
                    int v = __builtin_ctzll(pick);
                    word |= low[v & 7] & high[v >> 3];
                }
            }
            if (complement)
                word = ~word;
            uint64_t out[T];
            memcpy(out, &word, sizeof out);
            for (int t = 0; t < T && w0 + t < words; t++)
                planes[j * plane_words + w0 + t] = out[t];
        }
    }
}

/* T words of `plane` starting at bit 64*word + shift (a funnel shift). */
ALWAYS_INLINE tile_t load_row(const uint64_t *plane, int64_t word, unsigned shift)
{
    tile_t lo, hi;
    memcpy(&lo, plane + word, sizeof lo);
    memcpy(&hi, plane + word + 1, sizeof hi);
    return (lo >> shift) | ((hi << 1) << (63 - shift));
}

/* Add `carry` at weight 2**from into the counter planes. */
ALWAYS_INLINE void ripple(tile_t *level, int from, int levels, tile_t carry)
{
    for (int l = from; l < levels; l++) {
        tile_t next = level[l] & carry;
        level[l] ^= carry;
        carry = next;
    }
}

/* Fold the slots table[0..8) of a fold table into the counter planes: slot
 * k's plane word is read from tile word w0, shifted by shift + k <= 63
 * bits. */
ALWAYS_INLINE void fold8(tile_t *level, int levels, const uint64_t *planes,
                         const int32_t *table, int64_t w0, unsigned shift)
{
    tile_t r[8], carry, twos_a, twos_b, fours_a, fours_b;
    for (int k = 0; k < 8; k++)
        r[k] = load_row(planes + table[k], w0, shift + k);
    CSA(twos_a, level[0], level[0], r[0], r[1]);
    CSA(twos_b, level[0], level[0], r[2], r[3]);
    CSA(fours_a, level[1], level[1], twos_a, twos_b);
    CSA(twos_a, level[0], level[0], r[4], r[5]);
    CSA(twos_b, level[0], level[0], r[6], r[7]);
    CSA(fours_b, level[1], level[1], twos_a, twos_b);
    CSA(carry, level[2], level[2], fours_a, fours_b);
    ripple(level, MIN_LEVELS, levels, carry);
}

/* Sixteen int32 lanes; lane j of a decode step is position 16g + j. */
typedef uint32_t lanes_t __attribute__((vector_size(64)));

/* The counts of word t's positions 16g..16g+15, one per lane. */
static inline lanes_t decode_group(const tile_t *level, int levels, int t, int g)
{
    const lanes_t lane = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};
    lanes_t count = {0};
    for (int l = 0; l < levels; l++) {
        uint32_t bits = (uint32_t)(level[l][t] >> 16 * g) & 0xFFFF;
        count |= (((lanes_t){0} + bits) >> lane & 1) << l;
    }
    return count;
}

/* The positions whose count is at least `threshold`, as a bit mask: the
 * counter planes are compared most significant bit first, carrying
 * "greater so far" and "equal so far" words.  Needs
 * 0 < threshold < 2**levels. */
static inline tile_t at_least(const tile_t *level, int levels, int64_t threshold)
{
    tile_t greater = {0}, equal = ~(tile_t){0};
    for (int l = levels - 1; l >= 0; l--) {
        if (threshold >> l & 1) {
            equal &= level[l];
        } else {
            greater |= equal & level[l];
            equal &= ~level[l];
        }
    }
    return greater | equal;
}

/* What one fold reads and writes: planes of one block, one query's fold
 * table, its positions [lo, hi) in the block, and where its hits and scores
 * go.  A hit at block position p is written as p + delta; scores[p - lo]
 * receives the score of p. */
struct fold_job {
    const uint64_t *planes;
    const int32_t *table;
    int64_t num_elements;
    int64_t lo, hi, threshold, delta;
    int want_hits, prune;
    int64_t *hit_positions;
    int32_t *hit_scores;
    int32_t *scores;
};

/* Compare one folded tile (words w0.. of positions) with the threshold and
 * write its hits and, when asked, its scores; returns the new hit count. */
static inline int64_t emit_tile(const tile_t *level, int levels, int64_t w0,
                                const struct fold_job *job, int64_t found)
{
    int64_t lo = job->lo, hi = job->hi;
    tile_t pass = {0};
    if (job->want_hits)
        pass = job->threshold <= 0 ? ~(tile_t){0}
                                   : at_least(level, levels, job->threshold);
    for (int t = 0; t < T && 64 * (w0 + t) < hi; t++) {
        int64_t base = 64 * (w0 + t);
        uint64_t hit = pass[t];
        if (base < lo)
            hit &= ~0ULL << (lo - base);
        if (hi - base < 64)
            hit &= (1ULL << (hi - base)) - 1;
        for (int g = 0; g < 4; g++) {
            uint32_t lanes = (uint32_t)(hit >> 16 * g) & 0xFFFF;
            if (lanes == 0 && job->scores == NULL)
                continue;
            int32_t count[16];
            lanes_t decoded = decode_group(level, levels, t, g);
            memcpy(count, &decoded, sizeof count);
            int64_t first = base + 16 * g;
            if (job->scores != NULL) {
                int64_t from = first < lo ? lo : first;
                int64_t to = first + 16 < hi ? first + 16 : hi;
                if (to > from)
                    memcpy(job->scores + (from - lo), count + (from - first),
                           sizeof(int32_t) * (size_t)(to - from));
            }
            for (; lanes != 0; lanes &= lanes - 1) {
                int j = __builtin_ctz(lanes);
                job->hit_positions[found] = first + j + job->delta;
                job->hit_scores[found] = count[j];
                found++;
            }
        }
    }
    return found;
}

/* Whether no position of the tile can still reach `threshold` when the
 * elements left to fold can add at most `remaining` to any count (see the
 * header).  Needs threshold < 2**levels; never true while threshold -
 * remaining <= 0, which keeps at_least inside its precondition. */
ALWAYS_INLINE int out_of_reach(const tile_t *level, int levels,
                               int64_t threshold, int64_t remaining)
{
    if (threshold - remaining <= 0)
        return 0;
    tile_t reach = at_least(level, levels, threshold - remaining);
    uint64_t any = 0;
    for (int t = 0; t < T; t++)
        any |= reach[t];
    return any == 0;
}

/* The fold at one counter depth, over the tiles from word `begin`.
 * Inlined with a constant `levels`, the counter planes are scalars the
 * compiler keeps in registers.  With `prune`, a tile the threshold rules
 * out is abandoned (see the header).  A fold writing hits stops before a
 * tile once fewer than a tile's positions of `room` are left, and sets
 * *stopped to that tile's word (else -1).  Adds the element rows folded and
 * the nominal rows to *rows. */
ALWAYS_INLINE int64_t fold_at_depth(const int levels, const struct fold_job *job,
                                    int64_t begin, int64_t room,
                                    int64_t *stopped, int64_t rows[2])
{
    const uint64_t *planes = job->planes;
    const int64_t n = job->num_elements;
    const int32_t *table = job->table;
    int64_t found = 0;
    *stopped = -1;
    for (int64_t w0 = begin; w0 < (job->hi + 63) / 64; w0 += T) {
        if (job->want_hits && room - found < 64 * T) {
            *stopped = w0;
            break;
        }
        tile_t level[MAX_LEVELS];
        for (int l = 0; l < levels; l++)
            level[l] = (tile_t){0};
        int64_t i = 0;
        int abandoned = 0;
        for (; i + 64 <= n && !abandoned; i += 64) {
            const int32_t *e = table + i;
            fold8(level, levels, planes, e, w0, 0);
            fold8(level, levels, planes, e + 8, w0, 8);
            fold8(level, levels, planes, e + 16, w0, 16);
            fold8(level, levels, planes, e + 24, w0, 24);
            fold8(level, levels, planes, e + 32, w0, 32);
            fold8(level, levels, planes, e + 40, w0, 40);
            fold8(level, levels, planes, e + 48, w0, 48);
            fold8(level, levels, planes, e + 56, w0, 56);
            abandoned = job->prune && out_of_reach(level, levels, job->threshold,
                                                   n - i - 64);
        }
        for (; i + 8 <= n && !abandoned; i += 8) {
            fold8(level, levels, planes, table + i, w0, (unsigned)(i % 64));
            abandoned = job->prune && out_of_reach(level, levels, job->threshold,
                                                   n - i - 8);
        }
        if (!abandoned) {
            for (; i < n; i++)
                ripple(level, 0, levels,
                       load_row(planes + table[i], w0, (unsigned)(i % 64)));
            found = emit_tile(level, levels, w0, job, found);
        }
        rows[0] += i;
        rows[1] += n;
    }
    return found;
}

static int64_t fold(const struct fold_job *job, int64_t begin, int64_t room,
                    int64_t *stopped, int64_t rows[2])
{
    int levels = MIN_LEVELS;
    while (levels < MAX_LEVELS && (1LL << levels) <= job->num_elements)
        levels++;
#define FOLD(depth) fold_at_depth(depth, job, begin, room, stopped, rows)
    switch (levels) {
    case 3: return FOLD(3);
    case 4: return FOLD(4);
    case 5: return FOLD(5);
    case 6: return FOLD(6);
    case 7: return FOLD(7);
    case 8: return FOLD(8);
    case 9: return FOLD(9);
    case 10: return FOLD(10);
    default: return FOLD(levels);
    }
#undef FOLD
}

/* Last alignment position (exclusive) of a span-element query in a window. */
static inline int64_t cell_stop(const int64_t *window, int64_t span)
{
    int64_t last = window[1] - span + 1;
    return window[3] < last ? window[3] : last;
}

/* Every query's fold table, end to end in query order (see Fold order):
 * entry p of query q's table, which starts at the sum of the spans before
 * q, is its slot p's plane index * plane_words + pi(p)/64.  `sorted` has
 * room for the longest span. */
static void fold_tables(const uint64_t *masks, const int32_t *elements,
                        const int64_t *spans, int64_t num_queries,
                        int64_t plane_words, int32_t *tables, int32_t *sorted)
{
    int32_t *table = tables;
    for (int64_t q = 0; q < num_queries; q++) {
        const int64_t n = spans[q];
        const int32_t *rows = elements + (table - tables);
        /* Counting sort by weight, stable: at[w] is where weight w starts. */
        int64_t at[66] = {0}, next[64] = {0};
        for (int64_t i = 0; i < n; i++)
            at[__builtin_popcountll(masks[rows[i]]) + 1]++;
        for (int w = 0; w < 65; w++)
            at[w + 1] += at[w];
        for (int64_t i = 0; i < n; i++)
            sorted[at[__builtin_popcountll(masks[rows[i]])]++] = (int32_t)i;
        /* Deal: each element takes the next slot of its residue class. */
        for (int64_t s = 0; s < n; s++) {
            const int64_t e = sorted[s], r = e % 64;
            table[r + 64 * next[r]++] = (int32_t)(rows[e] * plane_words + e / 64);
        }
        table += n;
    }
}

int64_t fabp_scan_task(const uint8_t *image, int64_t image_bytes,
                       const int64_t *windows, int64_t num_windows,
                       const uint64_t *masks, int64_t num_masks,
                       const int32_t *elements, const int64_t *spans,
                       const int64_t *thresholds, int64_t num_queries,
                       int64_t *counts, int64_t *hit_positions,
                       int32_t *hit_scores, int64_t room, int32_t *scores,
                       int64_t *state)
{
    const int64_t block = 64 * (int64_t)BLOCK_WORDS;
    int64_t max_span = 1, total_span = 0;
    for (int64_t q = 0; q < num_queries; q++) {
        max_span = spans[q] > max_span ? spans[q] : max_span;
        total_span += spans[q];
    }
    /* A tile starting at the block's last tile reads (n - 1)/64 + 1 words
     * past the block's end. */
    const int64_t plane_words = BLOCK_WORDS + (max_span - 1) / 64 + 1;
    const int64_t num_planes = num_masks > 0 ? num_masks : 1;
    /* A fold-table entry is below num_planes * plane_words. */
    if (num_planes * plane_words > INT32_MAX)
        return -1;
    /* One allocation: a block's planes, then the fold tables and the room
     * their sort works in. */
    uint64_t *planes = malloc(sizeof(uint64_t) * (size_t)(plane_words * num_planes)
                              + sizeof(int32_t) * (size_t)(total_span + max_span));
    if (planes == NULL)
        return -1;
    int32_t *tables = (int32_t *)(planes + plane_words * num_planes);
    fold_tables(masks, elements, spans, num_queries, plane_words, tables,
                tables + total_span);
    int64_t *fills = state + 7;
    /* Cell scores go after every earlier window's. */
    int64_t score_base = 0;
    for (int64_t j = 0; j < state[0]; j++)
        for (int64_t q = 0; q < num_queries; q++) {
            int64_t size = cell_stop(windows + 4 * j, spans[q]) - windows[4 * j + 2];
            score_base += size > 0 ? size : 0;
        }
    for (int64_t j = state[0]; j < num_windows; j++) {
        const int64_t *window = windows + 4 * j;
        const int64_t start = window[2];
        int64_t nbytes = (window[1] + 3) / 4;
        if (nbytes > image_bytes - window[0])
            nbytes = image_bytes - window[0];
        int64_t top = start;
        for (int64_t q = 0; q < num_queries; q++) {
            int64_t stop = cell_stop(window, spans[q]);
            top = stop > top ? stop : top;
        }
        const int64_t origin = start - start % 64;
        for (int64_t b = state[1]; origin + b * block < top; b++) {
            const int64_t x0 = origin + b * block;
            /* The folds start at tile word 0 (lo < 64) and read their tiles
             * up to the last cell's end in the block, plus the halo. */
            const int64_t end = (top < x0 + block ? top : x0 + block) - x0;
            const int64_t words = (end + 64 * T - 1) / (64 * T) * T
                                + (max_span - 1) / 64 + 1;
            fabp_build_planes(image + window[0], nbytes, x0, masks, num_masks,
                              planes, plane_words,
                              words < plane_words ? words : plane_words);
            int64_t cell_scores = score_base, offset = 0;
            for (int64_t q = 0; q < num_queries; q++) {
                const int64_t span = spans[q], stop = cell_stop(window, span);
                const int64_t lo = (start > x0 ? start : x0) - x0;
                const int64_t hi = (stop < x0 + block ? stop : x0 + block) - x0;
                const int32_t *table = tables + offset;
                int32_t *cell = scores == NULL ? NULL : scores + cell_scores;
                int64_t *fill = fills + q;
                offset += span;
                cell_scores += stop > start ? stop - start : 0;
                if (q < state[2] || hi <= lo)
                    continue;
                int want_hits = hit_positions != NULL && thresholds[q] <= span;
                struct fold_job job = {
                    .planes = planes,
                    .table = table,
                    .num_elements = span,
                    .lo = lo,
                    .hi = hi,
                    .threshold = thresholds[q],
                    .delta = x0 - start,
                    .want_hits = want_hits,
                    /* Only a fold that writes no scores may leave a count
                     * unfinished. */
                    .prune = want_hits && scores == NULL && thresholds[q] > 0,
                    .hit_positions = want_hits ? hit_positions + q * room + *fill : NULL,
                    .hit_scores = want_hits ? hit_scores + q * room + *fill : NULL,
                    .scores = cell == NULL ? NULL : cell + (x0 + lo - start),
                };
                int64_t stopped;
                int64_t found = fold(&job, state[3] >= 0 ? state[3] : lo / 64,
                                     room - *fill, &stopped, state + 4);
                state[3] = -1;
                *fill += found;
                counts[j * num_queries + q] += found;
                if (stopped >= 0) {
                    state[0] = j;
                    state[1] = b;
                    state[2] = q;
                    state[3] = stopped;
                    free(planes);
                    return 1;
                }
            }
            state[2] = 0;
        }
        state[1] = 0;
        for (int64_t q = 0; q < num_queries; q++) {
            int64_t size = cell_stop(window, spans[q]) - start;
            if (size > 0) {
                score_base += size;
                state[6] += size;
            }
        }
    }
    state[0] = num_windows;
    free(planes);
    return 0;
}

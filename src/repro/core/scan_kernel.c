/* Compiled batch scan kernel behind repro.core.bitscore.
 *
 * The software form of FabP's datapath (one one-bit comparator per query
 * element feeding a carry-save Pop36 tree, then a threshold comparator),
 * with the counters kept in registers instead of streamed through memory:
 *
 *   fabp_build_planes  reference codes -> one packed match bitplane per
 *                      distinct instruction (bit p%64 of word p/64 is
 *                      position p).  Each instruction is a 64-bit truth
 *                      mask over the context code | prev1<<2 | prev2<<4;
 *                      look-back before the reference start reads as A.
 *   fabp_fold          one query over alignment positions [lo, hi): walks
 *                      TILE_WORDS-word tiles, funnel-shifts element i's
 *                      plane by i bits, folds 8 rows at a time through a
 *                      Harley-Seal CSA block into vertical counter planes,
 *                      then compares the counter planes with the threshold
 *                      bit-sliced, 64 positions per word.  Only a 16-lane
 *                      group with a lane at or above the threshold is
 *                      decoded to int32, and each passing position p is
 *                      appended as (p - lo, score) to the hit buffers; the
 *                      count of hits is returned.
 *
 * fabp_fold's outputs are optional and relative to lo: hit_positions and
 * hit_scores (both NULL, or both with room for hi - lo entries, which
 * bounds the hits) and scores (NULL, or room for hi - lo entries: the full
 * int32 score of every position in [lo, hi)).  With no hit buffers the
 * threshold is ignored; with no outputs at all nothing is folded.
 *
 * The caller sizes every plane to at least
 * lo/64 + roundup((hi + 63)/64 - lo/64, TILE_WORDS) + (elements - 1)/64 + 1
 * words for each query it folds, so no tile reads past the end of a plane.
 * TILE_WORDS is set on the compiler command line.
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
 * After i of the n elements, a position's count c only grows by the
 * matches of the n - i elements left, at most one each, so its final
 * count is at most c + (n - i).  If every count in the tile is below
 * t - (n - i), every final count is below t: the tile has no hit, and it
 * emits nothing.  A position that passes has c >= t - (n - i) at every i,
 * so it is never dropped; t - (n - i) <= t <= n < 2**levels keeps the
 * comparison exact (at_least), and it is made only while t - (n - i) > 0.
 * The check runs after each 64-element stretch and after each 8-row block
 * of the tail, where the counter planes are whole; counts of positions
 * outside [lo, hi) take part too, which can only keep a tile longer.  The
 * scores fold (scores != NULL) and threshold 0 fold every element.
 * fabp_fold adds the element rows it folded, summed over tiles, to
 * *rows_folded when that is not NULL.
 */
#include <stdint.h>
#include <string.h>

#if __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "the plane layout and code packing assume a little-endian host"
#endif
#ifndef TILE_WORDS
#error "compile with -DTILE_WORDS=<words per tile>"
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

/* Bit 0 and bit 1 of `count` <= 64 codes as two words (bit b is code b). */
static inline void pack_codes(const uint8_t *codes, int64_t count,
                              uint64_t *lo, uint64_t *hi)
{
    const uint64_t byte_lsb = 0x0101010101010101ULL;
    const uint64_t gather = 0x0102040810204080ULL; /* byte g -> bit 56+g */
    if (count == 64) {
        for (int g = 0; g < 8; g++) {
            uint64_t x;
            memcpy(&x, codes + 8 * g, sizeof x);
            *lo |= ((x & byte_lsb) * gather >> 56) << 8 * g;
            *hi |= ((x >> 1 & byte_lsb) * gather >> 56) << 8 * g;
        }
        return;
    }
    for (int b = 0; b < count; b++) {
        *lo |= (uint64_t)(codes[b] & 1) << b;
        *hi |= (uint64_t)(codes[b] >> 1) << b;
    }
}

/* Build planes a tile at a time.  The context bits of T words of positions
 * are bit-sliced into six words each (s0, s1: code; s2, s3: the code one
 * position back; s4, s5: two back).  Minterm v of those six bits is
 * low[v & 7] & high[v >> 3], the product of a minterm of s0-s2 and one of
 * s3-s5, and each plane ORs the minterms its truth mask selects.  The 64
 * minterms partition the positions, so a mask selecting more than 32 is
 * built as the complement of the OR of the ones it leaves out: no plane
 * ORs more than 32 terms.  Bits past the reference end are left as they
 * fall: no alignment position reads them. */
void fabp_build_planes(const uint8_t *codes, int64_t num_codes,
                       const uint64_t *masks, int64_t num_masks,
                       uint64_t *planes, int64_t plane_words)
{
    uint64_t prev_lo = 0, prev_hi = 0;
    for (int64_t w0 = 0; w0 < plane_words; w0 += T) {
        uint64_t sliced[6][T];
        for (int t = 0; t < T; t++) {
            int64_t base = 64 * (w0 + t);
            int64_t count = num_codes - base;
            count = count < 0 ? 0 : (count > 64 ? 64 : count);
            uint64_t lo = 0, hi = 0;
            if (count > 0)
                pack_codes(codes + base, count, &lo, &hi);
            sliced[0][t] = lo;
            sliced[1][t] = hi;
            sliced[2][t] = lo << 1 | prev_lo >> 63;
            sliced[3][t] = hi << 1 | prev_hi >> 63;
            sliced[4][t] = lo << 2 | prev_lo >> 62;
            sliced[5][t] = hi << 2 | prev_hi >> 62;
            prev_lo = lo;
            prev_hi = hi;
        }
        tile_t s[6], low[8], high[8];
        memcpy(s, sliced, sizeof s);
        for (int v = 0; v < 8; v++) {
            low[v] = (v & 1 ? s[0] : ~s[0]) & (v & 2 ? s[1] : ~s[1])
                   & (v & 4 ? s[2] : ~s[2]);
            high[v] = (v & 1 ? s[3] : ~s[3]) & (v & 2 ? s[4] : ~s[4])
                    & (v & 4 ? s[5] : ~s[5]);
        }
        for (int64_t j = 0; j < num_masks; j++) {
            int complement = __builtin_popcountll(masks[j]) > 32;
            tile_t word = {0};
            for (uint64_t pick = complement ? ~masks[j] : masks[j]; pick != 0;
                 pick &= pick - 1) {
                int v = __builtin_ctzll(pick);
                word |= low[v & 7] & high[v >> 3];
            }
            if (complement)
                word = ~word;
            uint64_t out[T];
            memcpy(out, &word, sizeof out);
            for (int t = 0; t < T && w0 + t < plane_words; t++)
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

/* Fold the rows of elements[0..8) into the counter planes: element k's
 * plane is read from word `word`, shifted by shift + k <= 63 bits. */
ALWAYS_INLINE void fold8(tile_t *level, int levels, const uint64_t *planes,
                         int64_t plane_words, const int32_t *elements,
                         int64_t word, unsigned shift)
{
    tile_t r[8], carry, twos_a, twos_b, fours_a, fours_b;
    for (int k = 0; k < 8; k++)
        r[k] = load_row(planes + elements[k] * plane_words, word, shift + k);
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

/* Compare one folded tile (words w0.. of positions) with the threshold and
 * write its hits and, when asked, its scores; returns the new hit count. */
static inline int64_t emit_tile(const tile_t *level, int levels, int64_t w0,
                                int64_t lo, int64_t hi, int64_t threshold,
                                int want_hits, int64_t found,
                                int64_t *hit_positions, int32_t *hit_scores,
                                int32_t *scores)
{
    tile_t pass = {0};
    if (want_hits)
        pass = threshold <= 0 ? ~(tile_t){0} : at_least(level, levels, threshold);
    for (int t = 0; t < T && 64 * (w0 + t) < hi; t++) {
        int64_t base = 64 * (w0 + t);
        uint64_t hit = pass[t];
        if (base < lo)
            hit &= ~0ULL << (lo - base);
        if (hi - base < 64)
            hit &= (1ULL << (hi - base)) - 1;
        for (int g = 0; g < 4; g++) {
            uint32_t lanes = (uint32_t)(hit >> 16 * g) & 0xFFFF;
            if (lanes == 0 && scores == NULL)
                continue;
            int32_t count[16];
            lanes_t decoded = decode_group(level, levels, t, g);
            memcpy(count, &decoded, sizeof count);
            int64_t first = base + 16 * g;
            if (scores != NULL) {
                int64_t from = first < lo ? lo : first;
                int64_t to = first + 16 < hi ? first + 16 : hi;
                if (to > from)
                    memcpy(scores + (from - lo), count + (from - first),
                           sizeof(int32_t) * (size_t)(to - from));
            }
            for (; lanes != 0; lanes &= lanes - 1) {
                int j = __builtin_ctz(lanes);
                hit_positions[found] = first + j - lo;
                hit_scores[found] = count[j];
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

/* The fold at one counter depth.  Inlined with a constant `levels`, the
 * counter planes are scalars the compiler keeps in registers.  With
 * `prune`, a tile the threshold rules out is abandoned (see the header). */
ALWAYS_INLINE int64_t fold_at_depth(const int levels, const uint64_t *planes,
                                    int64_t plane_words,
                                    const int32_t *element_planes,
                                    int64_t num_elements, int64_t lo, int64_t hi,
                                    int64_t threshold, int want_hits, int prune,
                                    int64_t *hit_positions, int32_t *hit_scores,
                                    int32_t *scores, int64_t *rows_folded)
{
    int64_t found = 0, rows = 0;
    for (int64_t w0 = lo / 64; w0 < (hi + 63) / 64; w0 += T) {
        tile_t level[MAX_LEVELS];
        for (int l = 0; l < levels; l++)
            level[l] = (tile_t){0};
        int64_t i = 0;
        int abandoned = 0;
        for (; i + 64 <= num_elements && !abandoned; i += 64) {
            const int32_t *e = element_planes + i;
            int64_t word = w0 + i / 64;
            fold8(level, levels, planes, plane_words, e, word, 0);
            fold8(level, levels, planes, plane_words, e + 8, word, 8);
            fold8(level, levels, planes, plane_words, e + 16, word, 16);
            fold8(level, levels, planes, plane_words, e + 24, word, 24);
            fold8(level, levels, planes, plane_words, e + 32, word, 32);
            fold8(level, levels, planes, plane_words, e + 40, word, 40);
            fold8(level, levels, planes, plane_words, e + 48, word, 48);
            fold8(level, levels, planes, plane_words, e + 56, word, 56);
            abandoned = prune && out_of_reach(level, levels, threshold,
                                              num_elements - i - 64);
        }
        for (; i + 8 <= num_elements && !abandoned; i += 8) {
            fold8(level, levels, planes, plane_words, element_planes + i,
                  w0 + i / 64, (unsigned)(i % 64));
            abandoned = prune && out_of_reach(level, levels, threshold,
                                              num_elements - i - 8);
        }
        if (!abandoned) {
            for (; i < num_elements; i++)
                ripple(level, 0, levels,
                       load_row(planes + element_planes[i] * plane_words,
                                w0 + i / 64, (unsigned)(i % 64)));
            found = emit_tile(level, levels, w0, lo, hi, threshold, want_hits,
                              found, hit_positions, hit_scores, scores);
        }
        rows += i;
    }
    if (rows_folded != NULL)
        *rows_folded += rows;
    return found;
}

int64_t fabp_fold(const uint64_t *planes, int64_t plane_words,
                  const int32_t *element_planes, int64_t num_elements,
                  int64_t lo, int64_t hi, int64_t threshold,
                  int64_t *hit_positions, int32_t *hit_scores, int32_t *scores,
                  int64_t *rows_folded)
{
    int levels = MIN_LEVELS;
    while (levels < MAX_LEVELS && (1LL << levels) <= num_elements)
        levels++;
    /* A count never exceeds num_elements < 2**levels. */
    int want_hits = hit_positions != NULL && threshold <= num_elements;
    if ((!want_hits && scores == NULL) || hi <= lo)
        return 0;
    /* Only a fold that writes no scores may leave a count unfinished. */
    int prune = want_hits && scores == NULL && threshold > 0;
#define FOLD(depth)                                                          \
    fold_at_depth(depth, planes, plane_words, element_planes, num_elements, \
                  lo, hi, threshold, want_hits, prune, hit_positions,       \
                  hit_scores, scores, rows_folded)
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

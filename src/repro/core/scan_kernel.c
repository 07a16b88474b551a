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
 * position back; s4, s5: two back), the 64 minterms of those six bits are
 * formed once, and each plane ORs the minterms its truth mask selects.
 * Bits past the reference end are left as they fall: no alignment
 * position reads them. */
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
        tile_t s[6], minterm[64];
        memcpy(s, sliced, sizeof s);
        for (int v = 0; v < 64; v++) {
            tile_t term = ~(tile_t){0};
            for (int k = 0; k < 6; k++)
                term &= (v >> k) & 1 ? s[k] : ~s[k];
            minterm[v] = term;
        }
        for (int64_t j = 0; j < num_masks; j++) {
            tile_t word = {0};
            for (int v = 0; v < 64; v++)
                word |= minterm[v] & ((tile_t){0} - ((masks[j] >> v) & 1));
            uint64_t out[T];
            memcpy(out, &word, sizeof out);
            for (int t = 0; t < T && w0 + t < plane_words; t++)
                planes[j * plane_words + w0 + t] = out[t];
        }
    }
}

/* T words of `plane` starting at bit 64*word + shift (a funnel shift). */
static inline tile_t load_row(const uint64_t *plane, int64_t word, unsigned shift)
{
    tile_t lo, hi;
    memcpy(&lo, plane + word, sizeof lo);
    memcpy(&hi, plane + word + 1, sizeof hi);
    return (lo >> shift) | ((hi << 1) << (63 - shift));
}

/* Add `carry` at weight 8 into the counter planes above `fours`. */
static inline void ripple(tile_t *high, int levels, tile_t carry)
{
    for (int l = 0; l < levels; l++) {
        tile_t next = high[l] & carry;
        high[l] ^= carry;
        carry = next;
    }
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

int64_t fabp_fold(const uint64_t *planes, int64_t plane_words,
                  const int32_t *element_planes, int64_t num_elements,
                  int64_t lo, int64_t hi, int64_t threshold,
                  int64_t *hit_positions, int32_t *hit_scores, int32_t *scores)
{
    int levels = 3; /* ones, twos, fours, then one plane per further bit */
    while (levels < 32 && (1LL << levels) <= num_elements)
        levels++;
    /* A count never exceeds num_elements < 2**levels. */
    int want_hits = hit_positions != NULL && threshold <= num_elements;
    if ((!want_hits && scores == NULL) || hi <= lo)
        return 0;
    int64_t found = 0;
    for (int64_t w0 = lo / 64; w0 < (hi + 63) / 64; w0 += T) {
        tile_t ones = {0}, twos = {0}, fours = {0}, carry;
        tile_t level[32];
        tile_t *high = level + 3;
        for (int l = 3; l < levels; l++)
            level[l] = (tile_t){0};
        int64_t i = 0;
        for (; i + 8 <= num_elements; i += 8) {
            tile_t r[8], twos_a, twos_b, fours_a, fours_b;
            for (int k = 0; k < 8; k++)
                r[k] = load_row(planes + element_planes[i + k] * plane_words,
                                w0 + (i + k) / 64, (unsigned)((i + k) % 64));
            CSA(twos_a, ones, ones, r[0], r[1]);
            CSA(twos_b, ones, ones, r[2], r[3]);
            CSA(fours_a, twos, twos, twos_a, twos_b);
            CSA(twos_a, ones, ones, r[4], r[5]);
            CSA(twos_b, ones, ones, r[6], r[7]);
            CSA(fours_b, twos, twos, twos_a, twos_b);
            CSA(carry, fours, fours, fours_a, fours_b);
            ripple(high, levels - 3, carry);
        }
        for (; i < num_elements; i++) {
            tile_t c = load_row(planes + element_planes[i] * plane_words,
                                w0 + i / 64, (unsigned)(i % 64));
            tile_t next;
            next = ones & c; ones ^= c; c = next;
            next = twos & c; twos ^= c; c = next;
            carry = fours & c; fours ^= c;
            ripple(high, levels - 3, carry);
        }
        level[0] = ones;
        level[1] = twos;
        level[2] = fours;
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
    }
    return found;
}

/* Native kernels for the ``engine="compiled"`` tier.
 *
 * The compatibility tensor and the mapper kernels are held, sample for
 * sample, to the NumPy tier: repro.mapping.matching.compatibility_tensor
 * and the replicas _replica_exact / _replica_hybrid of
 * repro.mapping.batch_kernel.  The merge pass is held to
 * repro.boolean.packed._merge_distance_one_values, the seed streams to
 * repro.api.seeding.derive_seed, whose BLAKE2b is written here from
 * RFC 7693, and the uniform defect draw to
 * repro.defects.injection.inject_uniform, which it transcribes.
 * Built by repro/compiled/cext.py with the system C compiler into a
 * cached shared library and driven through ctypes — no Python.h, so
 * any plain `cc -O2 -fPIC -shared` of GCC or Clang (whose
 * __builtin_ctzll and __builtin_popcountll scan the packed row words)
 * works.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MODE_EXACT 0
#define MODE_GREEDY 1
#define MODE_HYBRID 2

#define DONT_CARE 2

/* Row sets are packed into uint64 words: row h is bit h % 64 of word
 * h / 64, and the bits past the last row are zero. */
#define WORD(h) ((h) >> 6)
#define BIT(h) ((uint64_t)1 << ((h) & 63))

/* The lowest row in both sets, or -1. */
static int64_t first_common(const uint64_t *a, const uint64_t *b,
                            int64_t words) {
    for (int64_t w = 0; w < words; w++) {
        uint64_t both = a[w] & b[w];
        if (both)
            return w * 64 + __builtin_ctzll(both);
    }
    return -1;
}

/* One augmenting-path search from `root` (iterative DFS).  Each left
 * row on the path is first scanned for a free allowed right node
 * (`avail`: the allowed right nodes still unmatched), so a path ends as
 * soon as one is adjacent; only then does the search descend through
 * the matched ones, lowest first.  adj holds each left row's right
 * nodes in `words` words; `unvisited` starts as the allowed set and
 * loses each node the search enters.  stack_left / stack_pos / via are
 * caller-provided scratch of num_right + 2; stack_pos is the word a
 * row's descent resumes at, -1 before its free scan. */
static int try_augment(const uint64_t *adj, int64_t words, uint64_t *avail,
                       uint64_t *unvisited, int64_t *match_right,
                       int64_t root, int64_t *stack_left,
                       int64_t *stack_pos, int64_t *via) {
    int64_t top = 0;
    stack_left[0] = root;
    stack_pos[0] = -1;
    while (top >= 0) {
        int64_t left = stack_left[top];
        int64_t w = stack_pos[top];
        const uint64_t *row = adj + left * words;
        if (w < 0) {
            int64_t free_h = first_common(row, avail, words);
            if (free_h >= 0) {
                /* Augmenting path found: flip matches along it. */
                match_right[free_h] = left;
                avail[WORD(free_h)] &= ~BIT(free_h);
                for (int64_t t = top - 1; t >= 0; t--)
                    match_right[via[t]] = stack_left[t];
                return 1;
            }
            w = 0;
        }
        /* Every allowed neighbour of `left` is matched: descend.  The
         * nodes below the resume word are all visited already. */
        while (w < words && !(row[w] & unvisited[w]))
            w++;
        if (w == words) {
            top--;
            continue;
        }
        int64_t h = w * 64 + __builtin_ctzll(row[w] & unvisited[w]);
        unvisited[w] &= ~BIT(h);
        stack_pos[top] = w;
        via[top] = h;
        top++;
        stack_left[top] = match_right[h];
        stack_pos[top] = -1;
    }
    return 0;
}

/* Whether every left row of adj can be matched to a right node of
 * `allowed`: a greedy first-free pass, then one augmenting search per
 * row it left unmatched.  avail / unvisited are scratch of `words`,
 * `pending` of num_left. */
static int saturating(const uint64_t *adj, int64_t num_left, int64_t words,
                      int64_t num_right, const uint64_t *allowed,
                      int64_t *match_right, uint64_t *avail,
                      uint64_t *unvisited, int64_t *stack_left,
                      int64_t *stack_pos, int64_t *via, int64_t *pending) {
    int64_t num_pending = 0;
    for (int64_t h = 0; h < num_right; h++)
        match_right[h] = -1;
    memcpy(avail, allowed, (size_t)words * sizeof *avail);
    for (int64_t left = 0; left < num_left; left++) {
        int64_t h = first_common(adj + left * words, avail, words);
        if (h >= 0) {
            match_right[h] = left;
            avail[WORD(h)] &= ~BIT(h);
        } else {
            pending[num_pending++] = left;
        }
    }
    for (int64_t k = 0; k < num_pending; k++) {
        memcpy(unvisited, allowed, (size_t)words * sizeof *unvisited);
        if (!try_augment(adj, words, avail, unvisited, match_right,
                         pending[k], stack_left, stack_pos, via))
            return 0;
    }
    return 1;
}

/* Run one built-in mapper over every sample of a packed batch.
 * compat: num_samples x num_fm_rows x words uint64 with words =
 * ceil(num_rows / 64), each FM row's compatible crossbar rows with the
 * stuck-closed rows already cleared (repro_compatibility_tensor's
 * output); closed: num_samples x num_rows uint8.  Every assignment the
 * greedy or hybrid mode finds is checked (injective, every pair
 * compatible) into valid[].  Returns 0, or -1 on allocation failure
 * (the ctypes wrapper raises MemoryError). */
int repro_map_builtin_batch(const uint64_t *compat, const uint8_t *closed,
                            int64_t num_samples, int64_t num_fm_rows,
                            int64_t num_rows, int64_t num_minterms,
                            int32_t mode, uint8_t *success,
                            int64_t *backtracks, uint8_t *valid) {
    int64_t words = (num_rows + 63) / 64;
    /* One spare element each, so an empty batch never asks for malloc(0). */
    size_t set_bytes = (size_t)(words + 1) * sizeof(uint64_t);
    size_t row_bytes = (size_t)(num_rows + 2) * sizeof(int64_t);
    size_t fm_bytes = (size_t)(num_fm_rows + 1) * sizeof(int64_t);
    uint64_t *every_row = malloc(set_bytes);
    uint64_t *open = malloc(set_bytes);
    uint64_t *free_set = malloc(set_bytes);
    uint64_t *avail = malloc(set_bytes);
    uint64_t *unvisited = malloc(set_bytes);
    uint64_t *seen = malloc(set_bytes);
    int64_t *match_right = malloc(row_bytes);
    int64_t *stack_left = malloc(row_bytes);
    int64_t *stack_pos = malloc(row_bytes);
    int64_t *via = malloc(row_bytes);
    int64_t *owner = malloc(row_bytes);
    int64_t *assigned = malloc(fm_bytes);
    int64_t *pending = malloc(fm_bytes);
    if (!every_row || !open || !free_set || !avail || !unvisited || !seen ||
        !match_right || !stack_left || !stack_pos || !via || !owner ||
        !assigned || !pending) {
        free(every_row); free(open); free(free_set); free(avail);
        free(unvisited); free(seen); free(match_right); free(stack_left);
        free(stack_pos); free(via); free(owner); free(assigned);
        free(pending);
        return -1;
    }
    memset(every_row, 0, set_bytes);
    for (int64_t h = 0; h < num_rows; h++)
        every_row[WORD(h)] |= BIT(h);

    for (int64_t s = 0; s < num_samples; s++) {
        const uint64_t *adj = compat + s * num_fm_rows * words;
        const uint8_t *closed_s = closed + s * num_rows;
        success[s] = 0;
        backtracks[s] = 0;
        valid[s] = 1;

        if (mode == MODE_EXACT) {
            success[s] = (uint8_t)saturating(adj, num_fm_rows, words,
                                             num_rows, every_row,
                                             match_right, avail, unvisited,
                                             stack_left, stack_pos, via,
                                             pending);
            continue;
        }

        /* Greedy / hybrid: first fit with (hybrid) one-step
         * backtracking, then the output-stage saturating matching. */
        int64_t bt = 0;
        memset(open, 0, (size_t)words * sizeof *open);
        for (int64_t h = 0; h < num_rows; h++) {
            open[WORD(h)] |= (uint64_t)(closed_s[h] == 0) << (h & 63);
            owner[h] = -1;
        }
        memcpy(free_set, open, (size_t)words * sizeof *free_set);
        for (int64_t f = 0; f < num_fm_rows; f++)
            assigned[f] = -1;
        int ok = 1;
        for (int64_t i = 0; i < num_minterms; i++) {
            const uint64_t *row = adj + i * words;
            int64_t placed = first_common(row, free_set, words);
            /* The occupied compatible rows in ascending order; each
             * visit is one counted backtrack whether or not the
             * displaced product can be relocated.  Only open rows are
             * ever occupied, so every one has an owner. */
            for (int64_t w = 0; placed < 0 && mode == MODE_HYBRID &&
                                w < words; w++) {
                uint64_t taken = row[w] & open[w] & ~free_set[w];
                for (; taken; taken &= taken - 1) {
                    int64_t h = w * 64 + __builtin_ctzll(taken);
                    bt++;
                    int64_t occupant = owner[h];
                    int64_t reloc = first_common(adj + occupant * words,
                                                 free_set, words);
                    if (reloc < 0)
                        continue;
                    owner[reloc] = occupant;
                    assigned[occupant] = reloc;
                    free_set[WORD(reloc)] &= ~BIT(reloc);
                    placed = h;
                    break;
                }
            }
            if (placed < 0) {
                ok = 0;
                break;
            }
            owner[placed] = i;
            assigned[i] = placed;
            free_set[WORD(placed)] &= ~BIT(placed);
        }
        backtracks[s] = bt;
        if (!ok)
            continue;

        int64_t num_outputs = num_fm_rows - num_minterms;
        if (num_outputs > 0) {
            int64_t nfree = 0;
            for (int64_t w = 0; w < words; w++)
                nfree += __builtin_popcountll(free_set[w]);
            if (nfree < num_outputs)
                continue;
            if (!saturating(adj + num_minterms * words, num_outputs, words,
                            num_rows, free_set, match_right, avail,
                            unvisited, stack_left, stack_pos, via, pending))
                continue;
            for (int64_t h = 0; h < num_rows; h++)
                if (match_right[h] >= 0)
                    assigned[num_minterms + match_right[h]] = h;
        }
        success[s] = 1;
        memset(seen, 0, (size_t)words * sizeof *seen);
        for (int64_t f = 0; f < num_fm_rows; f++) {
            int64_t h = assigned[f];
            if (h < 0 || (seen[WORD(h)] & BIT(h)) ||
                !(adj[f * words + WORD(h)] & BIT(h))) {
                valid[s] = 0;
                break;
            }
            seen[WORD(h)] |= BIT(h);
        }
    }

    free(every_row); free(open); free(free_set); free(avail);
    free(unvisited); free(seen); free(match_right); free(stack_left);
    free(stack_pos); free(via); free(owner); free(assigned); free(pending);
    return 0;
}

/* The packed compatibility tensor: bit h % 64 of out[(s * num_fm_rows
 * + r) * words + h / 64], words = ceil(num_rows / 64), is set iff
 * crossbar row h of sample s is not stuck-closed and has every device
 * FM row r needs; the padding bits are zero.  Each sample's crossbar is packed
 * into one row set per column, the rows missing that column's device
 * (word w of every column's set at missing[w * num_columns + c]); an FM
 * row's words are the complement of the OR of its required columns'
 * sets, less the stuck-closed rows.  fm: num_fm_rows x
 * num_columns, cm: num_samples x num_rows x num_columns, closed:
 * num_samples x num_rows, all uint8 row-major.  Returns 0, or -1 on
 * allocation failure. */
int repro_compatibility_tensor(const uint8_t *fm, const uint8_t *cm,
                               const uint8_t *closed, int64_t num_samples,
                               int64_t num_fm_rows, int64_t num_rows,
                               int64_t num_columns, uint64_t *out) {
    int64_t words = (num_rows + 63) / 64;
    /* needs[starts[r] .. starts[r + 1]] lists FM row r's columns.  One
     * spare element each, so an empty matrix never asks for malloc(0). */
    int64_t *needs = malloc((size_t)(num_fm_rows * num_columns + 1)
                            * sizeof(int64_t));
    int64_t *starts = malloc((size_t)(num_fm_rows + 1) * sizeof(int64_t));
    uint64_t *missing = malloc((size_t)(num_columns * words + 1)
                               * sizeof(uint64_t));
    uint64_t *open = malloc((size_t)(words + 1) * sizeof(uint64_t));
    if (!needs || !starts || !missing || !open) {
        free(needs); free(starts); free(missing); free(open);
        return -1;
    }
    int64_t count = 0;
    for (int64_t r = 0; r < num_fm_rows; r++) {
        starts[r] = count;
        for (int64_t c = 0; c < num_columns; c++)
            if (fm[r * num_columns + c])
                needs[count++] = c;
    }
    starts[num_fm_rows] = count;
    for (int64_t s = 0; s < num_samples; s++) {
        const uint8_t *cells = cm + s * num_rows * num_columns;
        const uint8_t *closed_s = closed + s * num_rows;
        memset(missing, 0, (size_t)(num_columns * words) * sizeof *missing);
        memset(open, 0, (size_t)words * sizeof *open);
        for (int64_t h = 0; h < num_rows; h++) {
            const uint8_t *row = cells + h * num_columns;
            uint64_t *lacks = missing + WORD(h) * num_columns;
            int shift = (int)(h & 63);
            for (int64_t c = 0; c < num_columns; c++)
                lacks[c] |= (uint64_t)(row[c] == 0) << shift;
            open[WORD(h)] |= (uint64_t)(closed_s[h] == 0) << shift;
        }
        uint64_t *fits = out + s * num_fm_rows * words;
        for (int64_t r = 0; r < num_fm_rows; r++, fits += words) {
            for (int64_t w = 0; w < words; w++) {
                const uint64_t *lacks = missing + w * num_columns;
                uint64_t clash = 0;
                for (int64_t k = starts[r]; k < starts[r + 1]; k++)
                    clash |= lacks[needs[k]];
                fits[w] = ~clash & open[w];
            }
        }
    }
    free(needs); free(starts); free(missing); free(open);
    return 0;
}

/* The packed minimiser's distance-1 merge pass: the (i, j) schedule of
 * repro.boolean.packed._merge_distance_one_values, before its dedupe
 * and containment post-passes (the caller applies those).  values:
 * num_cubes x num_inputs uint8 (0 / 1 / DONT_CARE); out must hold
 * num_cubes x num_inputs.  Returns the surviving row count, or -1 on
 * allocation failure. */
int64_t repro_merge_distance_one(const uint8_t *values, int64_t num_cubes,
                                 int64_t num_inputs, uint8_t *out) {
    if (num_cubes == 0)
        return 0;
    size_t row_bytes = (size_t)num_inputs;
    uint8_t *cur = malloc((size_t)num_cubes * row_bytes);
    uint8_t *nxt = malloc((size_t)num_cubes * row_bytes);
    uint8_t *used = malloc((size_t)num_cubes);
    uint8_t *merged = malloc(row_bytes ? row_bytes : 1);
    if (!cur || !nxt || !used || !merged) {
        free(cur); free(nxt); free(used); free(merged);
        return -1;
    }
    memcpy(cur, values, (size_t)num_cubes * row_bytes);
    int64_t count = num_cubes;
    int changed = 1;
    while (changed && count > 0) {
        changed = 0;
        int64_t next_count = 0;
        memset(used, 0, (size_t)count);
        for (int64_t i = 0; i < count; i++) {
            if (used[i])
                continue;
            memcpy(merged, cur + i * num_inputs, row_bytes);
            int64_t scan_from = i + 1;
            for (;;) {
                int64_t merge_at = -1, diff_pos = -1;
                for (int64_t j = scan_from; j < count; j++) {
                    if (used[j])
                        continue;
                    const uint8_t *rj = cur + j * num_inputs;
                    int64_t distance = 0, first = -1;
                    int clash = 0;
                    for (int64_t p = 0; p < num_inputs; p++) {
                        if (rj[p] != merged[p]) {
                            distance++;
                            if (first < 0)
                                first = p;
                            if (rj[p] == DONT_CARE || merged[p] == DONT_CARE)
                                clash = 1;
                        }
                    }
                    if (!clash && distance == 1) {
                        merge_at = j;
                        diff_pos = first;
                        break;
                    }
                    if (distance == 0) {
                        used[j] = 1;
                        changed = 1;
                    }
                }
                if (merge_at < 0)
                    break;
                merged[diff_pos] = DONT_CARE;
                used[merge_at] = 1;
                changed = 1;
                scan_from = merge_at + 1;
            }
            memcpy(nxt + next_count * num_inputs, merged, row_bytes);
            next_count++;
            used[i] = 1;
        }
        uint8_t *tmp = cur;
        cur = nxt;
        nxt = tmp;
        count = next_count;
    }
    memcpy(out, cur, (size_t)count * row_bytes);
    free(cur); free(nxt); free(used); free(merged);
    return count;
}

/* BLAKE2b as repro.api.seeding.derive_seed runs it: an 8-byte digest,
 * no key, the personal string "repro-seeds".  Written from RFC 7693. */

static const uint64_t blake2b_iv[8] = {
    0x6a09e667f3bcc908ULL, 0xbb67ae8584caa73bULL,
    0x3c6ef372fe94f82bULL, 0xa54ff53a5f1d36f1ULL,
    0x510e527fade682d1ULL, 0x9b05688c2b3e6c1fULL,
    0x1f83d9abfb41bd6bULL, 0x5be0cd19137e2179ULL,
};

static const uint8_t blake2b_sigma[10][16] = {
    {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
    {14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3},
    {11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4},
    {7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8},
    {9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13},
    {2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9},
    {12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11},
    {13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10},
    {6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5},
    {10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0},
};

/* The personal string, zero-padded to its 16 parameter bytes. */
static const uint8_t blake2b_personal[16] = "repro-seeds";

#define SEED_MASK (((uint64_t)1 << 63) - 1)

static uint64_t load64_le(const uint8_t *p) {
    uint64_t w = 0;
    for (int j = 7; j >= 0; j--)
        w = w << 8 | p[j];
    return w;
}

static uint64_t rotr64(uint64_t w, int c) {
    return w >> c | w << (64 - c);
}

#define B2B_G(a, b, c, d, x, y)                   \
    do {                                          \
        v[a] = v[a] + v[b] + (x);                 \
        v[d] = rotr64(v[d] ^ v[a], 32);           \
        v[c] = v[c] + v[d];                       \
        v[b] = rotr64(v[b] ^ v[c], 24);           \
        v[a] = v[a] + v[b] + (y);                 \
        v[d] = rotr64(v[d] ^ v[a], 16);           \
        v[c] = v[c] + v[d];                       \
        v[b] = rotr64(v[b] ^ v[c], 63);           \
    } while (0)

/* The compression function F on one 128-byte block; `bytes` is the
 * message length hashed so far (the counter's high word stays 0). */
static void blake2b_compress(uint64_t h[8], const uint8_t *block,
                             uint64_t bytes, int last) {
    uint64_t v[16], m[16];
    for (int i = 0; i < 16; i++)
        m[i] = load64_le(block + 8 * i);
    for (int i = 0; i < 8; i++) {
        v[i] = h[i];
        v[i + 8] = blake2b_iv[i];
    }
    v[12] ^= bytes;
    if (last)
        v[14] = ~v[14];
    for (int round = 0; round < 12; round++) {
        const uint8_t *s = blake2b_sigma[round % 10];
        B2B_G(0, 4, 8, 12, m[s[0]], m[s[1]]);
        B2B_G(1, 5, 9, 13, m[s[2]], m[s[3]]);
        B2B_G(2, 6, 10, 14, m[s[4]], m[s[5]]);
        B2B_G(3, 7, 11, 15, m[s[6]], m[s[7]]);
        B2B_G(0, 5, 10, 15, m[s[8]], m[s[9]]);
        B2B_G(1, 6, 11, 12, m[s[10]], m[s[11]]);
        B2B_G(2, 7, 8, 13, m[s[12]], m[s[13]]);
        B2B_G(3, 4, 9, 14, m[s[14]], m[s[15]]);
    }
    for (int i = 0; i < 8; i++)
        h[i] ^= v[i] ^ v[i + 8];
}

/* derive_seed of one encoded message: the digest's 8 bytes read
 * big-endian, masked to 63 bits. */
static uint64_t seed_digest(const uint8_t *msg, size_t len) {
    uint64_t h[8];
    uint8_t last[128];
    memcpy(h, blake2b_iv, sizeof h);
    h[0] ^= 0x01010000U | 8; /* fanout 1, depth 1, no key, 8-byte digest */
    h[6] ^= load64_le(blake2b_personal);
    h[7] ^= load64_le(blake2b_personal + 8);
    size_t done = 0;
    for (; len - done > 128; done += 128)
        blake2b_compress(h, msg + done, done + 128, 0);
    memset(last, 0, sizeof last);
    memcpy(last, msg + done, len - done);
    blake2b_compress(h, last, len, 1);
    uint64_t seed = 0;
    for (int j = 0; j < 8; j++)
        seed = seed << 8 | (h[0] >> (8 * j) & 0xff);
    return seed & SEED_MASK;
}

/* str(n): n's decimal digits at out; returns their count. */
static size_t put_decimal(uint8_t *out, uint64_t n) {
    uint8_t reversed[20];
    size_t len = 0;
    do {
        reversed[len++] = (uint8_t)('0' + n % 10);
        n /= 10;
    } while (n);
    for (size_t k = 0; k < len; k++)
        out[k] = reversed[len - 1 - k];
    return len;
}

/* out[i] = derive_seed(derive_seed(root, start + i), domain) for
 * i < count, with root and domain encoded as derive_seed encodes its
 * fields (a decimal integer, a length-prefixed string); start + count
 * must not exceed 2^64.  Returns 0, or -1 on allocation failure. */
int repro_uniform_stream_seeds(const uint8_t *root, int64_t root_len,
                               const uint8_t *domain, int64_t domain_len,
                               uint64_t start, int64_t count,
                               uint64_t *out) {
    /* "<root>,<sample>" then "<sample seed>,<domain>"; a uint64 has at
     * most 20 digits. */
    uint8_t *sample_msg = malloc((size_t)root_len + 21);
    uint8_t *stream_msg = malloc((size_t)domain_len + 21);
    if (!sample_msg || !stream_msg) {
        free(sample_msg); free(stream_msg);
        return -1;
    }
    memcpy(sample_msg, root, (size_t)root_len);
    sample_msg[root_len] = ',';
    for (int64_t i = 0; i < count; i++) {
        size_t len = (size_t)root_len + 1
                     + put_decimal(sample_msg + root_len + 1,
                                   start + (uint64_t)i);
        len = put_decimal(stream_msg, seed_digest(sample_msg, len));
        stream_msg[len] = ',';
        memcpy(stream_msg + len + 1, domain, (size_t)domain_len);
        out[i] = seed_digest(stream_msg, len + 1 + (size_t)domain_len);
    }
    free(sample_msg); free(stream_msg);
    return 0;
}

/* MT19937 as CPython's random.Random runs it: the init_by_array seeding
 * of random.seed(int) and the 53-bit draws of random.random().  Ported
 * from the Matsumoto-Nishimura reference code (mt19937ar.c), which
 * carries this notice:
 *
 *   Copyright (C) 1997 - 2002, Makoto Matsumoto and Takuji Nishimura,
 *   All rights reserved.
 *
 *   Redistribution and use in source and binary forms, with or without
 *   modification, are permitted provided that the following conditions
 *   are met:
 *
 *     1. Redistributions of source code must retain the above copyright
 *        notice, this list of conditions and the following disclaimer.
 *
 *     2. Redistributions in binary form must reproduce the above
 *        copyright notice, this list of conditions and the following
 *        disclaimer in the documentation and/or other materials provided
 *        with the distribution.
 *
 *     3. The names of its contributors may not be used to endorse or
 *        promote products derived from this software without specific
 *        prior written permission.
 *
 *   THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
 *   "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
 *   LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
 *   A PARTICULAR PURPOSE ARE DISCLAIMED.  IN NO EVENT SHALL THE COPYRIGHT
 *   OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
 *   SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
 *   LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
 *   DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
 *   THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
 *   (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
 *   OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
 */

#define MT_N 624
#define MT_M 397
#define MT_MATRIX_A 0x9908b0dfU
#define MT_UPPER_MASK 0x80000000U
#define MT_LOWER_MASK 0x7fffffffU

static void mt_init_genrand(uint32_t *state, uint32_t s) {
    state[0] = s;
    for (int i = 1; i < MT_N; i++)
        state[i] = 1812433253U * (state[i - 1] ^ (state[i - 1] >> 30))
                   + (uint32_t)i;
}

/* init_by_array from `genrand`, init_genrand(19650218)'s state, which
 * is the same for every key.  `prev` holds state[i - 1], so the loops
 * never reload it. */
static void mt_init_by_array(uint32_t *state, const uint32_t *genrand,
                             const uint32_t *key, size_t key_length) {
    memcpy(state, genrand, MT_N * sizeof *state);
    uint32_t prev = state[0];
    size_t i = 1, j = 0;
    for (size_t k = MT_N > key_length ? MT_N : key_length; k; k--) {
        prev = state[i] = (state[i] ^ ((prev ^ (prev >> 30)) * 1664525U))
                          + key[j] + (uint32_t)j;
        i++;
        j++;
        if (i >= MT_N) {
            state[0] = prev;
            i = 1;
        }
        if (j >= key_length)
            j = 0;
    }
    for (size_t k = MT_N - 1; k; k--) {
        prev = state[i] = (state[i] ^ ((prev ^ (prev >> 30)) * 1566083941U))
                          - (uint32_t)i;
        i++;
        if (i >= MT_N) {
            state[0] = prev;
            i = 1;
        }
    }
    state[0] = 0x80000000U;
}

/* random.seed(n) for 0 <= n < 2^64: the 32-bit words of n, least
 * significant first, and the one-word key [0] for n = 0. */
static void mt_seed(uint32_t *state, const uint32_t *genrand, uint64_t seed) {
    uint32_t key[2] = {(uint32_t)seed, (uint32_t)(seed >> 32)};
    mt_init_by_array(state, genrand, key, key[1] ? 2 : 1);
}

/* One word of the twist: mag01[y & 1] spelled as a mask, no table. */
static uint32_t mt_twist(uint32_t upper, uint32_t lower, uint32_t far) {
    uint32_t y = (upper & MT_UPPER_MASK) | (lower & MT_LOWER_MASK);
    return far ^ (y >> 1) ^ (-(y & 0x1U) & MT_MATRIX_A);
}

static uint32_t mt_temper(uint32_t y) {
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    return y ^ y >> 18;
}

/* Twist the whole state and temper each new word into out[], in one
 * pass: the next MT_N words genrand_uint32 returns.  The two arrays
 * never overlap; saying so (restrict) lets the compiler vectorize. */
static void mt_refill(uint32_t *restrict state, uint32_t *restrict out) {
    int kk;
    for (kk = 0; kk < MT_N - MT_M; kk++)
        out[kk] = mt_temper(
            state[kk] = mt_twist(state[kk], state[kk + 1], state[kk + MT_M]));
    for (; kk < MT_N - 1; kk++)
        out[kk] = mt_temper(
            state[kk] = mt_twist(state[kk], state[kk + 1],
                                 state[kk + (MT_M - MT_N)]));
    out[MT_N - 1] = mt_temper(
        state[MT_N - 1] = mt_twist(state[MT_N - 1], state[0],
                                   state[MT_M - 1]));
}

/* random.random() as its 53-bit integer k, the draw being k / 2^53,
 * from the next two words of out[], refilled when *next reaches its
 * end.  Every draw takes two words and MT_N is even, so no draw
 * straddles a refill. */
static inline uint64_t mt_draw53(uint32_t *state, uint32_t *out, int *next) {
    if (*next == MT_N) {
        mt_refill(state, out);
        *next = 0;
    }
    uint64_t a = out[*next] >> 5, b = out[*next + 1] >> 6;
    *next += 2;
    return a << 26 | b;
}

/* ceil(p * 2^53), so that k / 2^53 < p exactly when k < below53(p):
 * p * 2^53 is exact for every p in [0, 1]. */
static uint64_t below53(double p) {
    if (!(p > 0.0))
        return 0;
    if (p >= 1.0)
        return (uint64_t)1 << 53;
    double scaled = p * 9007199254740992.0;
    uint64_t whole = (uint64_t)scaled;
    return whole + ((double)whole < scaled);
}

/* inject_uniform's draws, one sample per stream seed: each sample
 * seeds random.Random(stream_seeds[s]) and draws one rate double per
 * crosspoint in row-major order; a crosspoint is defective when it is
 * below `rate`, and every defect then draws one kind double, stuck-open
 * when it is below `stuck_open_fraction` (drawn even when that is 1).
 * Writes every byte of functional (num_samples x rows x columns, 1 =
 * functional), closed_rows (num_samples x rows) and closed_columns
 * (num_samples x columns), the last two 1 on lines a stuck-closed
 * defect poisons.  Returns 0, or -1 on allocation failure. */
int repro_inject_uniform_batch(const uint64_t *stream_seeds,
                               int64_t num_samples, int64_t rows,
                               int64_t columns, double rate,
                               double stuck_open_fraction,
                               uint8_t *functional, uint8_t *closed_rows,
                               uint8_t *closed_columns) {
    uint32_t *genrand = malloc(3 * MT_N * sizeof(uint32_t));
    if (!genrand)
        return -1;
    uint32_t *state = genrand + MT_N, *out = state + MT_N;
    uint64_t defect_below = below53(rate);
    uint64_t open_below = below53(stuck_open_fraction);
    mt_init_genrand(genrand, 19650218U);
    for (int64_t s = 0; s < num_samples; s++) {
        uint8_t *cells = functional + s * rows * columns;
        uint8_t *row_closed = closed_rows + s * rows;
        uint8_t *column_closed = closed_columns + s * columns;
        memset(row_closed, 0, (size_t)rows);
        memset(column_closed, 0, (size_t)columns);
        mt_seed(state, genrand, stream_seeds[s]);
        int next = MT_N;
        for (int64_t r = 0; r < rows; r++) {
            for (int64_t c = 0; c < columns; c++) {
                int defect = mt_draw53(state, out, &next) < defect_below;
                cells[r * columns + c] = !defect;
                if (defect && mt_draw53(state, out, &next) >= open_below) {
                    row_closed[r] = 1;
                    column_closed[c] = 1;
                }
            }
        }
    }
    free(genrand);
    return 0;
}

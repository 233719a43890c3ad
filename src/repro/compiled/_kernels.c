/* Native kernels for the ``engine="compiled"`` tier.
 *
 * The matching and merge kernels mirror repro/compiled/_kernels_py.py
 * function for function; that module documents the array contracts
 * and the parity obligations.  The compatibility tensor is held to
 * repro.mapping.matching.compatibility_tensor, the NumPy tier's
 * implementation.  Built by repro/compiled/cext.py with the system C
 * compiler into a cached shared library and driven through ctypes —
 * no Python.h, so any plain `cc -O2 -fPIC -shared` works.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MODE_EXACT 0
#define MODE_GREEDY 1
#define MODE_HYBRID 2

#define DONT_CARE 2

/* First right node of `row` that is allowed and unmatched, or -1. */
static int64_t first_free(const uint8_t *row, int64_t num_right,
                          const uint8_t *allowed, const int64_t *match_right) {
    for (int64_t h = 0; h < num_right; h++)
        if (row[h] && allowed[h] && match_right[h] < 0)
            return h;
    return -1;
}

/* One augmenting-path search from `root` (iterative DFS).  Each left
 * row on the path is first scanned for a free allowed right node, so a
 * path ends as soon as one is adjacent; only then does the search
 * descend through the matched ones.  adj is num_left x num_right
 * row-major; `allowed` additionally restricts the usable right nodes
 * (the free-row mask of the output stage); stack_* / via are
 * caller-provided scratch of num_right + 2. */
static int try_augment(const uint8_t *adj, int64_t num_right,
                       const uint8_t *allowed, int64_t *match_right,
                       uint8_t *visited, int64_t root, int64_t *stack_left,
                       int64_t *stack_pos, int64_t *via) {
    int64_t top = 0;
    stack_left[0] = root;
    stack_pos[0] = -1;
    while (top >= 0) {
        int64_t left = stack_left[top];
        int64_t h = stack_pos[top];
        const uint8_t *row = adj + left * num_right;
        if (h < 0) {
            int64_t free_h = first_free(row, num_right, allowed, match_right);
            if (free_h >= 0) {
                /* Augmenting path found: flip matches along it. */
                match_right[free_h] = left;
                for (int64_t t = top - 1; t >= 0; t--)
                    match_right[via[t]] = stack_left[t];
                return 1;
            }
            h = 0;
        }
        /* Every allowed neighbour of `left` is matched: descend. */
        while (h < num_right && !(row[h] && allowed[h] && !visited[h]))
            h++;
        if (h == num_right) {
            top--;
            continue;
        }
        visited[h] = 1;
        stack_pos[top] = h + 1;
        via[top] = h;
        top++;
        stack_left[top] = match_right[h];
        stack_pos[top] = -1;
    }
    return 0;
}

/* Whether every left row of adj can be matched: a greedy first-free
 * pass, then one augmenting search per row it left unmatched.
 * `pending` is scratch of num_left. */
static int saturating(const uint8_t *adj, int64_t num_left, int64_t num_right,
                      const uint8_t *allowed, int64_t *match_right,
                      uint8_t *visited, int64_t *stack_left,
                      int64_t *stack_pos, int64_t *via, int64_t *pending) {
    int64_t num_pending = 0;
    for (int64_t h = 0; h < num_right; h++)
        match_right[h] = -1;
    for (int64_t left = 0; left < num_left; left++) {
        int64_t h = first_free(adj + left * num_right, num_right, allowed,
                               match_right);
        if (h >= 0)
            match_right[h] = left;
        else
            pending[num_pending++] = left;
    }
    for (int64_t k = 0; k < num_pending; k++) {
        memset(visited, 0, (size_t)num_right);
        if (!try_augment(adj, num_right, allowed, match_right, visited,
                         pending[k], stack_left, stack_pos, via))
            return 0;
    }
    return 1;
}

/* Run one built-in mapper over every undecided sample of a batch.
 * compat: num_samples x num_fm_rows x num_rows, closed: num_samples x
 * num_rows (both uint8 row-major).  Returns 0, or -1 on allocation
 * failure (the caller falls back to the Python replicas). */
int repro_map_builtin_batch(const uint8_t *compat, const uint8_t *closed,
                            int64_t num_samples, int64_t num_fm_rows,
                            int64_t num_rows, int64_t num_minterms,
                            int32_t mode, int32_t check_validity,
                            uint8_t *success, int64_t *backtracks,
                            uint8_t *valid) {
    uint8_t *allowed_all = malloc((size_t)num_rows);
    int64_t *match_right = malloc((size_t)num_rows * sizeof(int64_t));
    uint8_t *visited = malloc((size_t)num_rows);
    int64_t *stack_left = malloc((size_t)(num_rows + 2) * sizeof(int64_t));
    int64_t *stack_pos = malloc((size_t)(num_rows + 2) * sizeof(int64_t));
    int64_t *via = malloc((size_t)(num_rows + 2) * sizeof(int64_t));
    uint8_t *free_row = malloc((size_t)num_rows);
    int64_t *owner = malloc((size_t)num_rows * sizeof(int64_t));
    int64_t *assigned = malloc((size_t)num_fm_rows * sizeof(int64_t));
    int64_t *pending = malloc((size_t)num_fm_rows * sizeof(int64_t));
    uint8_t *seen = malloc((size_t)num_rows);
    if (!allowed_all || !match_right || !visited || !stack_left ||
        !stack_pos || !via || !free_row || !owner || !assigned ||
        !pending || !seen) {
        free(allowed_all); free(match_right); free(visited);
        free(stack_left); free(stack_pos); free(via);
        free(free_row); free(owner); free(assigned); free(pending);
        free(seen);
        return -1;
    }
    memset(allowed_all, 1, (size_t)num_rows);

    for (int64_t s = 0; s < num_samples; s++) {
        const uint8_t *adj = compat + s * num_fm_rows * num_rows;
        const uint8_t *closed_s = closed + s * num_rows;
        success[s] = 0;
        backtracks[s] = 0;
        valid[s] = 1;

        if (mode == MODE_EXACT) {
            success[s] = (uint8_t)saturating(adj, num_fm_rows, num_rows,
                                             allowed_all, match_right,
                                             visited, stack_left, stack_pos,
                                             via, pending);
            continue;
        }

        /* Greedy / hybrid: first fit with (hybrid) one-step
         * backtracking, then the output-stage saturating matching. */
        int64_t bt = 0;
        for (int64_t h = 0; h < num_rows; h++) {
            free_row[h] = closed_s[h] ? 0 : 1;
            owner[h] = -1;
        }
        for (int64_t f = 0; f < num_fm_rows; f++)
            assigned[f] = -1;
        int ok = 1;
        for (int64_t i = 0; i < num_minterms; i++) {
            const uint8_t *row = adj + i * num_rows;
            int64_t placed = -1;
            for (int64_t h = 0; h < num_rows; h++) {
                if (free_row[h] && row[h]) {
                    placed = h;
                    break;
                }
            }
            if (placed < 0 && mode == MODE_HYBRID) {
                for (int64_t h = 0; h < num_rows; h++) {
                    if (free_row[h] || !row[h])
                        continue;
                    bt++;
                    int64_t occupant = owner[h];
                    const uint8_t *orow = adj + occupant * num_rows;
                    int64_t reloc = -1;
                    for (int64_t h2 = 0; h2 < num_rows; h2++) {
                        if (free_row[h2] && orow[h2]) {
                            reloc = h2;
                            break;
                        }
                    }
                    if (reloc < 0)
                        continue;
                    owner[reloc] = occupant;
                    assigned[occupant] = reloc;
                    free_row[reloc] = 0;
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
            free_row[placed] = 0;
        }
        backtracks[s] = bt;
        if (!ok)
            continue;

        int64_t num_outputs = num_fm_rows - num_minterms;
        if (num_outputs > 0) {
            int64_t nfree = 0;
            for (int64_t h = 0; h < num_rows; h++)
                if (free_row[h])
                    nfree++;
            if (nfree < num_outputs)
                continue;
            if (!saturating(adj + num_minterms * num_rows, num_outputs,
                            num_rows, free_row, match_right, visited,
                            stack_left, stack_pos, via, pending))
                continue;
            for (int64_t h = 0; h < num_rows; h++)
                if (match_right[h] >= 0)
                    assigned[num_minterms + match_right[h]] = h;
        }
        success[s] = 1;
        if (check_validity) {
            int good = 1;
            memset(seen, 0, (size_t)num_rows);
            for (int64_t f = 0; f < num_fm_rows; f++) {
                int64_t row = assigned[f];
                if (row < 0 || seen[row] || !adj[f * num_rows + row]) {
                    good = 0;
                    break;
                }
                seen[row] = 1;
            }
            valid[s] = (uint8_t)good;
        }
    }

    free(allowed_all); free(match_right); free(visited);
    free(stack_left); free(stack_pos); free(via);
    free(free_row); free(owner); free(assigned); free(pending);
    free(seen);
    return 0;
}

/* Pack each row's set cells into uint64 column words, word-major: bit c
 * of out[w * rows + r] is column 64 w + c of row r.  Each word is XORed
 * with `flip`, so all ones packs the zero cells instead. */
static void pack_rows(const uint8_t *cells, int64_t rows, int64_t columns,
                      int64_t words, uint64_t flip, uint64_t *out) {
    for (int64_t r = 0; r < rows; r++) {
        const uint8_t *row = cells + r * columns;
        for (int64_t w = 0; w < words; w++) {
            int64_t lo = w * 64;
            int64_t width = columns - lo < 64 ? columns - lo : 64;
            uint64_t word = 0;
            for (int64_t c = 0; c < width; c++)
                word |= (uint64_t)(row[lo + c] != 0) << c;
            uint64_t valid = width == 64 ? ~(uint64_t)0
                                         : ((uint64_t)1 << width) - 1;
            out[w * rows + r] = word ^ (flip & valid);
        }
    }
}

/* The compatibility tensor: out[s, r, h] = 1 iff crossbar row h of
 * sample s has every device FM row r needs (fm_row & missing == 0 on
 * the packed column words).  fm: num_fm_rows x num_columns, cm:
 * num_samples x num_rows x num_columns, out: num_samples x num_fm_rows
 * x num_rows, all uint8 row-major.  Returns 0, or -1 on allocation
 * failure. */
int repro_compatibility_tensor(const uint8_t *fm, const uint8_t *cm,
                               int64_t num_samples, int64_t num_fm_rows,
                               int64_t num_rows, int64_t num_columns,
                               uint8_t *out) {
    int64_t words = (num_columns + 63) / 64;
    /* One spare word each, so an empty matrix never asks for malloc(0). */
    uint64_t *need = malloc((size_t)(num_fm_rows * words + 1) * sizeof(uint64_t));
    uint64_t *missing = malloc((size_t)(num_rows * words + 1) * sizeof(uint64_t));
    uint64_t *clash = malloc((size_t)(num_rows + 1) * sizeof(uint64_t));
    if (!need || !missing || !clash) {
        free(need); free(missing); free(clash);
        return -1;
    }
    pack_rows(fm, num_fm_rows, num_columns, words, 0, need);
    for (int64_t s = 0; s < num_samples; s++) {
        pack_rows(cm + s * num_rows * num_columns, num_rows, num_columns,
                  words, ~(uint64_t)0, missing);
        uint8_t *fits = out + s * num_fm_rows * num_rows;
        for (int64_t r = 0; r < num_fm_rows; r++, fits += num_rows) {
            if (words == 1) {
                uint64_t needed = need[r];
                for (int64_t h = 0; h < num_rows; h++)
                    fits[h] = (needed & missing[h]) == 0;
                continue;
            }
            /* Word by word over all crossbar rows: contiguous loops. */
            memset(clash, 0, (size_t)num_rows * sizeof(uint64_t));
            for (int64_t w = 0; w < words; w++) {
                uint64_t needed = need[w * num_fm_rows + r];
                const uint64_t *lacks = missing + w * num_rows;
                if (needed)
                    for (int64_t h = 0; h < num_rows; h++)
                        clash[h] |= needed & lacks[h];
            }
            for (int64_t h = 0; h < num_rows; h++)
                fits[h] = clash[h] == 0;
        }
    }
    free(need); free(missing); free(clash);
    return 0;
}

/* The packed minimiser's distance-1 merge pass (see _kernels_py.py).
 * values: num_cubes x num_inputs uint8; out must hold num_cubes x
 * num_inputs.  Returns the surviving row count, or -1 on allocation
 * failure. */
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

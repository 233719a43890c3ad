"""Plain-Python oracle of the native kernels in ``_kernels.c``.

These functions mirror the C kernels loop for loop: the per-sample
mapper replicas of :mod:`repro.mapping.batch_kernel` (``_replica_exact``
/ ``_replica_hybrid``) and the distance-1 merge pass of
:mod:`repro.boolean.packed` (``_merge_distance_one_values``), written as
element loops over preallocated arrays.  They are slow, and nothing
outside the test suite runs them: the suite holds the C backend to this
module sample for sample, and this module to the NumPy replicas.

Array contracts (all C-contiguous):

``map_builtin_batch(compat, closed, num_minterms, mode, check_validity)``
    ``compat``: ``uint8 (samples, fm_rows, xbar_rows)`` compatibility
    tensor with stuck-closed rows already zeroed; ``closed``: ``uint8
    (samples, xbar_rows)`` stuck-closed row mask; ``mode``: 0 exact /
    1 greedy / 2 hybrid.  Returns ``(success uint8[s], backtracks
    int64[s], valid uint8[s])``.

``merge_distance_one(values)``
    ``values``: ``uint8 (cubes, inputs)`` cube-value matrix (0/1/2,
    2 = don't-care).  Returns the merged value matrix *before* the
    dedupe / containment post-passes (the caller applies those).
"""

from __future__ import annotations

import numpy as np


#: Mapper modes (must match ``MODE_*`` in ``_kernels.c``).
MODE_EXACT = 0
MODE_GREEDY = 1
MODE_HYBRID = 2

_DONT_CARE = 2  # repro.boolean.cube.DONT_CARE


def _first_free(row, allowed, match_right):
    """First right node of ``row`` that is allowed and unmatched, or -1."""
    for h in range(row.shape[0]):
        if row[h] != 0 and allowed[h] != 0 and match_right[h] < 0:
            return h
    return -1


def _try_augment(adj, allowed, match_right, visited, root, stack_left,
                 stack_pos, via):
    """One augmenting-path search from ``root`` (iterative DFS).

    Each left row on the path is first scanned for a free allowed right
    node, so a path ends as soon as one is adjacent; only then does the
    search descend through the matched ones.
    """
    num_right = adj.shape[1]
    top = 0
    stack_left[0] = root
    stack_pos[0] = -1
    while top >= 0:
        left = stack_left[top]
        h = stack_pos[top]
        if h < 0:
            free_h = _first_free(adj[left], allowed, match_right)
            if free_h >= 0:
                # Augmenting path found: flip the matches along it.
                match_right[free_h] = left
                t = top - 1
                while t >= 0:
                    match_right[via[t]] = stack_left[t]
                    t -= 1
                return True
            h = 0
        # Every allowed neighbour of `left` is matched: descend.
        while h < num_right and not (
            adj[left, h] != 0 and allowed[h] != 0 and visited[h] == 0
        ):
            h += 1
        if h == num_right:
            top -= 1
            continue
        visited[h] = 1
        stack_pos[top] = h + 1
        via[top] = h
        top += 1
        stack_left[top] = match_right[h]
        stack_pos[top] = -1
    return False


def _saturating(adj, allowed, match_right, visited, stack_left, stack_pos,
                via, pending):
    """Whether every left row of ``adj`` can be matched.

    A greedy first-free pass, then one augmenting search per row it left
    unmatched.  Existence-equivalent to the Hopcroft-Karp / Munkres
    probes of the NumPy engine: a saturating matching either exists or
    it does not, regardless of which maximum matching a given algorithm
    returns.
    """
    num_left = adj.shape[0]
    num_right = adj.shape[1]
    for h in range(num_right):
        match_right[h] = -1
    num_pending = 0
    for left in range(num_left):
        h = _first_free(adj[left], allowed, match_right)
        if h >= 0:
            match_right[h] = left
        else:
            pending[num_pending] = left
            num_pending += 1
    for k in range(num_pending):
        for h in range(num_right):
            visited[h] = 0
        if not _try_augment(adj, allowed, match_right, visited, pending[k],
                            stack_left, stack_pos, via):
            return False
    return True


def map_builtin_batch(compat, closed, num_minterms, mode, check_validity):
    """Run one built-in mapper over every undecided sample of a batch."""
    num_samples = compat.shape[0]
    num_fm_rows = compat.shape[1]
    num_rows = compat.shape[2]
    success = np.zeros(num_samples, dtype=np.uint8)
    backtracks = np.zeros(num_samples, dtype=np.int64)
    valid = np.ones(num_samples, dtype=np.uint8)

    allowed_all = np.ones(num_rows, dtype=np.uint8)
    match_right = np.empty(num_rows, dtype=np.int64)
    visited = np.empty(num_rows, dtype=np.uint8)
    stack_left = np.empty(num_rows + 2, dtype=np.int64)
    stack_pos = np.empty(num_rows + 2, dtype=np.int64)
    via = np.empty(num_rows + 2, dtype=np.int64)
    free = np.empty(num_rows, dtype=np.uint8)
    owner = np.empty(num_rows, dtype=np.int64)
    assigned = np.empty(num_fm_rows, dtype=np.int64)
    pending = np.empty(num_fm_rows, dtype=np.int64)
    seen = np.empty(num_rows, dtype=np.uint8)

    for s in range(num_samples):
        adj = compat[s]
        if mode == MODE_EXACT:
            # ExactMapper: success iff the FM rows admit a saturating
            # matching; it never backtracks and always validates.
            ok = _saturating(adj, allowed_all, match_right, visited,
                             stack_left, stack_pos, via, pending)
            success[s] = 1 if ok else 0
            continue

        # Greedy / hybrid: top-to-bottom first fit with (hybrid only)
        # one-step backtracking, then saturating matching of the output
        # rows onto the remaining free rows — the HBA replica.
        bt = 0
        for h in range(num_rows):
            free[h] = 0 if closed[s, h] != 0 else 1
            owner[h] = -1
        for f in range(num_fm_rows):
            assigned[f] = -1
        ok = True
        for i in range(num_minterms):
            placed = -1
            for h in range(num_rows):
                if free[h] != 0 and adj[i, h] != 0:
                    placed = h
                    break
            if placed < 0 and mode == MODE_HYBRID:
                # Occupied compatible rows in row order; each visit is
                # one counted backtrack whether or not the displaced
                # product can be relocated.
                for h in range(num_rows):
                    if free[h] != 0 or adj[i, h] == 0:
                        continue
                    bt += 1
                    occupant = owner[h]
                    reloc = -1
                    for h2 in range(num_rows):
                        if free[h2] != 0 and adj[occupant, h2] != 0:
                            reloc = h2
                            break
                    if reloc < 0:
                        continue
                    owner[reloc] = occupant
                    assigned[occupant] = reloc
                    free[reloc] = 0
                    placed = h
                    break
            if placed < 0:
                ok = False
                break
            owner[placed] = i
            assigned[i] = placed
            free[placed] = 0
        backtracks[s] = bt
        if not ok:
            success[s] = 0
            continue

        num_outputs = num_fm_rows - num_minterms
        if num_outputs > 0:
            nfree = 0
            for h in range(num_rows):
                if free[h] != 0:
                    nfree += 1
            if nfree < num_outputs:
                success[s] = 0
                continue
            if not _saturating(adj[num_minterms:], free, match_right,
                               visited, stack_left, stack_pos, via, pending):
                success[s] = 0
                continue
            for h in range(num_rows):
                if match_right[h] >= 0:
                    assigned[num_minterms + match_right[h]] = h
        success[s] = 1
        if check_validity != 0:
            good = True
            for h in range(num_rows):
                seen[h] = 0
            for f in range(num_fm_rows):
                row = assigned[f]
                if row < 0 or seen[row] != 0 or adj[f, row] == 0:
                    good = False
                    break
                seen[row] = 1
            valid[s] = 1 if good else 0
    return success, backtracks, valid


def merge_distance_one(values):
    """The packed minimiser's distance-1 merge pass, loop for loop.

    Walks the exact ``(i, j)`` schedule of
    ``repro.boolean.packed._merge_distance_one_values`` — including the
    rescan from just past each merge point and the dropping of rows
    that became equal to the enlarged working cube.
    """
    num_cubes = values.shape[0]
    num_inputs = values.shape[1]
    cur = values.copy()
    nxt = np.empty((num_cubes, num_inputs), dtype=np.uint8)
    used = np.empty(num_cubes, dtype=np.uint8)
    merged = np.empty(num_inputs, dtype=np.uint8)
    count = num_cubes
    changed = True
    while changed and count > 0:
        changed = False
        next_count = 0
        for i in range(count):
            used[i] = 0
        for i in range(count):
            if used[i] != 0:
                continue
            for p in range(num_inputs):
                merged[p] = cur[i, p]
            scan_from = i + 1
            while True:
                merge_at = -1
                diff_pos = -1
                for j in range(scan_from, count):
                    if used[j] != 0:
                        continue
                    distance = 0
                    clash = False
                    first = -1
                    for p in range(num_inputs):
                        if cur[j, p] != merged[p]:
                            distance += 1
                            if first < 0:
                                first = p
                            if cur[j, p] == _DONT_CARE or \
                                    merged[p] == _DONT_CARE:
                                clash = True
                    if not clash and distance == 1:
                        merge_at = j
                        diff_pos = first
                        break
                    if distance == 0:
                        used[j] = 1
                        changed = True
                if merge_at < 0:
                    break
                merged[diff_pos] = _DONT_CARE
                used[merge_at] = 1
                changed = True
                scan_from = merge_at + 1
            for p in range(num_inputs):
                nxt[next_count, p] = merged[p]
            next_count += 1
            used[i] = 1
        tmp = cur
        cur = nxt
        nxt = tmp
        count = next_count
    return cur[:count].copy()

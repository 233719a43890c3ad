"""Two-level minimisation of single-output covers.

The paper's benchmark circuits arrive as (already fairly compact) PLA
covers; minimisation matters in two places:

* the *dual selection* step compares the product counts of ``f`` and
  ``f̄`` — both should be reasonably minimised for the comparison to be
  meaningful;
* random functions for Fig. 6 are generated as raw cube lists and must
  not carry obviously redundant products into the area-cost comparison.

We implement an espresso-flavoured heuristic loop (EXPAND →
IRREDUNDANT → merge) plus an exact Quine–McCluskey minimiser for small
input counts.  The heuristic never changes the function (each step is
verified by containment against the original cover's semantics) and is
deterministic.

Both minimisers take ``engine=`` from :data:`repro.engines.ENGINES`,
resolved by :func:`repro.engines.resolve_boolean_engine`:

* ``"vectorized"`` — the ``uint64`` bit-plane kernels of
  :mod:`repro.boolean.packed`: containment and tautology probes become
  wide bitwise operations on packed truth tables, with cube-for-cube
  identical results;
* ``"compiled"`` — the same kernels with native merge passes;
* ``"reference"`` — the original :class:`Cube`/:class:`Cover` walk,
  kept as the differential reference.

``engine="auto"`` (the default) picks the fastest of the first two
whenever the input count fits the truth-table kernels, and every name
runs the reference walk on wider covers, so existing callers get the
speedup transparently without any observable change.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.boolean.cover import Cover
from repro.boolean.cube import Cube
from repro.engines import resolve_boolean_engine
from repro.exceptions import BooleanFunctionError


# ----------------------------------------------------------------------
# Heuristic minimisation (espresso-lite)
# ----------------------------------------------------------------------
def minimize_cover(
    cover: Cover, *, max_passes: int = 4, engine: str = "auto"
) -> Cover:
    """Heuristically minimise a cover without changing its function.

    The loop applies cube merging, literal expansion and irredundant-cover
    extraction until a pass makes no further progress (or ``max_passes`` is
    reached).  The result covers exactly the same minterms as the input.
    ``engine`` selects the packed bitset kernels or the reference walk
    (identical results; see the module docstring).
    """
    resolved = resolve_boolean_engine(engine, cover.num_inputs)
    if cover.is_empty() or cover.has_full_dont_care():
        return cover.without_contained_cubes()
    if resolved != "reference":
        from repro.boolean.packed import minimize_cover_packed

        return minimize_cover_packed(
            cover, max_passes=max_passes, compiled=resolved == "compiled"
        )

    current = cover.without_contained_cubes()
    for _ in range(max_passes):
        merged = merge_distance_one(current)
        expanded = expand_cover(merged)
        irredundant = irredundant_cover(expanded)
        if set(irredundant.cubes) == set(current.cubes):
            break
        current = irredundant
    return current.sorted_by_size()


def merge_distance_one(cover: Cover) -> Cover:
    """Repeatedly merge cube pairs that differ in one literal polarity."""
    cubes = list(cover.cubes)
    changed = True
    while changed:
        changed = False
        result: list[Cube] = []
        used = [False] * len(cubes)
        for i in range(len(cubes)):
            if used[i]:
                continue
            merged_cube = cubes[i]
            for j in range(i + 1, len(cubes)):
                if used[j]:
                    continue
                candidate = merged_cube.merge(cubes[j])
                if candidate is not None and candidate != merged_cube:
                    merged_cube = candidate
                    used[j] = True
                    changed = True
                elif candidate is not None and merged_cube.contains(cubes[j]):
                    used[j] = True
                    changed = True
            result.append(merged_cube)
            used[i] = True
        cubes = result
    return Cover(cover.num_inputs, cubes).without_contained_cubes()


def expand_cover(cover: Cover) -> Cover:
    """Espresso-style EXPAND: drop literals while staying inside the on-set.

    Because we have no explicit don't-care set, a literal may be dropped
    from a cube only when the enlarged cube is still contained in the
    *original* cover — i.e. the expansion is function-preserving.
    """
    expanded: list[Cube] = []
    for cube in cover.sorted_by_size():
        enlarged = cube
        for variable in sorted(enlarged.support(), key=lambda v: -_literal_weight(cover, v)):
            candidate = enlarged.expand_variable(variable)
            if cover.covers_cube(candidate):
                enlarged = candidate
        expanded.append(enlarged)
    return Cover(cover.num_inputs, expanded).without_contained_cubes()


def irredundant_cover(cover: Cover) -> Cover:
    """Remove cubes whose minterms are already covered by the other cubes."""
    cubes = list(cover.sorted_by_size().cubes)
    kept: list[Cube] = list(cubes)
    # Try to remove cubes starting from the smallest (most likely redundant).
    for cube in sorted(cubes, key=lambda c: c.num_minterms()):
        if len(kept) == 1:
            break
        remaining = [c for c in kept if c != cube]
        if Cover(cover.num_inputs, remaining).covers_cube(cube):
            kept = remaining
    return Cover(cover.num_inputs, kept)


def _literal_weight(cover: Cover, variable: int) -> int:
    negative, positive = cover.variable_polarity_counts(variable)
    return negative + positive


# ----------------------------------------------------------------------
# Exact minimisation (Quine–McCluskey + greedy/exact cover) for small n
# ----------------------------------------------------------------------
def prime_implicants(num_inputs: int, minterms: Iterable[int]) -> list[Cube]:
    """All prime implicants of the on-set given as integer minterms."""
    current = {Cube.from_minterm(m, num_inputs) for m in minterms}
    primes: set[Cube] = set()
    while current:
        merged_any: set[Cube] = set()
        used: set[Cube] = set()
        current_list = sorted(current, key=lambda c: c.to_string())
        for i, a in enumerate(current_list):
            for b in current_list[i + 1 :]:
                merged = a.merge(b)
                if merged is not None and merged != a:
                    merged_any.add(merged)
                    used.add(a)
                    used.add(b)
        primes.update(c for c in current if c not in used)
        current = merged_any
    return sorted(primes, key=lambda c: (c.literal_count(), c.to_string()))


def quine_mccluskey(
    num_inputs: int,
    minterms: Iterable[int],
    *,
    exact_limit: int = 18,
    engine: str = "auto",
) -> Cover:
    """Minimal (or near-minimal) cover of the given on-set.

    Essential prime implicants are always selected; the residual covering
    problem is solved exactly by branch-and-bound when it has at most
    ``exact_limit`` candidate primes, and greedily otherwise.  ``engine``
    selects the packed or reference prime-implicant front-end (identical
    primes and coverage sets, so the selection below is engine-agnostic).
    """
    resolved = resolve_boolean_engine(engine, num_inputs)
    minterm_list = sorted(set(int(m) for m in minterms))
    if not minterm_list:
        return Cover.zero(num_inputs)
    if len(minterm_list) == (1 << num_inputs):
        return Cover.one(num_inputs)
    if num_inputs > 20:
        raise BooleanFunctionError(
            "quine_mccluskey is limited to 20 inputs; use minimize_cover instead"
        )

    if resolved != "reference":
        from repro.boolean.packed import (
            prime_coverage_packed,
            prime_implicants_packed,
        )

        primes = prime_implicants_packed(num_inputs, minterm_list)
        coverage = prime_coverage_packed(num_inputs, primes, minterm_list)
    else:
        primes = prime_implicants(num_inputs, minterm_list)
        coverage = {
            prime: frozenset(
                m for m in prime.minterms() if m in set(minterm_list)
            )
            for prime in primes
        }

    remaining = set(minterm_list)
    chosen: list[Cube] = []

    # Essential primes.
    changed = True
    while changed and remaining:
        changed = False
        for minterm in list(remaining):
            covering = [p for p in primes if minterm in coverage[p]]
            if len(covering) == 1:
                prime = covering[0]
                if prime not in chosen:
                    chosen.append(prime)
                remaining -= coverage[prime]
                changed = True
                break

    candidates = [p for p in primes if p not in chosen and coverage[p] & remaining]
    if remaining:
        if len(candidates) <= exact_limit:
            chosen.extend(_exact_cover(candidates, coverage, remaining))
        else:
            chosen.extend(_greedy_cover(candidates, coverage, remaining))
    return Cover(num_inputs, chosen).without_contained_cubes()


def _greedy_cover(
    candidates: list[Cube],
    coverage: dict[Cube, frozenset[int]],
    remaining: set[int],
) -> list[Cube]:
    chosen: list[Cube] = []
    remaining = set(remaining)
    while remaining:
        best = max(
            candidates,
            key=lambda p: (len(coverage[p] & remaining), -p.literal_count()),
        )
        gained = coverage[best] & remaining
        if not gained:
            raise BooleanFunctionError("greedy cover failed to make progress")
        chosen.append(best)
        remaining -= gained
    return chosen


def _exact_cover(
    candidates: list[Cube],
    coverage: dict[Cube, frozenset[int]],
    remaining: set[int],
) -> list[Cube]:
    best_solution: list[Cube] | None = None

    def search(index: int, selected: list[Cube], uncovered: set[int]) -> None:
        nonlocal best_solution
        if best_solution is not None and len(selected) >= len(best_solution):
            return
        if not uncovered:
            best_solution = list(selected)
            return
        if index >= len(candidates):
            return
        # Prune: remaining candidates cannot cover what is left.
        reachable = set()
        for p in candidates[index:]:
            reachable |= coverage[p]
        if not uncovered <= reachable:
            return
        prime = candidates[index]
        if coverage[prime] & uncovered:
            search(index + 1, selected + [prime], uncovered - coverage[prime])
        search(index + 1, selected, uncovered)

    search(0, [], set(remaining))
    if best_solution is None:
        return _greedy_cover(candidates, coverage, remaining)
    return best_solution

"""Cover complementation (the "negation of circuit" used in Table I/II).

The paper exploits the fact that the crossbar produces both ``f`` and
``f̄``; whichever has the cheaper sum-of-products cover is mapped.  That
requires computing a cover of the complement, which we do with the
classical unate-recursive complement used by espresso:

* complement of an empty cover is the tautology, and vice versa;
* a single cube is complemented by De Morgan (one cube per literal);
* otherwise split on the most binate variable and merge
  ``x̄·complement(f_x̄) + x·complement(f_x)``.

The recursion is exact.  A configurable cube budget guards against the
exponential blow-up possible for adversarial covers; when it is exceeded a
:class:`ComplementOverflowError` is raised so callers can fall back to an
estimate.
"""

from __future__ import annotations

from repro.boolean.cover import Cover
from repro.boolean.cube import DONT_CARE, NEGATIVE, POSITIVE, Cube
from repro.exceptions import BooleanFunctionError


class ComplementOverflowError(BooleanFunctionError):
    """The complement cover exceeded the configured cube budget."""


def complement_cube(cube: Cube) -> Cover:
    """De Morgan complement of a single cube (one cube per literal)."""
    cubes = []
    for index, polarity in cube.literals():
        values = [DONT_CARE] * cube.num_inputs
        values[index] = NEGATIVE if polarity else POSITIVE
        cubes.append(Cube(values))
    return Cover(cube.num_inputs, cubes)


def complement_cover(cover: Cover, *, max_cubes: int = 200_000) -> Cover:
    """Exact complement of a cover as another cover.

    Parameters
    ----------
    cover:
        The cover to complement.
    max_cubes:
        Safety budget on the size of intermediate results.

    Raises
    ------
    ComplementOverflowError
        If an intermediate cover grows past ``max_cubes``.
    """
    result = _complement_recursive(cover, max_cubes)
    return result.without_contained_cubes()


def _complement_recursive(cover: Cover, max_cubes: int) -> Cover:
    if cover.is_empty():
        return Cover.one(cover.num_inputs)
    if cover.has_full_dont_care():
        return Cover.zero(cover.num_inputs)
    if len(cover) == 1:
        return complement_cube(cover[0])
    if cover.is_unate():
        return _complement_unate(cover, max_cubes)

    variable = cover.most_binate_variable()
    if variable is None:
        # No support left but more than one cube: cubes are all universal,
        # handled above, so this cannot happen; keep a defensive fallback.
        return Cover.zero(cover.num_inputs)

    negative_part = _complement_recursive(cover.cofactor(variable, 0), max_cubes)
    positive_part = _complement_recursive(cover.cofactor(variable, 1), max_cubes)

    cubes = []
    for cube in negative_part:
        cubes.append(cube.restrict(variable, NEGATIVE))
    for cube in positive_part:
        cubes.append(cube.restrict(variable, POSITIVE))
    if len(cubes) > max_cubes:
        raise ComplementOverflowError(
            f"complement exceeded budget of {max_cubes} cubes"
        )
    merged = Cover(cover.num_inputs, cubes)
    return _lift_common_cubes(merged, variable)


def _complement_unate(cover: Cover, max_cubes: int) -> Cover:
    """Complement a unate cover by recursive splitting on its largest cube.

    For unate covers the generic recursion still applies but never needs
    the binate splitting heuristics; we simply reuse it on the variable
    with the most literals, which keeps the recursion shallow.
    """
    best_variable = None
    best_count = -1
    for variable in cover.support():
        negative, positive = cover.variable_polarity_counts(variable)
        count = negative + positive
        if count > best_count:
            best_count = count
            best_variable = variable
    if best_variable is None:
        return Cover.zero(cover.num_inputs)
    negative_part = _complement_recursive(
        cover.cofactor(best_variable, 0), max_cubes
    )
    positive_part = _complement_recursive(
        cover.cofactor(best_variable, 1), max_cubes
    )
    cubes = [c.restrict(best_variable, NEGATIVE) for c in negative_part]
    cubes.extend(c.restrict(best_variable, POSITIVE) for c in positive_part)
    if len(cubes) > max_cubes:
        raise ComplementOverflowError(
            f"complement exceeded budget of {max_cubes} cubes"
        )
    return _lift_common_cubes(Cover(cover.num_inputs, cubes), best_variable)


def _lift_common_cubes(cover: Cover, variable: int) -> Cover:
    """Merge pairs that differ only in the split variable's polarity.

    After merging the two cofactor complements, any cube present with both
    polarities of the split variable can drop that literal; this keeps the
    recursion from inflating the result unnecessarily.
    """
    by_body: dict[tuple[int, ...], dict[int, Cube]] = {}
    for cube in cover:
        body = list(cube.values)
        polarity = body[variable]
        body[variable] = DONT_CARE
        by_body.setdefault(tuple(body), {})[polarity] = cube

    cubes: list[Cube] = []
    for body, group in by_body.items():
        has_negative = NEGATIVE in group
        has_positive = POSITIVE in group
        has_free = DONT_CARE in group
        if has_free or (has_negative and has_positive):
            cubes.append(Cube(body))
        else:
            cubes.extend(group.values())
    return Cover(cover.num_inputs, cubes)

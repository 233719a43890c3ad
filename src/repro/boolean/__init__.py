"""Boolean-function substrate: cubes, covers, multi-output functions.

This subpackage is the foundation everything else builds on — the
crossbar designs consume :class:`~repro.boolean.function.BooleanFunction`
objects, the defect-tolerant mapper derives its function matrix from the
same products, and the experiments generate workloads with
:mod:`repro.boolean.random_functions`.
"""

from repro.boolean.complement import (
    ComplementOverflowError,
    complement_cover,
    complement_cube,
)
from repro.boolean.cover import Cover
from repro.boolean.cube import DONT_CARE, NEGATIVE, POSITIVE, Cube
from repro.boolean.expression import function_from_expressions, parse_sop
from repro.boolean.function import BooleanFunction, Product
from repro.boolean.minimize import (
    expand_cover,
    irredundant_cover,
    merge_distance_one,
    minimize_cover,
    prime_implicants,
    quine_mccluskey,
)
from repro.boolean.packed import (
    PackedCover,
    PackedTruthTable,
    bit_planes,
    evaluate_function_batch,
    merge_distance_one_packed,
    minimize_cover_packed,
    prime_implicants_packed,
)
from repro.boolean.random_functions import (
    RandomFunctionSpec,
    random_cover,
    random_cube,
    random_function_sample,
    random_multi_output_function,
    random_single_output_function,
)
from repro.boolean.truth_table import (
    all_assignments,
    assignment_to_index,
    first_disagreement,
    functions_agree,
    index_to_assignment,
    sample_assignments,
    verification_assignment_matrix,
    verification_assignments,
)

__all__ = [
    "Cube",
    "Cover",
    "BooleanFunction",
    "Product",
    "NEGATIVE",
    "POSITIVE",
    "DONT_CARE",
    "complement_cover",
    "complement_cube",
    "ComplementOverflowError",
    "minimize_cover",
    "minimize_cover_packed",
    "merge_distance_one_packed",
    "prime_implicants_packed",
    "PackedCover",
    "PackedTruthTable",
    "bit_planes",
    "evaluate_function_batch",
    "merge_distance_one",
    "expand_cover",
    "irredundant_cover",
    "prime_implicants",
    "quine_mccluskey",
    "parse_sop",
    "function_from_expressions",
    "RandomFunctionSpec",
    "random_cube",
    "random_cover",
    "random_single_output_function",
    "random_function_sample",
    "random_multi_output_function",
    "all_assignments",
    "sample_assignments",
    "verification_assignments",
    "verification_assignment_matrix",
    "index_to_assignment",
    "assignment_to_index",
    "functions_agree",
    "first_disagreement",
]

"""Espresso-style PLA reading and writing — the corpus-grade front end.

The MCNC / IWLS'93 benchmarks the paper evaluates on are distributed as
Berkeley ``.pla`` files.  This module is the canonical parser/writer for
the espresso dialect the benchmarks use:

* directives ``.i``, ``.o``, ``.p``, ``.ilb``, ``.ob``, ``.type``
  (``f``, ``fd``, ``fr``, ``fdr``), ``.e``/``.end``; unknown directives
  (``.phase``, ``.pair``, …) are skipped like espresso does;
* input cube characters ``0``/``1``/``-`` (``2`` accepted as ``-``);
* output characters per espresso semantics: ``1``/``4`` on-set,
  ``0``/``~`` off-set / no connection, ``-``/``2`` don't-care;
* multi-output rows, inline ``#`` comments, rows written as one token
  (``110 1``  vs ``1101``).

Don't-care outputs are preserved: :func:`parse_pla_document` returns a
:class:`PlaDocument` carrying both the on-set function and the
don't-care set, while :func:`parse_pla` keeps the historical contract of
returning just the on-set :class:`BooleanFunction` (what the two-level
mappers consume).  Every malformed-input error names the offending line
number.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from repro.boolean.cube import Cube
from repro.boolean.function import BooleanFunction, Product
from repro.exceptions import PlaFormatError

#: PLA types espresso defines for two-level covers.
PLA_TYPES = ("f", "fd", "fr", "fdr")

#: Output characters contributing a product→output connection (on-set).
_ON_CHARS = frozenset("14")
#: Output characters marking a don't-care position (``fd``/``fdr`` covers).
_DC_CHARS = frozenset("-2")
#: Output characters marking off-set / no connection.
_OFF_CHARS = frozenset("0~")

#: Input characters accepted in cubes, normalised for :class:`Cube`.
_INPUT_NORMALISE = {"0": "0", "1": "1", "-": "-", "2": "-"}


@dataclass(frozen=True)
class PlaDocument:
    """A parsed PLA file: the on-set plus everything the format carries.

    Attributes
    ----------
    function:
        The on-set as a multi-output :class:`BooleanFunction` — the part
        the mapping experiments consume.
    dc_function:
        The don't-care set as a function over the same inputs/outputs,
        or ``None`` when the file declares none.
    pla_type:
        The ``.type`` directive (default ``"fd"``).
    declared_products:
        The ``.p`` count as written, or ``None``; benchmark files often
        carry stale counts, so it is reported, not enforced.
    """

    function: BooleanFunction
    dc_function: BooleanFunction | None
    pla_type: str = "fd"
    declared_products: int | None = None

    @property
    def name(self) -> str:
        """The circuit name attached to the on-set function."""
        return self.function.name


def parse_pla_document(text: str, *, name: str = "") -> PlaDocument:
    """Parse PLA text into a :class:`PlaDocument` (on-set + dc-set)."""
    num_inputs: int | None = None
    num_outputs: int | None = None
    declared_products: int | None = None
    input_names: list[str] | None = None
    output_names: list[str] | None = None
    pla_type = "fd"
    rows: list[tuple[int, str, str]] = []

    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            parts = line.split()
            directive = parts[0]
            if directive == ".i":
                num_inputs = _parse_int(parts, line_number)
            elif directive == ".o":
                num_outputs = _parse_int(parts, line_number)
            elif directive == ".p":
                declared_products = _parse_int(parts, line_number)
            elif directive == ".ilb":
                input_names = parts[1:]
            elif directive == ".ob":
                output_names = parts[1:]
            elif directive == ".type":
                if len(parts) != 2:
                    raise PlaFormatError(f"line {line_number}: malformed .type")
                if parts[1] not in PLA_TYPES:
                    raise PlaFormatError(
                        f"line {line_number}: unknown .type {parts[1]!r}; "
                        f"expected one of {PLA_TYPES}"
                    )
                pla_type = parts[1]
            elif directive in (".e", ".end"):
                break
            else:
                # Ignore unknown directives (.phase, .pair, ...) like espresso.
                continue
        else:
            parts = line.split()
            if len(parts) == 2:
                rows.append((line_number, parts[0], parts[1]))
            elif len(parts) == 1 and num_inputs is not None:
                rows.append(
                    (line_number, parts[0][:num_inputs], parts[0][num_inputs:])
                )
            else:
                raise PlaFormatError(
                    f"line {line_number}: cannot split cube/output part in "
                    f"{line!r}"
                )

    if num_inputs is None or num_outputs is None:
        raise PlaFormatError("PLA is missing .i or .o directive")
    if input_names is None:
        input_names = [f"x{i + 1}" for i in range(num_inputs)]
    if output_names is None:
        output_names = [f"f{i}" for i in range(num_outputs)]
    if len(input_names) != num_inputs:
        raise PlaFormatError(
            f".ilb names {len(input_names)} inputs, .i declares {num_inputs}"
        )
    if len(output_names) != num_outputs:
        raise PlaFormatError(
            f".ob names {len(output_names)} outputs, .o declares {num_outputs}"
        )

    on_products: list[Product] = []
    dc_products: list[Product] = []
    for line_number, input_part, output_part in rows:
        if len(input_part) != num_inputs:
            raise PlaFormatError(
                f"line {line_number}: cube {input_part!r} has "
                f"{len(input_part)} columns, expected {num_inputs}"
            )
        if len(output_part) != num_outputs:
            raise PlaFormatError(
                f"line {line_number}: output part {output_part!r} has "
                f"{len(output_part)} columns, expected {num_outputs}"
            )
        cube = _parse_cube(input_part, line_number)
        on_outputs = set()
        dc_outputs = set()
        for index, char in enumerate(output_part):
            if char in _ON_CHARS:
                on_outputs.add(index)
            elif char in _DC_CHARS:
                dc_outputs.add(index)
            elif char in _OFF_CHARS:
                continue
            else:
                raise PlaFormatError(
                    f"line {line_number}: invalid output character {char!r}"
                )
        if on_outputs:
            on_products.append(Product(cube, frozenset(on_outputs)))
        if dc_outputs and pla_type != "f":
            # In an ``f``-type cover everything unwritten is off-set and
            # '-' has no defined meaning; espresso treats it as off.
            dc_products.append(Product(cube, frozenset(dc_outputs)))

    function = BooleanFunction(input_names, output_names, on_products, name=name)
    dc_function = (
        BooleanFunction(
            input_names, output_names, dc_products, name=f"{name}.dc" if name else ""
        )
        if dc_products
        else None
    )
    return PlaDocument(
        function=function,
        dc_function=dc_function,
        pla_type=pla_type,
        declared_products=declared_products,
    )


def parse_pla(text: str, *, name: str = "") -> BooleanFunction:
    """Parse PLA text into the on-set :class:`BooleanFunction`.

    The historical single-function entry point; don't-care rows are
    dropped (which matches how the two-level mappers consume the
    benchmarks).  Use :func:`parse_pla_document` to keep them.
    """
    return parse_pla_document(text, name=name).function


def write_pla(
    function: BooleanFunction,
    *,
    dc: BooleanFunction | None = None,
    pla_type: str | None = None,
) -> str:
    """Serialise a function (and optional dc-set) as espresso PLA text."""
    if pla_type is None:
        pla_type = "fd"
    if pla_type not in PLA_TYPES:
        raise PlaFormatError(
            f"unknown PLA type {pla_type!r}; expected one of {PLA_TYPES}"
        )
    if dc is not None and (
        dc.num_inputs != function.num_inputs
        or dc.num_outputs != function.num_outputs
    ):
        raise PlaFormatError(
            "dc-set shape does not match the on-set: "
            f"({dc.num_inputs}, {dc.num_outputs}) vs "
            f"({function.num_inputs}, {function.num_outputs})"
        )
    total_products = function.num_products + (dc.num_products if dc else 0)
    lines = [
        f".i {function.num_inputs}",
        f".o {function.num_outputs}",
        ".ilb " + " ".join(function.input_names),
        ".ob " + " ".join(function.output_names),
        f".p {total_products}",
        f".type {pla_type}",
    ]
    for product in function.products:
        output_part = "".join(
            "1" if i in product.outputs else "0"
            for i in range(function.num_outputs)
        )
        lines.append(f"{product.cube.to_string()} {output_part}")
    if dc is not None:
        for product in dc.products:
            output_part = "".join(
                "-" if i in product.outputs else "0"
                for i in range(dc.num_outputs)
            )
            lines.append(f"{product.cube.to_string()} {output_part}")
    lines.append(".e")
    return "\n".join(lines) + "\n"


def write_pla_document(document: PlaDocument) -> str:
    """Serialise a :class:`PlaDocument` back to PLA text."""
    return write_pla(
        document.function, dc=document.dc_function, pla_type=document.pla_type
    )


def load_pla(path: str | Path, *, name: str | None = None) -> BooleanFunction:
    """Read a PLA file from disk (on-set only)."""
    return load_pla_document(path, name=name).function


def load_pla_document(path: str | Path, *, name: str | None = None) -> PlaDocument:
    """Read a PLA file from disk, keeping the dc-set and metadata."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        raise PlaFormatError(f"cannot read {path}: {error}") from None
    if name is None:
        name = path.name.removesuffix(".pla")
    return parse_pla_document(text, name=name)


def save_pla(
    function: BooleanFunction,
    path: str | Path,
    *,
    dc: BooleanFunction | None = None,
) -> None:
    """Write a PLA file to disk."""
    Path(path).write_text(write_pla(function, dc=dc), encoding="utf-8")


def pla_content_hash(text: str) -> str:
    """Content hash of PLA text, invariant to comments and whitespace.

    The hash is computed over the *parsed* rows (cube + on/dc outputs),
    not the raw bytes, so re-formatted copies of the same cover — or the
    same file with a different comment header — hash identically.
    """
    document = parse_pla_document(text)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(
        f"{document.function.num_inputs}:{document.function.num_outputs}:".encode()
    )
    for label, function in (
        ("on", document.function),
        ("dc", document.dc_function),
    ):
        if function is None:
            continue
        for product in sorted(
            function.products,
            key=lambda p: (p.cube.to_string(), tuple(sorted(p.outputs))),
        ):
            outputs = ",".join(str(o) for o in sorted(product.outputs))
            digest.update(f"{label}|{product.cube.to_string()}|{outputs}\n".encode())
    return digest.hexdigest()


def pla_statistics(document: PlaDocument) -> dict:
    """Corpus-index statistics of one parsed PLA document."""
    function = document.function
    return {
        "inputs": function.num_inputs,
        "outputs": function.num_outputs,
        "products": function.num_products,
        "literals": function.literal_count(),
        "connections": function.connection_count(),
        "dc_products": (
            document.dc_function.num_products if document.dc_function else 0
        ),
        "type": document.pla_type,
    }


def _parse_cube(text: str, line_number: int) -> Cube:
    try:
        normalised = "".join(_INPUT_NORMALISE[ch] for ch in text)
    except KeyError as exc:
        raise PlaFormatError(
            f"line {line_number}: invalid cube character {exc.args[0]!r} in "
            f"{text!r}"
        ) from None
    return Cube.from_string(normalised)


def _parse_int(parts: list[str], line_number: int) -> int:
    if len(parts) != 2:
        raise PlaFormatError(
            f"line {line_number}: expected one integer argument"
        )
    try:
        return int(parts[1])
    except ValueError:
        raise PlaFormatError(
            f"line {line_number}: {parts[1]!r} is not an integer"
        ) from None

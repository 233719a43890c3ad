"""Unit tests for the PLA parser/writer and the expression front-end."""

from __future__ import annotations

import pytest

from repro.boolean.expression import function_from_expressions, parse_sop, tokenize
from repro.circuits.pla import parse_pla, write_pla
from repro.exceptions import ExpressionError, PlaFormatError

SAMPLE_PLA = """
# A small fd-type PLA
.i 3
.o 2
.ilb a b c
.ob f g
.p 3
11- 10
-01 11
0-0 01
.e
"""


class TestPla:
    def test_parse_basic(self):
        function = parse_pla(SAMPLE_PLA, name="sample")
        assert function.num_inputs == 3
        assert function.num_outputs == 2
        assert function.num_products == 3
        assert function.input_names == ("a", "b", "c")
        assert function.output_names == ("f", "g")

    def test_parse_semantics(self):
        function = parse_pla(SAMPLE_PLA)
        assert function.evaluate([1, 1, 0]) == [True, False]
        assert function.evaluate([0, 0, 1]) == [True, True]
        assert function.evaluate([0, 1, 0]) == [False, True]

    def test_roundtrip(self):
        function = parse_pla(SAMPLE_PLA, name="sample")
        again = parse_pla(write_pla(function), name="sample")
        assert again.equivalent(function)
        assert again.input_names == function.input_names

    def test_single_token_rows_are_split(self):
        text = ".i 2\n.o 1\n11 1\n.e\n"
        function = parse_pla(text)
        assert function.evaluate([1, 1]) == [True]

    def test_missing_directives_rejected(self):
        with pytest.raises(PlaFormatError):
            parse_pla("11- 10\n")

    def test_bad_cube_width_rejected(self):
        with pytest.raises(PlaFormatError):
            parse_pla(".i 3\n.o 1\n11 1\n.e\n")

    def test_bad_output_char_rejected(self):
        with pytest.raises(PlaFormatError):
            parse_pla(".i 2\n.o 1\n11 x\n.e\n")

    def test_ilb_count_mismatch(self):
        with pytest.raises(PlaFormatError):
            parse_pla(".i 2\n.o 1\n.ilb a\n11 1\n.e\n")

    def test_unknown_directives_ignored(self):
        text = ".i 1\n.o 1\n.phase 1\n1 1\n.e\n"
        assert parse_pla(text).num_products == 1

    def test_save_and_load(self, tmp_path):
        from repro.circuits.pla import load_pla, save_pla

        function = parse_pla(SAMPLE_PLA, name="sample")
        path = tmp_path / "sample.pla"
        save_pla(function, str(path))
        loaded = load_pla(str(path))
        assert loaded.equivalent(function)
        assert loaded.name == "sample"


class TestExpressions:
    def test_tokenize(self):
        assert tokenize("x1 + ~x2 y") == ["x1", "+", "~", "x2", "y"]

    def test_parse_simple_sop(self):
        cover, names = parse_sop("a b + ~c")
        assert names == ["a", "b", "c"]
        assert cover.num_products() == 2
        assert cover.evaluate([1, 1, 1]) is True
        assert cover.evaluate([0, 0, 0]) is True
        assert cover.evaluate([0, 1, 1]) is False

    def test_postfix_negation(self):
        cover, names = parse_sop("a b' + c")
        assert cover.evaluate([1, 0, 0]) is True
        assert cover.evaluate([1, 1, 0]) is False

    def test_explicit_and_operator(self):
        cover, _ = parse_sop("a & b | c * d")
        assert cover.num_products() == 2

    def test_contradictory_term_is_dropped(self):
        cover, _ = parse_sop("a ~a + b")
        assert cover.num_products() == 1

    def test_explicit_input_names(self):
        cover, names = parse_sop("x2 + x1", input_names=["x1", "x2", "x3"])
        assert names == ["x1", "x2", "x3"]
        assert cover.num_inputs == 3

    def test_unknown_variable_with_explicit_names(self):
        with pytest.raises(ExpressionError):
            parse_sop("y", input_names=["x1"])

    @pytest.mark.parametrize("bad", ["", "~ + b", "(a + b", "a )", "a ~"])
    def test_malformed_expressions(self, bad):
        with pytest.raises(ExpressionError):
            parse_sop(bad)

    def test_function_from_expressions(self):
        function = function_from_expressions(
            {"s": "a ~b + ~a b", "c": "a b"}, name="half_adder"
        )
        assert function.evaluate([1, 0]) == [True, False]
        assert function.evaluate([1, 1]) == [False, True]
        assert function.name == "half_adder"

    def test_function_from_expressions_empty_rejected(self):
        with pytest.raises(ExpressionError):
            function_from_expressions({})

"""Unit tests for the defect model, defect maps, injection and analysis."""

from __future__ import annotations

import pytest

from repro.crossbar.array import CrossbarArray
from repro.crossbar.device import DeviceMode
from repro.crossbar.two_level import TwoLevelDesign
from repro.defects.analysis import (
    capacity_report,
    minimum_required_functional_fraction,
    naive_mapping_survives,
    naive_survival_probability,
)
from repro.defects.defect_map import DefectMap
from repro.defects.injection import (
    inject_clustered,
    inject_exact_count,
    inject_line_defects,
    inject_uniform,
)
from repro.defects.types import Defect, DefectProfile, DefectType, defect_type_from_mode
from repro.exceptions import DefectError


class TestTypes:
    def test_device_mode_mapping(self):
        assert DefectType.STUCK_OPEN.device_mode == DeviceMode.STUCK_OPEN
        assert DefectType.STUCK_CLOSED.device_mode == DeviceMode.STUCK_CLOSED
        assert defect_type_from_mode(DeviceMode.STUCK_OPEN) == DefectType.STUCK_OPEN
        with pytest.raises(DefectError):
            defect_type_from_mode(DeviceMode.ACTIVE)

    def test_tolerability(self):
        assert DefectType.STUCK_OPEN.tolerable_by_placement
        assert not DefectType.STUCK_CLOSED.tolerable_by_placement

    def test_defect_validation(self):
        with pytest.raises(DefectError):
            Defect(-1, 0, DefectType.STUCK_OPEN)

    def test_profile_rates(self):
        profile = DefectProfile(rate=0.2, stuck_open_fraction=0.75)
        assert profile.stuck_open_rate == pytest.approx(0.15)
        assert profile.stuck_closed_rate == pytest.approx(0.05)
        with pytest.raises(DefectError):
            DefectProfile(rate=1.5)
        with pytest.raises(DefectError):
            DefectProfile(rate=0.1, stuck_open_fraction=-0.1)


class TestDefectMap:
    def test_basic_queries(self):
        defect_map = DefectMap(
            4, 5, [Defect(1, 2, DefectType.STUCK_OPEN),
                   Defect(3, 0, DefectType.STUCK_CLOSED)]
        )
        assert defect_map.defect_count() == 2
        assert defect_map.defect_count(DefectType.STUCK_OPEN) == 1
        assert defect_map.defect_at(1, 2) == DefectType.STUCK_OPEN
        assert defect_map.is_functional(0, 0)
        assert not defect_map.is_functional(3, 0)
        assert defect_map.defect_rate() == pytest.approx(2 / 20)

    def test_out_of_range_defect_rejected(self):
        with pytest.raises(DefectError):
            DefectMap(2, 2, [Defect(2, 0, DefectType.STUCK_OPEN)])

    def test_stuck_closed_line_poisoning(self):
        defect_map = DefectMap(4, 4, [Defect(1, 2, DefectType.STUCK_CLOSED)])
        assert defect_map.stuck_closed_rows() == {1}
        assert defect_map.stuck_closed_columns() == {2}
        assert defect_map.usable_rows() == [0, 2, 3]
        assert defect_map.usable_columns() == [0, 1, 3]

    def test_functional_matrix(self):
        defect_map = DefectMap(2, 2, [Defect(0, 1, DefectType.STUCK_OPEN)])
        assert defect_map.functional_matrix() == [[1, 0], [1, 1]]

    def test_array_roundtrip(self):
        defect_map = DefectMap(
            3, 3, [Defect(0, 0, DefectType.STUCK_OPEN),
                   Defect(2, 1, DefectType.STUCK_CLOSED)]
        )
        array = defect_map.to_array()
        assert array.mode(0, 0) == DeviceMode.STUCK_OPEN
        recovered = DefectMap.from_array(array)
        assert recovered.defect_at(2, 1) == DefectType.STUCK_CLOSED
        assert recovered.defect_count() == 2

    def test_apply_to_small_array_rejected(self):
        defect_map = DefectMap(3, 3)
        with pytest.raises(DefectError):
            defect_map.apply_to_array(CrossbarArray(2, 2))

    def test_padded(self):
        defect_map = DefectMap(2, 2, [Defect(1, 1, DefectType.STUCK_OPEN)])
        padded = defect_map.padded(2, 3)
        assert (padded.rows, padded.columns) == (4, 5)
        assert padded.defect_at(1, 1) == DefectType.STUCK_OPEN

    def test_restricted_to_columns(self):
        defect_map = DefectMap(
            2, 4, [Defect(0, 1, DefectType.STUCK_OPEN),
                   Defect(1, 3, DefectType.STUCK_CLOSED)]
        )
        restricted = defect_map.restricted_to_columns([0, 2, 3])
        assert restricted.columns == 3
        assert restricted.is_functional(0, 1)      # old column 2
        assert restricted.defect_at(1, 2) == DefectType.STUCK_CLOSED
        with pytest.raises(DefectError):
            defect_map.restricted_to_columns([])
        with pytest.raises(DefectError):
            defect_map.restricted_to_columns([0, 0])


class TestInjection:
    def test_uniform_rate_and_determinism(self):
        a = inject_uniform(40, 40, 0.1, seed=3)
        b = inject_uniform(40, 40, 0.1, seed=3)
        assert list(a) == list(b)
        assert 0.05 < a.defect_rate() < 0.16

    def test_uniform_all_stuck_open_by_default(self):
        defect_map = inject_uniform(20, 20, 0.2, seed=1)
        assert defect_map.defect_count(DefectType.STUCK_CLOSED) == 0

    def test_uniform_with_profile_mixes_kinds(self):
        profile = DefectProfile(rate=0.3, stuck_open_fraction=0.5)
        defect_map = inject_uniform(30, 30, profile, seed=2)
        assert defect_map.defect_count(DefectType.STUCK_CLOSED) > 0
        assert defect_map.defect_count(DefectType.STUCK_OPEN) > 0

    def test_exact_count(self):
        defect_map = inject_exact_count(10, 10, 7, seed=4)
        assert defect_map.defect_count() == 7
        with pytest.raises(DefectError):
            inject_exact_count(2, 2, 5)

    def test_clustered_injection(self):
        clustered = inject_clustered(40, 40, 0.1, seed=5)
        assert clustered.defect_count() > 0
        with pytest.raises(DefectError):
            inject_clustered(10, 10, 0.1, cluster_radius=-1)

    def test_line_defects(self):
        defect_map = inject_line_defects(5, 6, broken_rows=[2], broken_columns=[0])
        assert all(not defect_map.is_functional(2, c) for c in range(6))
        assert all(not defect_map.is_functional(r, 0) for r in range(5))


class TestAnalysis:
    def test_capacity_report(self):
        defect_map = DefectMap(
            6, 6,
            [Defect(0, 0, DefectType.STUCK_OPEN),
             Defect(2, 3, DefectType.STUCK_CLOSED)],
        )
        report = capacity_report(defect_map)
        assert report.total_defects == 2
        assert report.stuck_open == 1
        assert report.stuck_closed == 1
        assert report.usable_rows == 5
        assert report.usable_columns == 5
        assert report.usable_area == 25
        assert 0 < report.usable_fraction < 1

    def test_naive_mapping_survival(self, paper_two_output):
        layout = TwoLevelDesign(paper_two_output).layout
        clean = DefectMap(layout.rows, layout.columns)
        assert naive_mapping_survives(layout, clean)
        active = sorted(layout.active_crosspoints)[0]
        hit = DefectMap(
            layout.rows, layout.columns,
            [Defect(active[0], active[1], DefectType.STUCK_OPEN)],
        )
        assert not naive_mapping_survives(layout, hit)

    def test_naive_survival_probability_formula(self, paper_two_output):
        layout = TwoLevelDesign(paper_two_output).layout
        probability = naive_survival_probability(paper_two_output, 0.1)
        assert probability == pytest.approx(0.9 ** layout.active_count())
        assert naive_survival_probability(paper_two_output, 0.0) == 1.0

    def test_minimum_required_functional_fraction(self, paper_two_output):
        layout = TwoLevelDesign(paper_two_output).layout
        assert minimum_required_functional_fraction(layout) == pytest.approx(
            layout.inclusion_ratio
        )

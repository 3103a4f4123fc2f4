import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qparch import distillation as dist
from qparch.errors import InfeasibleInputError
from qparch.qec import HardwareProfile


class TestDistillationVolume:
    def test_level_one(self):
        assert dist.distillation_volume(1) == 72

    def test_level_one_is_the_circuit_shape(self):
        volume = dist.LEVEL1_CROSS_SECTION * dist.LEVEL1_DEPTH
        assert volume == dist.distillation_volume(1) == 72

    def test_level_two(self):
        assert dist.distillation_volume(2) == 1152

    def test_level_three_recurrence(self):
        # oracle: iterate the x16 recurrence from the level-1 volume
        volume = 72
        for level in range(2, 4):
            volume *= 16
            assert dist.distillation_volume(level) == volume
        assert dist.distillation_volume(3) == 18432

    def test_exactly_multiplicative(self):
        for level in range(1, 6):
            assert dist.distillation_volume(level + 1) == 16 * dist.distillation_volume(level)

    def test_rejects_level_zero(self):
        with pytest.raises(ValueError):
            dist.distillation_volume(0)
        for level in (True, 2.5):
            message = f"^distillation level must be an integer, got {level!r}$"
            with pytest.raises(ValueError, match=message):
                dist.distillation_volume(level)

    def test_rejects_levels_beyond_the_limit(self):
        assert dist.distillation_volume(dist.MAX_DISTILLATION_LEVEL) == 72 * 16 ** 9
        for level in (dist.MAX_DISTILLATION_LEVEL + 1, 100000):
            with pytest.raises(ValueError, match="between 1 and 10"):
                dist.distillation_volume(level)


class TestDistilledError:
    def test_one_level_is_35_p_cubed(self):
        assert dist.distilled_error(1, 1e-3) == 35 * 1e-3 ** 3
        assert dist.distilled_error(1, 1e-3) == pytest.approx(3.5e-8, rel=1e-12)

    def test_each_level_applies_the_map_once_more(self):
        p = 1e-3
        for level in range(1, dist.MAX_DISTILLATION_LEVEL + 1):
            p = 35 * p ** 3
            assert dist.distilled_error(level, 1e-3) == p

    def test_deep_levels_underflow_to_an_exact_zero(self):
        assert dist.distilled_error(dist.MAX_DISTILLATION_LEVEL, 1e-3) == 0.0
        assert dist.distilled_error(1, 0.0) == 0.0

    @pytest.mark.parametrize("injected", [35 ** -0.5, math.nextafter(35 ** -0.5, 1), 0.2, 1.0])
    def test_an_error_distillation_cannot_lower_is_infeasible(self, injected):
        message = f"the injected ancilla error {injected!r} is at or above 1/sqrt(35) = 0.169"
        with pytest.raises(InfeasibleInputError, match=re.escape(message)):
            dist.distilled_error(1, injected)

    def test_the_largest_feasible_error_is_not_raised(self):
        injected = math.nextafter(35 ** -0.5, 0)
        assert dist.distilled_error(1, injected) <= injected
        assert dist.distilled_error(1, 0.16) == pytest.approx(0.14336, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 0.169), st.integers(1, dist.MAX_DISTILLATION_LEVEL - 1))
    def test_non_increasing_in_level(self, injected, level):
        assert dist.distilled_error(level + 1, injected) <= dist.distilled_error(level, injected)
        assert dist.distilled_error(1, injected) <= injected


class TestFactoryRate:
    def test_reference_machine_rows(self):
        assert dist.factory_rate(93856, 2) == pytest.approx(81.5, abs=0.1)
        assert dist.factory_rate(50848, 2) == pytest.approx(44.1, abs=0.1)

    def test_single_pipeline(self):
        assert dist.factory_rate(1152, 2) == 1.0

    def test_linearity_in_area(self):
        base = dist.factory_rate(5000, 2)
        for k in (2, 3, 10):
            assert dist.factory_rate(k * 5000, 2) == pytest.approx(k * base, rel=1e-12)

    def test_rejects_negative_area(self):
        with pytest.raises(ValueError):
            dist.factory_rate(-1, 2)

    @pytest.mark.parametrize("area", [float("nan"), float("inf"), 10 ** 400],
                             ids=["nan", "inf", "huge-int"])
    def test_rejects_non_finite_area(self, area):
        with pytest.raises(ValueError, match="factory area must be a finite number"):
            dist.factory_rate(area, 2)

    def test_largest_float_area_gives_a_finite_rate(self):
        assert dist.factory_rate(1e308, 2) == 1e308 / 1152


class TestRequiredFactoryArea:
    def test_reference_consumption(self):
        assert dist.required_factory_area(57.8, 2) == 66586

    def test_zero_consumption(self):
        assert dist.required_factory_area(0, 2) == 0

    def test_single_pipeline_level_one(self):
        assert dist.required_factory_area(1.0, 1) == 72

    @pytest.mark.parametrize("consumption", [float("nan"), float("inf"), 10 ** 400, -1.0],
                             ids=["nan", "inf", "huge-int", "negative"])
    def test_rejects_non_finite_consumption(self, consumption):
        with pytest.raises(ValueError, match="consumption rate must be a finite number"):
            dist.required_factory_area(consumption, 2)

    def test_rejects_an_area_beyond_the_float_range(self):
        with pytest.raises(ValueError, match="consumption rate times the level-2 volume"):
            dist.required_factory_area(1e308, 2)

    def test_round_trip_sufficiency(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            consumption = float(rng.uniform(0.01, 500.0))
            level = int(rng.integers(1, 4))
            area = dist.required_factory_area(consumption, level)
            assert dist.factory_rate(area, level) >= consumption * (1 - 1e-12)


class TestToffoliTime:
    def test_reference_cycle_time(self):
        assert dist.toffoli_time(HardwareProfile()) == pytest.approx(930e-6)

    def test_scaling_with_cycle_time(self):
        assert dist.toffoli_time(HardwareProfile(logical_cycle_time=1.0)) == 31.0

    def test_lattice_derived_cycle_time(self):
        # alternative timing where a logical cycle is the d=31 braiding time
        profile = HardwareProfile(logical_cycle_time=104 * 256e-9)
        assert dist.toffoli_time(profile) == pytest.approx(825e-6, rel=1e-2)

    def test_toffoli_depth_and_ancillas(self):
        assert dist.TOFFOLI_DEPTH_CYCLES == 31
        assert dist.TOFFOLI_ANCILLAS == 7

"""Crosstalk / numerical-aperture tradeoff."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionoptics.design_tradeoff import (
    DesignConstraints,
    crosstalk,
    min_diameter_for_na,
    required_na,
    tradeoff_curve,
)

# Frozen oracle values, computed independently from the closed forms:
#   crosstalk(D, d) = exp(-2 d^2 / (D/2)^2)
#   required_na(D)  = 2 sin(lambda / (pi D / 2))
CROSSTALK_10_5 = 0.1353352832366127  # exp(-2)
CROSSTALK_5_5 = 3.3546262790251185e-4  # exp(-8)
NA_FOR_1p88 = 0.23984690118337615  # 2*sin(0.355/(pi*0.94))
NA_FOR_0p94 = 0.47623192006004517  # 2*sin(0.355/(pi*0.47))
MIN_D_FOR_NA_0p24 = 1.87879491351372  # 2*0.355/(pi*asin(0.12))


class TestCrosstalk:
    def test_frozen_values(self):
        assert crosstalk(10.0, 5.0) == pytest.approx(CROSSTALK_10_5, rel=1e-12)
        assert crosstalk(5.0, 5.0) == pytest.approx(CROSSTALK_5_5, rel=1e-12)

    def test_at_center_is_unity(self):
        assert crosstalk(10.0, 0.0) == 1.0

    @given(d=st.floats(min_value=0.5, max_value=50.0),
           dist=st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=200, deadline=None)
    def test_bounded_to_unit_interval(self, d, dist):
        # exp underflows to exactly 0.0 for very distant neighbors
        assert 0.0 <= crosstalk(d, dist) <= 1.0

    @given(dist=st.floats(min_value=0.1, max_value=20.0),
           d1=st.floats(min_value=0.5, max_value=20.0),
           d2=st.floats(min_value=0.5, max_value=20.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_diameter(self, dist, d1, d2):
        lo, hi = sorted([d1, d2])
        assert crosstalk(lo, dist) <= crosstalk(hi, dist)

    def test_nonpositive_diameter_rejected(self):
        with pytest.raises(ValueError):
            crosstalk(0.0, 5.0)
        with pytest.raises(ValueError):
            crosstalk(-1.0, 5.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            crosstalk(10.0, -1.0)

    def test_distance_beyond_float_range_has_none(self):
        # d * d is inf, where d**2 would raise OverflowError
        assert crosstalk(2.0, 1e200) == 0.0

    def test_underflowing_diameter_rejected(self):
        # w0 * w0 rounds to 0, so the ratio would divide by zero
        with pytest.raises(ValueError, match="too small"):
            crosstalk(3e-265, 5.0)


class TestRequiredNa:
    def test_frozen_values(self):
        assert required_na(1.88) == pytest.approx(NA_FOR_1p88, rel=1e-12)
        assert required_na(0.94) == pytest.approx(NA_FOR_0p94, rel=1e-12)

    @given(d1=st.floats(min_value=0.5, max_value=50.0),
           d2=st.floats(min_value=0.5, max_value=50.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone_decreasing_in_diameter(self, d1, d2):
        lo, hi = sorted([d1, d2])
        assert required_na(lo) >= required_na(hi)

    def test_divergence_beyond_paraxial_domain_rejected(self):
        # half-angle lambda/(pi w0) reaches pi/2 at w0 = 2 lambda/pi^2
        bad_diameter = 2 * (2 * 0.355 / math.pi**2) * 0.99
        with pytest.raises(ValueError):
            required_na(bad_diameter)

    @given(d=st.floats(min_value=0.5, max_value=50.0))
    @settings(max_examples=200, deadline=None)
    def test_inverse_round_trip(self, d):
        assert min_diameter_for_na(required_na(d)) == pytest.approx(d, rel=1e-9)

    def test_min_diameter_frozen(self):
        assert min_diameter_for_na(0.24) == pytest.approx(MIN_D_FOR_NA_0p24, rel=1e-12)

    def test_min_diameter_domain(self):
        with pytest.raises(ValueError):
            min_diameter_for_na(0.0)
        with pytest.raises(ValueError):
            min_diameter_for_na(2.1)


class TestTradeoffCurve:
    def test_two_sample_range_above_boundary_has_two_rows(self):
        constraints = DesignConstraints()
        points = tradeoff_curve(constraints, (2.0, 4.0), 2)
        assert len(points) == 2
        assert points[0].beam_diameter_um == pytest.approx(2.0)
        assert points[1].beam_diameter_um == pytest.approx(4.0)

    def test_boundary_inserted_when_inside_range(self):
        constraints = DesignConstraints()
        points = tradeoff_curve(constraints, (1.0, 4.0), 4)
        diameters = [p.beam_diameter_um for p in points]
        assert len(points) == 5
        assert any(d == pytest.approx(MIN_D_FOR_NA_0p24, rel=1e-9) for d in diameters)
        assert diameters == sorted(diameters)

    def test_rows_are_consistent_with_point_functions(self):
        constraints = DesignConstraints()
        for pt in tradeoff_curve(constraints, (1.0, 10.0), 19):
            assert pt.required_na == pytest.approx(
                required_na(pt.beam_diameter_um, constraints.wavelength_um), rel=1e-12)
            assert pt.crosstalk == pytest.approx(
                crosstalk(pt.beam_diameter_um, constraints.neighbor_distance_um),
                rel=1e-12)

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError):
            tradeoff_curve(DesignConstraints(), (4.0, 2.0), 5)
        with pytest.raises(ValueError):
            tradeoff_curve(DesignConstraints(), (2.0, 4.0), 1)


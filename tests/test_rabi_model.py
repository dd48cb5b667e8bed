"""Two-level dynamics under a Gaussian addressing envelope."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionoptics.rabi_model import (
    BeamProfileParams,
    SpamModel,
    apply_spam,
    crosstalk_rabi_bound,
    intensity_crosstalk_ratio,
    local_rabi,
    p_excited,
)

TWO_PI = 2.0 * math.pi

# Frozen: 2/T * asin(sqrt(floor)) at T = 2.5 ms, floor = 0.01.
BOUND_RAD_S = 80.13393692924784
BOUND_HZ = 12.75371217170397
RATIO_VS_2120 = 0.006015901967784892
RATIO_VS_1910 = 0.006677336215551817


class TestLocalRabi:
    def test_peak_at_center(self, beam_a):
        assert local_rabi(beam_a, 0.0) == pytest.approx(beam_a.omega0, rel=1e-12)

    def test_one_width_out_drops_by_e2(self, beam_a):
        # at x = x_c + w0 the frequency is Omega0 * e^-2 = 2*pi*258.49 Hz
        assert local_rabi(beam_a, 1.86) / TWO_PI == pytest.approx(
            258.49039098193026, rel=1e-12
        )

    @given(dx=st.floats(min_value=-10.0, max_value=10.0))
    @settings(max_examples=200, deadline=None)
    def test_mirror_symmetry(self, dx, beam_b):
        left = local_rabi(beam_b, beam_b.center_um - dx)
        right = local_rabi(beam_b, beam_b.center_um + dx)
        assert left == pytest.approx(right, rel=1e-12)

    def test_non_finite_center_rejected(self):
        with pytest.raises(ValueError, match="^center must be finite$"):
            BeamProfileParams(omega0=1.0, center_um=math.nan, width_um=1.0)

    def test_vectorized(self, beam_a):
        xs = np.array([0.0, 1.86, -1.86])
        out = local_rabi(beam_a, xs)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(out[2], rel=1e-12)


class TestPExcited:
    def test_pi_pulse_inverts(self, beam_a):
        t_pi = math.pi / beam_a.omega0
        assert p_excited(beam_a, 0.0, t_pi) == pytest.approx(1.0, abs=1e-12)

    def test_zero_duration_dark(self, beam_a):
        assert p_excited(beam_a, 0.0, 0.0) == 0.0

    def test_periodicity(self, beam_a):
        t = 3.7e-4
        period = TWO_PI / beam_a.omega0
        assert p_excited(beam_a, 0.0, t) == pytest.approx(
            p_excited(beam_a, 0.0, t + period), abs=1e-9
        )

    @given(x=st.floats(min_value=-8.0, max_value=8.0),
           t=st.floats(min_value=0.0, max_value=5e-3))
    @settings(max_examples=300, deadline=None)
    def test_bounded_probability(self, x, t, beam_a):
        p = p_excited(beam_a, x, t)
        assert 0.0 <= p <= 1.0

    @given(x=st.floats(min_value=-8.0, max_value=8.0),
           t=st.floats(min_value=0.0, max_value=5e-3))
    @settings(max_examples=300, deadline=None)
    def test_envelope_bound(self, x, t, beam_a):
        # off-center oscillation never exceeds the optimum-duration envelope
        theta = local_rabi(beam_a, x) * t / 2.0
        assert p_excited(beam_a, x, t) == pytest.approx(math.sin(theta) ** 2,
                                                        abs=1e-12)

    def test_negative_duration_rejected(self, beam_a):
        with pytest.raises(ValueError):
            p_excited(beam_a, 0.0, -1e-6)


class TestSpam:
    def test_affine_map(self):
        spam = SpamModel(eps_prep=0.02, eps_meas=0.03)
        assert apply_spam(0.0, spam) == pytest.approx(0.02, rel=1e-12)
        assert apply_spam(1.0, spam) == pytest.approx(0.97, rel=1e-12)
        assert apply_spam(0.5, spam) == pytest.approx(0.02 + 0.95 * 0.5, rel=1e-12)

    def test_defaults(self):
        spam = SpamModel()
        assert spam.eps_prep == 0.01
        assert spam.eps_meas == 0.01

    @given(p=st.floats(min_value=0.0, max_value=1.0),
           e0=st.floats(min_value=0.0, max_value=0.49),
           e1=st.floats(min_value=0.0, max_value=0.49))
    @settings(max_examples=300, deadline=None)
    def test_floor_and_ceiling(self, p, e0, e1):
        spam = SpamModel(eps_prep=e0, eps_meas=e1)
        out = float(apply_spam(p, spam))
        assert e0 - 1e-12 <= out <= 1.0 - e1 + 1e-12

    def test_rates_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SpamModel(eps_prep=0.5)
        with pytest.raises(ValueError):
            SpamModel(eps_meas=-0.01)


class TestCrosstalkBound:
    def test_frozen_reference_window(self):
        bound = crosstalk_rabi_bound(2.5e-3, 0.01)
        assert bound == pytest.approx(BOUND_RAD_S, rel=1e-12)
        assert bound / TWO_PI == pytest.approx(BOUND_HZ, rel=1e-12)

    @given(window=st.floats(min_value=1e-5, max_value=1.0),
           floor=st.floats(min_value=1e-6, max_value=0.99))
    @settings(max_examples=300, deadline=None)
    def test_round_trip_saturates_floor(self, window, floor):
        # the bound is the frequency whose excitation exactly reaches the
        # floor at the end of the window: sin^2(Omega T / 2) = floor
        omega = crosstalk_rabi_bound(window, floor)
        assert math.sin(omega * window / 2.0) ** 2 == pytest.approx(floor, rel=1e-9)

    @given(window=st.floats(min_value=1e-5, max_value=1.0),
           floor=st.floats(min_value=1e-6, max_value=0.99))
    @settings(max_examples=300, deadline=None)
    def test_never_exceeds_floor_inside_window(self, window, floor):
        omega = crosstalk_rabi_bound(window, floor)
        t = np.linspace(0.0, window, 301)
        assert np.max(np.sin(omega * t / 2.0) ** 2) <= floor * (1 + 1e-9)

    def test_doubling_window_halves_bound(self):
        assert crosstalk_rabi_bound(5.0e-3, 0.01) == pytest.approx(
            BOUND_RAD_S / 2.0, rel=1e-12
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            crosstalk_rabi_bound(0.0, 0.01)
        with pytest.raises(ValueError):
            crosstalk_rabi_bound(2.5e-3, 0.0)
        with pytest.raises(ValueError):
            crosstalk_rabi_bound(2.5e-3, 1.0)


class TestIntensityRatio:
    def test_frozen_ratios(self):
        bound = crosstalk_rabi_bound(2.5e-3, 0.01)
        assert intensity_crosstalk_ratio(bound, TWO_PI * 2120.0) == pytest.approx(
            RATIO_VS_2120, rel=1e-12
        )
        assert intensity_crosstalk_ratio(bound, TWO_PI * 1910.0) == pytest.approx(
            RATIO_VS_1910, rel=1e-12
        )

    def test_linear_in_bound(self):
        assert intensity_crosstalk_ratio(2.0, 100.0) == pytest.approx(
            2.0 * intensity_crosstalk_ratio(1.0, 100.0), rel=1e-12
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            intensity_crosstalk_ratio(1.0, 0.0)
        with pytest.raises(ValueError):
            intensity_crosstalk_ratio(-1.0, 10.0)

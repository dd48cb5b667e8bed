"""Ray-matrix algebra and Gaussian q-parameter propagation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionoptics.beamlab import (
    IDENTITY,
    GaussianBeam,
    RayMatrix,
    SingularityError,
    compose,
    far_field_divergence_rad,
    free_space,
    propagate,
    rayleigh_range_mm,
    spot_radius_um,
    thin_lens,
)

# Hand-computed oracle: telescope f1=75, f2=15 at confocal spacing, taken
# lens to lens. M = L2 @ F(90) @ L1 gives the afocal form
# [[-f2/f1, f1+f2], [0, -f1/f2]] = [[-0.2, 90], [0, -5]].
FOUR_F = [thin_lens(75.0), free_space(90.0), thin_lens(15.0)]
FOUR_F_EXPECTED = RayMatrix(-0.2, 90.0, 0.0, -5.0)


def approx_matrix(m: RayMatrix, expected: RayMatrix, tol=1e-12):
    assert m.a == pytest.approx(expected.a, abs=tol)
    assert m.b == pytest.approx(expected.b, abs=tol)
    assert m.c == pytest.approx(expected.c, abs=tol)
    assert m.d == pytest.approx(expected.d, abs=tol)


class TestRayMatrix:
    def test_free_space_form(self):
        approx_matrix(free_space(42.0), RayMatrix(1.0, 42.0, 0.0, 1.0))

    def test_thin_lens_form(self):
        approx_matrix(thin_lens(50.0), RayMatrix(1.0, 0.0, -0.02, 1.0))

    def test_thin_lens_infinite_focal_length_is_identity(self):
        approx_matrix(thin_lens(math.inf), IDENTITY)

    def test_thin_lens_zero_rejected(self):
        with pytest.raises(ValueError):
            thin_lens(0.0)

    def test_free_space_non_finite_rejected(self):
        with pytest.raises(ValueError):
            free_space(math.nan)

    @pytest.mark.parametrize("entry", "abcd")
    def test_non_finite_entry_rejected(self, entry):
        values = {"a": 1.0, "b": 0.0, "c": 0.0, "d": 1.0}
        values[entry] = math.nan
        with pytest.raises(ValueError, match=f"^matrix entry {entry} is not finite$"):
            RayMatrix(**values)

    def test_non_unit_determinant_rejected(self):
        with pytest.raises(ValueError):
            RayMatrix(1.0, 0.0, 0.0, 2.0)

    def test_compose_order_first_element_acts_first(self):
        approx_matrix(compose(FOUR_F), FOUR_F_EXPECTED)

    def test_compose_empty_rejected(self):
        with pytest.raises(ValueError):
            compose([])

    def test_compose_single(self):
        approx_matrix(compose([free_space(3.0)]), free_space(3.0))

    @given(
        f=st.floats(min_value=5.0, max_value=500.0),
        d1=st.floats(min_value=-200.0, max_value=200.0),
        d2=st.floats(min_value=-200.0, max_value=200.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_determinant_preserved_under_composition(self, f, d1, d2):
        m = compose([free_space(d1), thin_lens(f), free_space(d2)])
        assert m.det == pytest.approx(1.0, abs=1e-9)

    def test_transform_q_singular_denominator(self):
        # q on the lens focal point: c*q + d = 0 for a real ray at the focus
        m = RayMatrix(0.0, 50.0, -0.02, 1.0)  # lens f=50 then 50 mm of travel
        with pytest.raises(SingularityError):
            m.transform_q(complex(50.0, 0.0))


class TestGaussianPropagation:
    def test_rayleigh_range(self):
        # z_R = pi w0^2 / lambda, converted to mm: 100 um, 0.355 um
        assert rayleigh_range_mm(0.355, 100.0) == pytest.approx(
            math.pi * 100.0**2 / 0.355 * 1e-3, rel=1e-12
        )

    def test_far_field_divergence(self):
        assert far_field_divergence_rad(0.355, 100.0) == pytest.approx(
            0.355 / (math.pi * 100.0), rel=1e-12
        )

    def test_5_to_1_telescope_demagnifies_waist(self):
        # Closed-form oracle: an afocal relay scales the waist by |m| and
        # the 100 um input waist at the front focal plane lands exactly at
        # the back focal plane (f2 = 15 mm past L2) with waist 20 um.
        beam = GaussianBeam(0.355, 100.0)
        m = compose([free_space(75.0), thin_lens(75.0), free_space(90.0),
                     thin_lens(15.0), free_space(15.0)])
        out = propagate(beam, m)
        assert out.waist_radius_um == pytest.approx(20.0, rel=1e-12)
        assert out.waist_position_mm == pytest.approx(0.0, abs=1e-9)

    def test_free_space_moves_waist_back(self):
        beam = GaussianBeam(0.355, 50.0)
        out = propagate(beam, free_space(100.0))
        # after traveling 100 mm the waist sits 100 mm behind the plane
        assert out.waist_position_mm == pytest.approx(-100.0, abs=1e-12)
        assert out.waist_radius_um == pytest.approx(50.0, rel=1e-12)

    def test_spot_radius_hyperbola(self):
        beam = GaussianBeam(0.355, 50.0)
        zr = rayleigh_range_mm(0.355, 50.0)
        assert spot_radius_um(beam, zr) == pytest.approx(
            50.0 * math.sqrt(2.0), rel=1e-12
        )
        assert spot_radius_um(beam, 0.0) == pytest.approx(50.0, rel=1e-12)

    def test_spot_radius_finite_where_u_squared_overflows(self):
        # u = 1e200 Rayleigh ranges: u*u is inf, but w0*sqrt(1 + u^2) = w0*|u|
        beam = GaussianBeam(0.355, 2.0)
        zr = rayleigh_range_mm(0.355, 2.0)
        for z in (1e200 * zr, -1e200 * zr):
            assert spot_radius_um(beam, z) == pytest.approx(2e200, rel=1e-12)
        # just below the overflow the usual expression still runs
        z = 1e154 * zr
        u = z / zr
        assert spot_radius_um(beam, z) == 2.0 * math.sqrt(1.0 + u * u)

    @given(w0=st.floats(min_value=5.0, max_value=500.0),
           d=st.floats(min_value=0.0, max_value=500.0))
    @settings(max_examples=100, deadline=None)
    def test_free_space_round_trip_restores_beam(self, w0, d):
        beam = GaussianBeam(0.355, w0)
        out = propagate(propagate(beam, free_space(d)), free_space(-d))
        assert out.waist_radius_um == pytest.approx(w0, rel=1e-9)
        assert out.waist_position_mm == pytest.approx(0.0, abs=1e-9)

    @given(w0=st.floats(min_value=5.0, max_value=500.0))
    @settings(max_examples=100, deadline=None)
    def test_afocal_relay_scales_divergence_inversely(self, w0):
        # Waist radius scales by |m|, divergence by 1/|m|; their product
        # (the beam parameter product) is invariant.
        beam = GaussianBeam(0.355, w0)
        relay = compose([free_space(200.0), thin_lens(200.0), free_space(300.0),
                         thin_lens(100.0), free_space(50.0)])
        out = propagate(beam, relay)
        theta_in = far_field_divergence_rad(0.355, w0)
        theta_out = far_field_divergence_rad(0.355, out.waist_radius_um)
        assert out.waist_radius_um * theta_out == pytest.approx(
            w0 * theta_in, rel=1e-9
        )
        assert out.waist_radius_um == pytest.approx(0.5 * w0, rel=1e-9)

    def test_nonpositive_waist_rejected(self):
        with pytest.raises(ValueError):
            GaussianBeam(0.355, waist_radius_um=-1.0)
        with pytest.raises(ValueError):
            GaussianBeam(0.355, 0.0)

    def test_nonpositive_wavelength_rejected(self):
        with pytest.raises(ValueError):
            GaussianBeam(-0.355, 50.0)

    def test_non_finite_waist_position_rejected(self):
        with pytest.raises(ValueError, match="^waist position must be finite$"):
            GaussianBeam(0.355, 1.0, math.inf)

"""Telescope prescriptions: parsing, imaging solves, array mapping."""

import json
import math

import pytest

from ionoptics.beamlab import GaussianBeamState, SingularityError, propagate
from ionoptics.system_model import (
    BeamArraySpec,
    OpticalPrescription,
    PrescriptionElement,
    PrescriptionError,
    compare_measured_pitch,
    image_array,
    image_distance_mm,
    load_prescription,
    magnification,
    reference_prescription,
    save_prescription,
)


def lens(f, axis="both"):
    return PrescriptionElement(kind="lens", value_mm=f, axis=axis)


def gap(d, axis="both"):
    return PrescriptionElement(kind="gap", value_mm=d, axis=axis)


@pytest.fixture
def telescope_75_15():
    return OpticalPrescription(
        name="75/15",
        elements=(gap(75.0), lens(75.0), gap(90.0), lens(15.0)),
    )


@pytest.fixture
def relay_2f():
    return OpticalPrescription(name="2f-2f", elements=(gap(100.0), lens(50.0)))


ARRAY = BeamArraySpec(source_diameter_um=200.0, source_pitch_um=450.0, channel_count=10)


class TestImagingSolves:
    def test_75_15_demagnifies_5x(self, telescope_75_15):
        # source at the front focal plane images at the back focal plane
        assert image_distance_mm(telescope_75_15, "axial") == pytest.approx(15.0,
                                                                            abs=1e-8)
        assert magnification(telescope_75_15, "axial") == pytest.approx(0.2, rel=1e-9)

    def test_2f_relay_unit_magnification(self, relay_2f):
        assert image_distance_mm(relay_2f, "axial") == pytest.approx(100.0, abs=1e-8)
        assert magnification(relay_2f, "axial") == pytest.approx(1.0, rel=1e-9)

    def test_axes_independent(self, telescope_75_15):
        assert image_distance_mm(telescope_75_15, "radial") == pytest.approx(
            image_distance_mm(telescope_75_15, "axial"), abs=1e-8
        )

    def test_object_at_focal_plane_has_no_image(self):
        afocal_source = OpticalPrescription(
            name="focal-plane-object", elements=(gap(50.0), lens(50.0))
        )
        with pytest.raises(SingularityError):
            image_distance_mm(afocal_source, "axial")

    def test_image_beyond_1e9_mm_is_rejected(self):
        # 1e-9 mm off the front focal plane: Newton's x*x' = f^2 puts the
        # image about 2.5e12 mm behind the lens
        near_focal_source = OpticalPrescription(
            name="near-focal-object", elements=(gap(50.0 + 1e-9), lens(50.0))
        )
        with pytest.raises(SingularityError, match="within 1e9 mm"):
            image_distance_mm(near_focal_source, "axial")

    def test_cascade_matches_elementwise_product(self, telescope_75_15):
        m = telescope_75_15.matrix("axial")
        acc = None
        for e in telescope_75_15.elements:
            acc = e.matrix() if acc is None else e.matrix() @ acc
        for attr in "abcd":
            assert getattr(m, attr) == pytest.approx(getattr(acc, attr), abs=1e-9)


class TestImageArray:
    def test_afocal_diameter_matches_magnification_shortcut(self, telescope_75_15):
        report = image_array(telescope_75_15, ARRAY)
        assert report.axial.diameter_um == pytest.approx(
            ARRAY.source_diameter_um * report.axial.magnification, rel=1e-9
        )

    def test_pitch_scales_with_axial_magnification(self, telescope_75_15):
        report = image_array(telescope_75_15, ARRAY)
        assert report.pitch_um == pytest.approx(450.0 * 0.2, rel=1e-9)

    def test_centers_symmetric_on_pitch_grid(self, telescope_75_15):
        report = image_array(telescope_75_15, ARRAY)
        centers = report.centers_um
        assert len(centers) == ARRAY.channel_count
        steps = {round(b - a, 9) for a, b in zip(centers, centers[1:])}
        assert steps == {round(report.pitch_um, 9)}
        assert sum(centers) == pytest.approx(0.0, abs=1e-9)

    def test_round_prescription_reports_no_astigmatism(self, telescope_75_15):
        report = image_array(telescope_75_15, ARRAY)
        assert report.astigmatic_offset_mm == pytest.approx(0.0, abs=1e-8)
        assert report.radial_diameter_at_axial_plane_um == pytest.approx(
            report.radial.diameter_um, rel=1e-6
        )
        assert report.notes == ()

    def test_gaussian_waist_vs_direct_propagation(self, telescope_75_15):
        # oracle: propagate the q-parameter through the full matrix with the
        # solved trailing gap and compare waists
        report = image_array(telescope_75_15, ARRAY)
        beam = GaussianBeamState.circular(0.355, 100.0)
        from ionoptics.beamlab import compose, free_space

        m = compose([e.matrix() for e in telescope_75_15.elements] + [free_space(15.0)])
        out = propagate(beam, m, "axial")
        assert report.axial.diameter_um == pytest.approx(
            2.0 * out.axial.waist_radius_um, rel=1e-9
        )


class TestReferencePrescription:
    def test_frozen_image_numbers(self):
        report = image_array(reference_prescription(), ARRAY)
        assert report.axial.diameter_um == pytest.approx(1.904761904761905, rel=1e-9)
        assert report.radial.diameter_um == pytest.approx(9.523809523809524, rel=1e-9)
        assert report.pitch_um == pytest.approx(4.285714285714286, rel=1e-9)
        assert report.axial.image_distance_mm == pytest.approx(22.732426303855, abs=1e-6)
        assert report.radial.image_distance_mm == pytest.approx(22.324263038548, abs=1e-6)
        assert report.astigmatic_offset_mm == pytest.approx(0.408163265306, abs=1e-6)

    def test_magnifications(self):
        ref = reference_prescription()
        assert magnification(ref, "axial") == pytest.approx(1.0 / 105.0, rel=1e-9)
        assert magnification(ref, "radial") == pytest.approx(1.0 / 21.0, rel=1e-9)

    def test_astigmatic_note_present(self):
        report = image_array(reference_prescription(), ARRAY)
        assert report.notes, "waist-plane mismatch must be reported"
        assert "differ" in report.notes[0]
        assert report.radial_diameter_at_axial_plane_um == pytest.approx(21.586, abs=0.01)

    def test_axis_parities(self):
        # three stages invert the axial image; the radial path sees only
        # the two spherical stages and comes out upright
        report = image_array(reference_prescription(), ARRAY)
        assert report.axial.inverted
        assert not report.radial.inverted


class TestPrescriptionIO:
    def test_round_trip(self, tmp_path, telescope_75_15):
        path = tmp_path / "p.json"
        save_prescription(telescope_75_15, path)
        loaded = load_prescription(path)
        assert loaded == telescope_75_15

    def test_unknown_kind_names_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "name": "bad",
            "elements": [{"kind": "lens", "value_mm": 10.0},
                         {"kind": "prism", "value_mm": 1.0}],
        }))
        with pytest.raises(PrescriptionError, match=r"elements\[1\]\.kind"):
            load_prescription(path)

    def test_missing_value_names_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "elements": [{"kind": "gap"}]}))
        with pytest.raises(PrescriptionError, match=r"elements\[0\]\.value_mm"):
            load_prescription(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "name": "bad",
            "elements": [{"kind": "lens", "value_mm": 10.0, "tilt": 3}],
        }))
        with pytest.raises(PrescriptionError, match="tilt"):
            load_prescription(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(PrescriptionError, match="not valid JSON"):
            load_prescription(path)

    def test_axis_restricted_elements_parse(self, tmp_path):
        path = tmp_path / "cyl.json"
        path.write_text(json.dumps({
            "name": "cyl",
            "elements": [{"kind": "gap", "value_mm": 10.0},
                         {"kind": "lens", "value_mm": 10.0, "axis": "axial"},
                         {"kind": "lens", "value_mm": 20.0, "axis": "radial"}],
        }))
        loaded = load_prescription(path)
        assert loaded.elements[1].applies_to("axial")
        assert not loaded.elements[1].applies_to("radial")

    def test_prescription_requires_lens_per_axis(self):
        with pytest.raises(PrescriptionError, match="radial"):
            OpticalPrescription(name="axial-only",
                                elements=(gap(10.0), lens(10.0, axis="axial")))


class TestDiscrepancy:
    def test_agreeing_measurement(self, telescope_75_15):
        report = image_array(telescope_75_15, ARRAY)
        disc = compare_measured_pitch(report, 90.05, 0.1)
        assert disc.within
        assert disc.n_sigma == pytest.approx(0.5, rel=1e-9)

    def test_disagreeing_measurement_flagged(self, telescope_75_15):
        report = image_array(telescope_75_15, ARRAY)
        disc = compare_measured_pitch(report, 97.0, 0.1, k=3.0)
        assert not disc.within
        assert disc.relative == pytest.approx(7.0 / 90.0, rel=1e-9)

    def test_domain(self, telescope_75_15):
        report = image_array(telescope_75_15, ARRAY)
        with pytest.raises(ValueError):
            compare_measured_pitch(report, -1.0, 0.1)
        with pytest.raises(ValueError):
            compare_measured_pitch(report, 90.0, 0.0)

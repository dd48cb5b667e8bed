"""Telescope prescriptions: parsing, imaging solves, array mapping."""

import copy
import dataclasses
import json
import math
import pickle
import random
import re

import pytest

from ionoptics import system_model
from ionoptics.beamlab import (
    GaussianBeam,
    RayMatrix,
    SingularityError,
    free_space,
    propagate,
    spot_radius_um,
)
from ionoptics.system_model import (
    AXES,
    BeamArraySpec,
    OpticalPrescription,
    PrescriptionElement,
    PrescriptionError,
    compare_measured_pitch,
    image_array,
    image_distance_mm,
    load_prescription,
    reference_prescription,
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

#: Every number of image_array(reference_prescription(), ARRAY). The design
#: half uses only + - * / and sqrt, so these hold to the last bit.
REFERENCE_REPORT = {
    "wavelength_um": 0.355,
    "axial": {"magnification": 0.009523809523809523, "inverted": True,
              "image_distance_mm": 22.732426303854876, "diameter_um": 1.9047619047619047,
              "waist_offset_mm": 1.4808863640770774e-18},
    "radial": {"magnification": 0.047619047619047616, "inverted": False,
               "image_distance_mm": 22.32426303854875, "diameter_um": 9.523809523809524,
               "waist_offset_mm": 2.200425503829238e-18},
    "pitch_um": 4.285714285714286,
    "centers_um": (-19.285714285714285, -15.0, -10.714285714285714, -6.428571428571429,
                   -2.142857142857143, 2.142857142857143, 6.428571428571429,
                   10.714285714285714, 15.0, 19.285714285714285),
    "astigmatic_offset_mm": 0.40816326530612557,
    "radial_diameter_at_axial_plane_um": 21.585996768087167,
}


class TestImagingSolves:
    def test_75_15_demagnifies_5x(self, telescope_75_15):
        # source at the front focal plane images at the back focal plane
        assert image_distance_mm(telescope_75_15, "axial") == pytest.approx(15.0,
                                                                            abs=1e-8)
        assert image_array(telescope_75_15, ARRAY).axial.magnification == pytest.approx(
            0.2, rel=1e-9)

    def test_2f_relay_unit_magnification(self, relay_2f):
        assert image_distance_mm(relay_2f, "axial") == pytest.approx(100.0, abs=1e-8)
        assert image_array(relay_2f, ARRAY).axial.magnification == pytest.approx(
            1.0, rel=1e-9)

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

    @pytest.mark.parametrize("solve", [OpticalPrescription.matrix, image_distance_mm])
    def test_unknown_axis_rejected(self, solve):
        with pytest.raises(ValueError, match=re.escape(repr(AXES))):
            solve(reference_prescription(), "diagonal")

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
        beam = GaussianBeam(0.355, 100.0)
        from ionoptics.beamlab import compose, free_space

        m = compose([e.matrix() for e in telescope_75_15.elements] + [free_space(15.0)])
        out = propagate(beam, m)
        assert report.axial.diameter_um == pytest.approx(
            2.0 * out.waist_radius_um, rel=1e-9
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

    def test_report_numbers_exact(self):
        report = dataclasses.asdict(image_array(reference_prescription(), ARRAY))
        assert set(report) - set(REFERENCE_REPORT) == {"prescription_name", "notes"}
        for key, expected in REFERENCE_REPORT.items():
            assert report[key] == expected, key

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
    def test_round_trip(self, tmp_path):
        expected = OpticalPrescription(
            name="cylindrical", source_label="aom", image_label="ions",
            elements=(gap(75.0), lens(75.0), gap(90.0, axis="radial"),
                      lens(15.0, axis="axial"), lens(20.0, axis="radial")),
        )
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "name": expected.name,
            "source_plane": expected.source_label,
            "image_plane": expected.image_label,
            "elements": [{"kind": e.kind, "value_mm": e.value_mm, "axis": e.axis}
                         for e in expected.elements],
        }))
        loaded = load_prescription(path)
        assert loaded == expected
        assert (loaded.source_label, loaded.image_label) == ("aom", "ions")
        assert [e.axis for e in loaded.elements] == ["both", "both", "radial", "axial", "radial"]

    def test_integer_beyond_float_range_names_field(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"name": "big", "elements": [{"kind": "gap", "value_mm": 1'
                        + "0" * 400 + "}]}")
        with pytest.raises(PrescriptionError, match=r"elements\[0\]\.value_mm: expected a finite"):
            load_prescription(path)

    @pytest.mark.parametrize("content", [
        pytest.param(b'{"name": "\xff"}', id="undecodable"),
        pytest.param(b'{"name": "x", "elements": [{"kind": "gap", "value_mm": '
                     + b"1" * 5000 + b"}]}", id="digit-limit"),
    ])
    def test_unparsable_file_names_its_path(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(PrescriptionError, match=re.escape(f"{path}: not valid JSON")):
            load_prescription(path)

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

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "name": "x", "extra": 1,
            "elements": [{"kind": "gap", "value_mm": 100.0}, {"kind": "lens", "value_mm": 50.0}],
        }))
        with pytest.raises(PrescriptionError, match="^extra: unknown field$"):
            load_prescription(path)

    def test_plane_labels_default(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "name": "x",
            "elements": [{"kind": "gap", "value_mm": 100.0}, {"kind": "lens", "value_mm": 50.0}],
        }))
        loaded = load_prescription(path)
        assert (loaded.source_label, loaded.image_label) == ("source", "image")

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


class TestElementChecks:
    """An element built in code is checked where a train uses it."""

    @pytest.mark.parametrize("solve", [image_distance_mm, OpticalPrescription.matrix])
    def test_unknown_kind_rejected(self, solve):
        # a mistyped "lens" used to act as a 40 mm gap (image at -25 mm)
        typo = OpticalPrescription(name="typo", elements=(
            gap(75.0), lens(75.0), gap(90.0), lens(15.0), PrescriptionElement("lense", 40.0)))
        with pytest.raises(ValueError, match=re.escape(repr(("lens", "gap")))):
            solve(typo, "axial")
        with pytest.raises(ValueError, match="got 'lense'"):
            image_array(typo, ARRAY)

    @pytest.mark.parametrize("axis", AXES)
    def test_unknown_element_axis_rejected(self, axis):
        # a lens on an unknown axis used to drop out of both trains
        skew = OpticalPrescription(name="skew", elements=(
            gap(75.0), lens(75.0), gap(90.0), lens(15.0), lens(40.0, axis="diagonal")))
        with pytest.raises(ValueError, match=re.escape(repr(("axial", "radial", "both")))):
            skew.matrix(axis)
        with pytest.raises(ValueError, match="got 'diagonal'"):
            image_array(skew, ARRAY)


def _variants(n, seed=0):
    """n copies of the reference train with every element off by a 1% draw."""
    rng = random.Random(seed)
    ref = reference_prescription()
    return [dataclasses.replace(ref, name=f"{ref.name}-v{v}", elements=tuple(
        dataclasses.replace(e, value_mm=e.value_mm * (1.0 + rng.gauss(0.0, 0.01)))
        for e in ref.elements)) for v in range(n)]


def _two_solve_fields(prescription, array, wavelength_um=0.355):
    """image_array's numbers the way it once took them: the image distance
    from one composition, the matrix at the image from a second."""
    source = GaussianBeam(wavelength_um, array.source_diameter_um / 2.0)
    fields, at_image = {}, {}
    for axis in AXES:
        t = image_distance_mm(prescription, axis)
        m = free_space(t) @ prescription.matrix(axis)
        out = propagate(source, m)
        at_image[axis] = m, t
        fields[axis] = {"magnification": abs(m.a), "inverted": m.a < 0, "image_distance_mm": t,
                        "diameter_um": 2.0 * spot_radius_um(out, 0.0),
                        "waist_offset_mm": out.waist_position_mm}
    pitch = array.source_pitch_um * fields["axial"]["magnification"]
    n = array.channel_count
    offset = at_image["axial"][1] - at_image["radial"][1]
    radial_at_axial = propagate(source, free_space(offset) @ at_image["radial"][0])
    fields.update(
        prescription_name=prescription.name, wavelength_um=wavelength_um, pitch_um=pitch,
        centers_um=tuple(pitch * (i - (n - 1) / 2.0) for i in range(n)),
        astigmatic_offset_mm=offset,
        radial_diameter_at_axial_plane_um=2.0 * spot_radius_um(radial_at_axial, 0.0))
    return fields


class TestOneSolvePerAxis:
    def test_matches_two_solves_exactly(self):
        for variant in _variants(256):
            report = dataclasses.asdict(image_array(variant, ARRAY))
            notes = report.pop("notes")
            assert report == _two_solve_fields(variant, ARRAY), variant.name
            assert len(notes) == (abs(report["astigmatic_offset_mm"]) > 1e-6)

    def test_each_axis_composed_once(self, monkeypatch):
        calls, real_compose = [], system_model.compose

        def counting_compose(elements):
            calls.append(1)
            return real_compose(elements)

        monkeypatch.setattr(system_model, "compose", counting_compose)
        ref = reference_prescription()
        image_array(ref, ARRAY)
        assert len(calls) == 2
        calls.clear()
        image_distance_mm(ref, "axial")
        assert len(calls) == 1


def _design_instances():
    ref = reference_prescription()
    report = image_array(ref, ARRAY)
    return [RayMatrix(1.0, 2.0, 0.0, 1.0), GaussianBeam(0.355, 1.0), ref.elements[1], ref,
            ARRAY, report.axial, report, compare_measured_pitch(report, 4.31, 0.05)]


class TestSlottedTypes:
    @pytest.mark.parametrize("instance", _design_instances(), ids=lambda x: type(x).__name__)
    def test_no_instance_dict(self, instance):
        assert not hasattr(instance, "__dict__")
        assert type(instance).__slots__

    @pytest.mark.parametrize("instance", _design_instances(), ids=lambda x: type(x).__name__)
    def test_dataclass_helpers_still_work(self, instance):
        first = dataclasses.fields(instance)[0].name
        value = getattr(instance, first)
        assert dataclasses.replace(instance, **{first: value}) == instance
        assert list(dataclasses.asdict(instance)) == [f.name for f in dataclasses.fields(instance)]
        assert pickle.loads(pickle.dumps(instance)) == instance
        assert copy.deepcopy(instance) == instance
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(instance, first, value)


class TestDiscrepancy:
    def test_agreeing_measurement(self, telescope_75_15):
        report = image_array(telescope_75_15, ARRAY)
        disc = compare_measured_pitch(report, 90.05, 0.1)
        assert disc.within
        assert disc.n_sigma == pytest.approx(0.5, rel=1e-9)

    def test_disagreeing_measurement_flagged(self, telescope_75_15):
        report = image_array(telescope_75_15, ARRAY)
        disc = compare_measured_pitch(report, 97.0, 0.1)
        assert not disc.within
        assert disc.relative == pytest.approx(7.0 / 90.0, rel=1e-9)

    def test_domain(self, telescope_75_15):
        report = image_array(telescope_75_15, ARRAY)
        with pytest.raises(ValueError):
            compare_measured_pitch(report, -1.0, 0.1)
        with pytest.raises(ValueError):
            compare_measured_pitch(report, 90.0, 0.0)

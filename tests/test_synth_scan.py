"""Synthetic dataset generation: determinism, noise statistics, jitter."""

import math

import numpy as np
import pytest

from ionoptics import synth_scan
from ionoptics.cli import _TRACE_SALT, main
from ionoptics.rabi_model import BeamProfileParams, SpamModel, apply_spam, p_excited
from ionoptics.scan_fit import ScanRecord, read_scan_csv
from ionoptics.synth_scan import SynthConfig, default_scan_grid, generate, position_jitter

TWO_PI = 2.0 * math.pi


def small_config(beam_a, beam_b=None, **kw):
    truth = (beam_a,) if beam_b is None else (beam_a, beam_b)
    defaults = dict(
        truth=truth,
        positions_um=(-2.0, -0.5, 1.0, 2.5),
        durations_s=(0.0, 1e-4, 2e-4, 3e-4, 5e-4),
        shots=200,
        rng_seed=11,
    )
    defaults.update(kw)
    return SynthConfig(**defaults)


class TestDeterminism:
    def test_same_config_same_dataset(self, beam_a):
        cfg = small_config(beam_a)
        assert generate(cfg) == generate(cfg)

    def test_seed_changes_data(self, beam_a):
        a = generate(small_config(beam_a, rng_seed=1))[0]
        b = generate(small_config(beam_a, rng_seed=2))[0]
        assert a != b

    @pytest.mark.parametrize("analytic", [False, True])
    def test_record_draw_reconstructable_from_indices(self, beam_a, beam_b, analytic):
        # counter-based keying: record (beam k, position i, duration j)
        # depends only on (seed, k, i, j); every record of both beams
        # equals a fresh per-record Philox draw (or, analytic, the model)
        cfg = small_config(beam_a, beam_b, analytic=analytic,
                           spam=SpamModel(eps_prep=0.03, eps_meas=0.05))
        datasets = generate(cfg)
        for k, (beam, ds) in enumerate(zip((beam_a, beam_b), datasets)):
            expected = []
            for i, x in enumerate(cfg.positions_um):
                for j, t in enumerate(cfg.durations_s):
                    p = float(apply_spam(p_excited(beam, x, t), cfg.spam))
                    if analytic:
                        p1 = min(max(p, 0.0), 1.0)
                    else:
                        key = np.array([cfg.rng_seed, (k << 40) | (i << 20) | j],
                                       dtype=np.uint64)
                        rng = np.random.Generator(np.random.Philox(key=key))
                        p1 = rng.binomial(cfg.shots, p) / cfg.shots
                    expected.append(ScanRecord(x, t, p1, cfg.shots))
            assert ds.rows() == tuple(expected)

    def test_readme_run_reconstructable_from_fresh_philox(self, beam_a, beam_b, tmp_path):
        # every record of the README two-beam synth (85 x 21 per scan) and
        # of both off-beam traces is the draw of a fresh Philox keyed
        # [seed, beam << 40 | i << 20 | j]; traces use seed ^ _TRACE_SALT
        assert main(["synth", "--out-dir", str(tmp_path), "--seed", "0",
                     "--rabi-hz", "1910", "2790", "--center-um", "0", "4.31",
                     "--width-um", "1.86", "1.88", "--emit-traces"]) == 0
        positions, durations = default_scan_grid((beam_a, beam_b), 61, 21)
        assert (len(positions), len(durations)) == (85, 21)
        spam = SpamModel(eps_prep=0.01, eps_meas=0.01)
        files = [(f"scan_{label}.csv", beam, positions, 0, k)
                 for k, (label, beam) in enumerate(zip("AB", (beam_a, beam_b)))]
        files += [(f"trace_{label}.csv", driven, (other.center_um,), _TRACE_SALT, 0)
                  for label, driven, other in (("A", beam_a, beam_b), ("B", beam_b, beam_a))]
        for name, beam, xs, seed, k in files:
            ds = read_scan_csv(tmp_path / name)
            p = apply_spam(p_excited(beam, np.array(xs)[:, None], np.array(durations)),
                           spam).ravel().tolist()
            expected = []
            for i in range(len(xs)):
                for j in range(len(durations)):
                    key = np.array([seed, (k << 40) | (i << 20) | j], dtype=np.uint64)
                    rng = np.random.Generator(np.random.Philox(key=key))
                    expected.append(rng.binomial(200, p[i * len(durations) + j]))
            assert np.rint(ds.p1 * 200).astype(int).tolist() == expected, name

    def test_one_generator_built_per_beam(self, beam_a, beam_b, monkeypatch):
        built = []
        point_rng = synth_scan._point_rng
        monkeypatch.setattr(synth_scan, "_point_rng",
                            lambda seed, tag: built.append(tag) or point_rng(seed, tag))
        generate(small_config(beam_a, beam_b))
        assert len(built) == 2

    @pytest.mark.parametrize("axis", ["positions_um", "durations_s"])
    def test_grid_beyond_keying_range_rejected_before_any_draw(self, beam_a, monkeypatch, axis):
        # indices are 20-bit fields of the tag: 2^20 points fit, one more does not
        built = []
        monkeypatch.setattr(synth_scan, "_point_rng", lambda *args: built.append(args))
        other = "durations_s" if axis == "positions_um" else "positions_um"
        cfg = small_config(beam_a, **{axis: np.arange((1 << 20) + 1) * 1e-6, other: (0.0,)})
        with pytest.raises(ValueError, match="keying scheme"):
            generate(cfg)
        assert built == []
        assert synth_scan._record_tags(1, 1, 1 << 20)[-1] == (1 << 40) | ((1 << 20) - 1)

    def test_beams_use_disjoint_streams(self, beam_a, beam_b):
        # same truth for both beams: identical probabilities must still get
        # independent draws
        cfg = small_config(beam_a, beam_a)
        ds_a, ds_b = generate(cfg)
        assert [r.p1 for r in ds_a.rows()] != [r.p1 for r in ds_b.rows()]


class TestContent:
    def test_analytic_mode_is_exact_model(self, beam_a):
        cfg = small_config(beam_a, analytic=True)
        ds = generate(cfg)[0]
        for rec in ds.rows():
            expected = float(apply_spam(
                p_excited(beam_a, rec.position_um, rec.duration_s), cfg.spam))
            assert rec.p1 == pytest.approx(expected, abs=1e-15)

    def test_two_beam_mode_emits_two_labeled_datasets(self, beam_a, beam_b):
        datasets = generate(small_config(beam_a, beam_b))
        assert [ds.beam_label for ds in datasets] == ["A", "B"]
        grid = [(r.position_um, r.duration_s) for r in datasets[0].rows()]
        assert grid == [(r.position_um, r.duration_s) for r in datasets[1].rows()]

    def test_p1_quantized_to_shots(self, beam_a):
        cfg = small_config(beam_a, shots=50)
        for rec in generate(cfg)[0].rows():
            assert rec.shots == 50
            assert (rec.p1 * 50) == pytest.approx(round(rec.p1 * 50), abs=1e-9)

    def test_empirical_mean_matches_model(self, beam_a):
        # across seeds, per-record means converge to the model probability
        n_seeds = 300
        cfg0 = small_config(beam_a)
        sums = np.zeros(len(cfg0.positions_um) * len(cfg0.durations_s))
        for seed in range(n_seeds):
            ds = generate(small_config(beam_a, rng_seed=seed))[0]
            sums += ds.p1
        means = sums / n_seeds
        for idx, rec in enumerate(generate(small_config(beam_a, analytic=True))[0].rows()):
            p = rec.p1
            se = math.sqrt(max(p * (1 - p), 1e-6) / (200 * n_seeds))
            assert abs(means[idx] - p) < 5 * se


class TestValidation:
    def test_truth_count(self, beam_a, beam_b):
        with pytest.raises(ValueError):
            SynthConfig(truth=(), positions_um=(0.0, 1.0), durations_s=(0.0, 1e-4))
        with pytest.raises(ValueError):
            SynthConfig(truth=(beam_a, beam_b, beam_a),
                        positions_um=(0.0, 1.0), durations_s=(0.0, 1e-4))

    def test_single_beam_without_tuple_accepted(self, beam_a):
        cfg = SynthConfig(truth=beam_a, positions_um=(0.0, 1.0),
                          durations_s=(0.0, 1e-4))
        assert cfg.truth == (beam_a,)

    def test_grids_must_increase(self, beam_a):
        with pytest.raises(ValueError):
            small_config(beam_a, positions_um=(0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            small_config(beam_a, durations_s=(1e-4, 0.5e-4))

    def test_shots_positive(self, beam_a):
        with pytest.raises(ValueError):
            small_config(beam_a, shots=0)

    def test_seed_domain(self, beam_a):
        with pytest.raises(ValueError):
            small_config(beam_a, rng_seed=-1)


class TestJitter:
    def test_offsets_bounded_and_probabilities_untouched(self, beam_a):
        ds = generate(small_config(beam_a))[0]
        blurred = position_jitter(ds, 0.5, rng_seed=4)
        assert blurred.position_resolution_um == 0.5
        for before, after in zip(ds.rows(), blurred.rows()):
            assert abs(after.position_um - before.position_um) <= 0.25
            assert after.p1 == before.p1
            assert after.duration_s == before.duration_s

    def test_offsets_reconstructable_from_record_index(self, beam_a):
        # record idx of the dataset is shifted by the first uniform draw of
        # a fresh Philox keyed [seed, 2^63 | idx]
        ds = generate(small_config(beam_a))[0]
        blurred = position_jitter(ds, 0.5, rng_seed=4)
        for idx, (before, after) in enumerate(zip(ds.rows(), blurred.rows())):
            key = np.array([4, (1 << 63) | idx], dtype=np.uint64)
            rng = np.random.Generator(np.random.Philox(key=key))
            assert after.position_um == before.position_um + rng.uniform(-0.25, 0.25)

    def test_deterministic(self, beam_a):
        ds = generate(small_config(beam_a))[0]
        assert position_jitter(ds, 0.5, rng_seed=4) == position_jitter(ds, 0.5, rng_seed=4)
        assert position_jitter(ds, 0.5, rng_seed=4) != position_jitter(ds, 0.5, rng_seed=5)

    def test_zero_resolution_identity(self, beam_a):
        ds = generate(small_config(beam_a))[0]
        blurred = position_jitter(ds, 0.0, rng_seed=4)
        assert [r.position_um for r in blurred.rows()] == [
            r.position_um for r in ds.rows()]
        assert blurred.position_resolution_um == 0.0

    def test_negative_resolution_rejected(self, beam_a):
        ds = generate(small_config(beam_a))[0]
        with pytest.raises(ValueError):
            position_jitter(ds, -0.1)


class TestDefaultGrid:
    def test_single_beam_span_and_counts(self, beam_a):
        positions, durations = default_scan_grid(beam_a)
        assert len(positions) == 61
        assert len(durations) == 21
        assert positions[0] == pytest.approx(-3 * 1.86)
        assert positions[-1] == pytest.approx(3 * 1.86)
        assert durations[0] == 0.0
        # three full oscillation periods of sin^2(Omega t / 2)
        assert durations[-1] == pytest.approx(3 * TWO_PI / beam_a.omega0, rel=1e-12)

    def test_two_beam_span_covers_both(self, beam_a, beam_b):
        positions, durations = default_scan_grid((beam_a, beam_b))
        assert positions[0] == pytest.approx(0.0 - 3 * 1.86)
        assert positions[-1] == pytest.approx(4.31 + 3 * 1.88)
        # slowest beam sets the duration span
        assert durations[-1] == pytest.approx(3 * TWO_PI / beam_a.omega0, rel=1e-12)
        # step stays at or below the narrowest width / 10
        step = positions[1] - positions[0]
        assert step <= 1.86 / 10 + 1e-12

    def test_feeds_generate(self, beam_a):
        positions, durations = default_scan_grid(beam_a, 11, 5)
        cfg = SynthConfig(truth=beam_a, positions_um=positions, durations_s=durations)
        ds = generate(cfg)[0]
        assert len(ds) == len(positions) * len(durations)

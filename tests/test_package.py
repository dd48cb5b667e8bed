"""Package-level properties of ionoptics as a whole."""

import subprocess
import sys
import textwrap

import pytest

import ionoptics
from ionoptics.cli import main


def run_python(code, env):
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
                          text=True, env=env, check=True)


def test_import_does_not_load_scipy(subprocess_env):
    # scipy is a test-only dependency; the library and CLI must not pull it in
    code = "import sys, ionoptics, ionoptics.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=subprocess_env, check=True)
    assert proc.stdout.strip() == "False"


def test_import_loads_no_submodule(subprocess_env):
    proc = run_python("""
        import sys, ionoptics
        print(sorted(m for m in sys.modules if m.startswith("ionoptics.") or m == "numpy"))
    """, subprocess_env)
    assert proc.stdout.strip() == "[]"


def test_design_steps_run_without_numpy(subprocess_env, tmp_path):
    # With numpy made unimportable, the numpy-free steps must still succeed.
    proc = run_python(f"""
        import sys
        sys.modules["numpy"] = None
        from ionoptics.cli import main
        try:
            main(["--version"])
        except SystemExit as exc:
            assert exc.code == 0, exc.code
        out = {str(tmp_path)!r}
        assert main(["design", "--out-dir", out]) == 0
        assert main(["propagate", "--out-dir", out, "--measured-pitch", "4.4",
                     "--measured-pitch-err", "0.05"]) == 0
    """, subprocess_env)
    assert proc.stdout.strip() == "ionoptics 0.1.0"
    assert {p.name for p in tmp_path.iterdir()} == {
        "design_curve.csv", "design_summary.json", "design_manifest.json",
        "image_report.json", "propagate_manifest.json",
    }


def test_measurement_steps_skip_the_design_modules(subprocess_env, tmp_path):
    assert main(["synth", "--out-dir", str(tmp_path), "--seed", "0",
                 "--rabi-hz", "1910", "2790", "--center-um", "0", "4.31",
                 "--width-um", "1.86", "1.88", "--emit-traces"]) == 0
    proc = run_python(f"""
        import sys
        from ionoptics.cli import main
        out = {str(tmp_path)!r}
        for beam in "AB":
            assert main(["fit", f"{{out}}/scan_{{beam}}.csv", "--out-dir", out]) == 0
        assert main(["pair", "--out-dir", out,
                     "--fit-a", f"{{out}}/scan_A_report.json",
                     "--fit-b", f"{{out}}/scan_B_report.json",
                     "--trace-a", f"{{out}}/trace_A.csv",
                     "--trace-b", f"{{out}}/trace_B.csv"]) == 0
        print(sorted(m for m in sys.modules if m.startswith(("ionoptics.", "numpy.ma"))))
    """, subprocess_env)
    loaded = set(eval(proc.stdout))
    assert {"ionoptics.scan_fit", "ionoptics.rabi_model"} <= loaded
    # numpy.ma costs 15-19 ms of start-up; np.unique and np.median load it
    assert not loaded & {"ionoptics.synth_scan", "ionoptics.system_model",
                         "ionoptics.design_tradeoff", "numpy.ma"}


def test_every_public_name_resolves():
    assert len(set(ionoptics.__all__)) == len(ionoptics.__all__)
    for name in ionoptics.__all__:
        getattr(ionoptics, name)
    assert set(ionoptics.__all__) <= set(dir(ionoptics))
    namespace = {}
    exec("from ionoptics import *", namespace)
    assert set(ionoptics.__all__) <= set(namespace)
    assert namespace["fit_beam"] is ionoptics.scan_fit.fit_beam


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ionoptics.no_such_name  # noqa: B018
    assert not hasattr(ionoptics, "fit_beams")

"""Package-level properties of ionoptics as a whole."""

import subprocess
import sys


def test_import_does_not_load_scipy(subprocess_env):
    # scipy is a test-only dependency; the library and CLI must not pull it in
    code = "import sys, ionoptics, ionoptics.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=subprocess_env, check=True)
    assert proc.stdout.strip() == "False"

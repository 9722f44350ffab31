"""The quick demos run to completion against this source tree.

`attribute_bench.py`, `key_wrapping.py` and `image_pipeline.py` are left
out: they take seconds each, mostly in timing loops and keygen that the
rest of the suite already covers.
"""

import os
import subprocess
import sys
from pathlib import Path

import parvault

DEMOS = Path(__file__).resolve().parents[1] / "demos"
QUICK = ("four_party_protocol.py", "involution_cipher.py",
         "parabolic_sharing.py", "keystream_quality.py")


def test_quick_demos_run_clean(tmp_path):
    source_root = str(Path(parvault.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [source_root] + ([inherited] if inherited else [])))
    for name in QUICK:
        proc = subprocess.run([sys.executable, str(DEMOS / name)],
                              capture_output=True, text=True, cwd=tmp_path,
                              env=env)
        assert proc.returncode == 0, (name, proc.stderr)
        assert proc.stderr == "", name
        assert proc.stdout, name

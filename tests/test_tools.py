"""The scripts under tools/, run as their docstrings say."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# farm.bin, per-seed score and ROC tables, one report per eval, one compare per mode
_DIGESTED = re.compile(r"(plain|dp)/(farm/farm\.bin|\w+_(online|offline)/scores_seed[01]\.csv"
                       r"|eval_\w+_(online|offline)/(roc_seed[01]|report)\.csv"
                       r"|compare_(online|offline)/compare\.csv)")


def test_byte_grid_digests_every_artefact(tmp_path):
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "byte_grid.py"), str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=""),  # it finds its own src/
                          capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    lines = (tmp_path / "digests.txt").read_text().splitlines()
    assert done.stdout.splitlines()[-1] == f"66 digests -> {tmp_path / 'digests.txt'}"
    paths = [line.split("  ", 1)[1] for line in lines]
    assert len(lines) == 66 and paths == sorted(paths) and len(set(paths)) == 66
    for line, path in zip(lines, paths):
        assert re.fullmatch(r"[0-9a-f]{64}  \S+", line), line
        assert _DIGESTED.fullmatch(path) and "manifest" not in path, path

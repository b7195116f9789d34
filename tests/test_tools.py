"""The scripts under tools/, run as their docstrings say."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# farm.bin, per-seed score and ROC tables, one report per eval, one compare per mode
_DIGESTED = re.compile(r"(plain|dp|wide)/(farm/farm\.bin|\w+_(online|offline)/scores_seed[01]\.csv"
                       r"|eval_\w+_(online|offline)/(roc_seed[01]|report)\.csv"
                       r"|compare_(online|offline)/compare\.csv)")


def test_byte_grid_digests_every_artefact(tmp_path):
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "byte_grid.py"), str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=""),  # it finds its own src/
                          capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    lines = (tmp_path / "digests.txt").read_text().splitlines()
    assert done.stdout.splitlines()[-1] == f"99 digests -> {tmp_path / 'digests.txt'}"
    paths = [line.split("  ", 1)[1] for line in lines]
    assert len(lines) == 99 and paths == sorted(paths) and len(set(paths)) == 99
    for line, path in zip(lines, paths):
        assert re.fullmatch(r"[0-9a-f]{64}  \S+", line), line
        assert _DIGESTED.fullmatch(path) and "manifest" not in path, path


def test_attack_blocks_reports_each_mode(tmp_path):
    out = tmp_path / "blocks.json"
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "attack_blocks.py"), str(out),
                           "--shapes", "tiny", "--repeats", "2"],
                          env=dict(os.environ, PYTHONPATH=""), capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    record = json.loads(out.read_text())
    assert list(record) == ["shapes"] and list(record["shapes"]) == ["tiny"]
    for mode in ("offline", "online"):
        run = record["shapes"]["tiny"][mode]
        assert run["blocks"] == 1 and run["rows_per_block"] == 60  # 20 targets x 3 queries
        assert len(run["time_s"]) == 2 and run["median_s"] > 0 and run["rss_growth_mb"] >= 0
        assert run["traced_peak_mb"] > 0 and run["bytes_per_row"] > 0
        assert run["holders"] and all(re.fullmatch(r"\w+\.py:\d+", h["line"]) and h["source"]
                                      for h in run["holders"])

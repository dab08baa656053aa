"""The scripts under ``scripts/`` run on small inputs and print their summary.

Each runs as its own process, as a user starts it; the scripts put ``src``
on the import path themselves.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script,args,expected",
    [
        ("bench_statespace.py", ["--counters", "2", "--bound", "3"], "observer: 16 macro states"),
        (
            "bench_statespace.py",
            ["--counters", "2", "--bound", "3"],
            "explore (every counter read): 16 states, 24 edges",
        ),
        ("bench_statespace.py", ["--counters", "2", "--bound", "3"], "peak RSS after explore: "),
        ("bench_statespace.py", ["--counters", "2", "--bound", "3"], "dot (markings): 1,701 bytes"),
        (
            "bench_statespace.py",
            ["--counters", "2", "--bound", "3"],
            "dynamic BLP: holds, 0 violation(s)",
        ),
        ("bench_statespace.py", ["--counters", "2", "--bound", "3"], "snni at Public: holds"),
        ("bench_statespace.py", ["--counters", "2", "--bound", "3"], "snni at Secret: holds"),
        (
            "bench_statespace.py",
            ["--counters", "2", "--bound", "3"],
            "current-state opacity: not opaque, witness of 6 symbols",
        ),
        ("sweep_opacity.py", ["--instances", "5"], "5 instances"),
    ],
    ids=[
        "bench_statespace",
        "bench_statespace_reading",
        "bench_statespace_rss",
        "bench_statespace_dot",
        "bench_statespace_blp",
        "bench_statespace_snni_public",
        "bench_statespace_snni_secret",
        "bench_statespace_opacity",
        "sweep_opacity",
    ],
)
def test_script_runs(script, args, expected):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert expected in proc.stdout

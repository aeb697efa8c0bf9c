"""The narrated demos run clean from the repository root."""

import subprocess
import sys

import pytest

from helpers import ROOT, src_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_clean(demo):
    proc = subprocess.run(
        [sys.executable, str(demo.relative_to(ROOT))],
        cwd=ROOT, env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout

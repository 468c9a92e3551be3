"""The shared conftest keeps a session running past a failing hypothesis test."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


@pytest.mark.skipif(importlib.util.find_spec("libcst") is None,
                    reason="only hypothesis' libcst-backed report hook warns on import")
def test_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    shutil.copy(Path(__file__).parent / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          str(tmp_path)], cwd=tmp_path, capture_output=True, text=True,
                         timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout + run.stderr

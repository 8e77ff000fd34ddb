"""Smoke tests: the fast example scripts run and print their story.

Slow examples (full detector comparisons, saturation searches, the
512-node paper-scale run) are exercised by the benchmark suite instead.
"""

import pathlib
import subprocess
import sys

import pytest


EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestFastExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "quickstart" in out
        assert "deadlock" in out
        assert "throughput" in out

    def test_figure_walkthrough(self):
        out = run_example("figure_walkthrough.py")
        assert "Figure 2" in out
        assert "NDM detections: ['B']" in out
        assert "PDM detections: ['B', 'C', 'D', 'E']" in out
        assert "['C', 'D', 'E', 'F']" in out

    def test_deadlock_anatomy(self):
        pytest.importorskip("networkx")  # the example lists wait cycles
        out = run_example("deadlock_anatomy.py")
        assert "waits on" in out
        assert "knot" in out
        assert "Detections: ['B']" in out

    def test_examples_all_have_docstrings_and_main(self):
        for script in EXAMPLES.glob("*.py"):
            text = script.read_text()
            assert text.lstrip().startswith(('"""', "#!")), script.name
            assert '__name__ == "__main__"' in text, script.name

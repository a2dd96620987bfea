"""Every fenced python block in README.md runs against the current API."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from test_acceptance import helm_row, mean_set_accuracy

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(code):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    print(proc.stdout)
    assert proc.returncode == 0, proc.stderr


def test_readme_figures_are_the_benchmark_figures(bench20):
    # the headline sentence and the seed-42 row of the seed table, against
    # the shipped benchmark, rounded as README prints them
    headline = re.search(
        r"HELM reaches mean segment accuracy ([\d.]+) .*?against ([\d.]+) "
        r"for the raw-input one-class ELM and ([\d.]+) for PCA",
        " ".join(README.split()))
    row = re.search(r"^\| 42 \| ([\d.]+) / ([\d.]+) / ([\d.]+) "
                    r"\| ([\d.]+) \| ([\d.]+) \| ([\d.]+) \| ([\d.]+) \|$",
                    README, re.M)
    report, _ = bench20
    means = [f"{mean_set_accuracy(report, m):.1f}"
             for m in ("helm", "elm", "pca-elm")]
    assert list(headline.groups()) == means
    assert list(row.groups()) == [
        *means,
        f"{100 * helm_row(report, 2)['set_accuracy']:.1f}",
        f"{100 * helm_row(report, 4)['set_accuracy']:.1f}",
        f"{helm_row(report, 4)['magnification']:.1f}",
        f"{100 * helm_row(report, 1)['set_fpr']:.1f}"]

"""Every fenced python block in README.md runs against the current API, and
every test README names exists."""
import ast
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
# pytest node ids, tests/<file>.py::[Class::]test_name, and bare test names
NODE_IDS = re.findall(r"`(tests/\w+\.py)::((?:\w+::)?test_\w+)`", README)
BARE_NAMES = re.findall(r"`(test_\w+)`", README)
CLAIMS = re.search(r"^## Determinism and other claims\n(.*?)^## ", README,
                   re.M | re.S).group(1)


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


def defined_tests(path) -> set:
    """The test functions a test file defines, as node id suffixes:
    "test_x" at the top level, "Class::test_x" in a class."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(f"{node.name}::{f.name}" for f in node.body
                         if isinstance(f, ast.FunctionDef))
    return names


def test_readme_names_only_tests_that_exist():
    # a renamed or deleted test fails here instead of leaving a claim that
    # no test holds; resolved on the source, with no collection run
    files = {f"tests/{p.name}": defined_tests(p)
             for p in (ROOT / "tests").glob("test_*.py")}
    assert NODE_IDS and BARE_NAMES
    missing = [f"{f}::{t}" for f, t in NODE_IDS if t not in files.get(f, ())]
    anywhere = {t.rpartition("::")[2] for names in files.values()
                for t in names}
    missing += [t for t in BARE_NAMES if t not in anywhere]
    assert not missing
    # every row of the claims table names the tests that gate it
    rows = [r for r in CLAIMS.splitlines() if r.startswith("| ")
            and not r.startswith(("| claim |", "| --- |"))]
    assert rows
    assert [r for r in rows if "`tests/" not in r.rsplit(" | ", 1)[-1]] == []

"""The `patclass` on PATH, run from a temporary directory without PYTHONPATH
so that the installed package runs, behaves as CliRunner on `cli.main`: the
same exit code, stdout on success (pipeline's timings aside), `Error:` line on
exit 2 and artifact bytes (`summary.json` aside). test_cli and test_graphdata
check what each command writes. With no `patclass` on PATH the module skips.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from patclass.cli import main
from patclass.graphdata import parse_spmf

from oracles import molecule_like_text, write_tudataset

PATCLASS = shutil.which("patclass")
pytestmark = pytest.mark.skipif(
    PATCLASS is None, reason="no installed patclass console script on PATH")

ONE = ["--set", "min_support=6", "--set", "max_edges=4",
       "--set", "measures=Sup,GR,WRACC", "--set", "k_folds=3"]
INVOCATIONS = {
    "properties": ["properties", "--set", "property_n=5"],
    "pairwise-tau": ["pairwise-tau", "--dataset", "{d1}", "--dataset", "{d2}",
                     "--set", "min_support=6", "--set", "max_edges=4",
                     "--set", "threshold_pct=10", "--set", "measures=all"],
    "pipeline-spmf": ["pipeline", "--dataset", "{d1}", *ONE],
    "pipeline-tudataset": ["pipeline", "--dataset", "{MOL}", *ONE],
    "cluster-sweep": ["cluster-sweep", "--dataset", "{d1}", *ONE,
                      "--set", "thresholds=0,20,50,100"],
    "gold-exact": ["gold", "--dataset", "{d1}", *ONE, "--set", "threshold_pct=50"],
    "gold-sampled": ["gold", "--dataset", "{d1}", *ONE, "--set", "exact_limit=2",
                     "--set", "n_permutations=3"],
    "stats": ["stats", "--dataset", "{d1}"],
    "pipeline-two-datasets": ["pipeline", "--dataset", "{d1}", "--dataset", "{d1}",
                              *ONE],
}
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    for seed in (1, 2):
        (root / f"d{seed}.spmf").write_text(molecule_like_text(seed, 60))
    write_tudataset(parse_spmf((root / "d1.spmf").read_text()), root / "MOL", "MOL")
    return {name: str(root / name) for name in ("d1.spmf", "d2.spmf", "MOL")}


def artifacts(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in out.glob("*") if p.name != "summary.json"}


def comparable(name: str, stdout: str):
    if name.startswith("pipeline"):
        return {k: v for k, v in json.loads(stdout).items() if k != "timings"}
    return stdout


@pytest.mark.parametrize("name", list(INVOCATIONS))
def test_installed_command_matches_in_process(name, inputs, tmp_path):
    args = [a.format(d1=inputs["d1.spmf"], d2=inputs["d2.spmf"], MOL=inputs["MOL"])
            for a in INVOCATIONS[name]]
    run = subprocess.run([PATCLASS, *args, "--out", str(tmp_path / "installed")],
                         cwd=tmp_path, env=ENV, capture_output=True, text=True,
                         timeout=600)
    here = CliRunner().invoke(main, [*args, "--out", str(tmp_path / "in-process")])
    assert run.returncode == here.exit_code, (run.stderr, here.output)
    if run.returncode == 0:
        assert comparable(name, run.stdout) == comparable(name, here.stdout)
    elif run.returncode == 2:
        errors = [[line for line in text.splitlines() if line.startswith("Error:")]
                  for text in (run.stderr, here.output)]
        assert errors[0] == errors[1] and errors[0], errors
    assert artifacts(tmp_path / "installed") == artifacts(tmp_path / "in-process")
    if name.startswith("gold") and os.environ.get("GITHUB_STEP_SUMMARY"):
        info = json.loads(run.stdout)
        with open(os.environ["GITHUB_STEP_SUMMARY"], "a") as summary:
            summary.write(f"{name}: {info['evaluations']} evaluations, "
                          f"{info['fits']} stacked fits\n")


def test_installed_package_exports_every_name_in_all(tmp_path):
    run = subprocess.run([sys.executable, "-c", "from patclass import *"],
                         cwd=tmp_path, env=ENV, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr

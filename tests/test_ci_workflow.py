"""The CI workflow against the benchmark it smoke-tests.

.github/workflows/tier1.yml runs perfbench/run.py once per workload and
seed and fails on a wrong or failed output. Every workload BENCHMARK.json
declares, at every seed perfbench/reference.json pins, must be in that
loop, so that a new workload or pinned seed cannot drop out of CI unseen.
"""

import json
import re
import shlex
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def smoke_step():
    """The one workflow step that runs perfbench/run.py."""
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    steps = [step for job in jobs.values() for step in job["steps"]
             if "perfbench/run.py" in step.get("run", "")]
    assert len(steps) == 1, steps
    return steps[0]


def loop_values(script, variable):
    """The words of the script's `for <variable> in ...; do` loop."""
    found = re.findall(rf"\bfor {variable} in ([^;\n]*);", script)
    assert len(found) == 1, (variable, found)
    return shlex.split(found[0])


def test_smoke_step_runs_every_workload_at_every_pinned_seed():
    script = smoke_step()["run"]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads(
        (ROOT / "perfbench" / "reference.json").read_text())
    workloads = {w["name"] for w in benchmark["workloads"]}
    seeds = {str(seed) for seed in reference["seeds"].values()}
    assert workloads and seeds
    assert set(loop_values(script, "w")) >= workloads
    assert set(loop_values(script, "seed")) >= seeds
    assert '--workload "$w" --seed "$seed"' in script


def test_smoke_step_fails_on_a_wrong_or_failed_output():
    script = smoke_step()["run"]
    assert 'r["correct"] is not True' in script
    assert 'r["failed"] != 0' in script

"""The benchmark's tracer still finds every layer it measures.

perfbench/tracer.py intercepts relaysim functions by name and reads the
channel from the second argument of the channel-blind steps. A rename or a
reordered signature would silently zero its per-layer metrics, so these
tests load the tracer from its source (writing nothing next to it) and check
its targets against the package.
"""

import importlib
import inspect
import types
from dataclasses import fields
from pathlib import Path

import pytest

from relaysim import ExperimentConfig, NetworkParams, harness
from relaysim.contention import ContentionOutcome

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    module = types.ModuleType("perfbench_tracer")
    code = compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec")
    exec(code, module.__dict__)
    return module


def resolve(dotted):
    module, *path = dotted.split(".")
    target = importlib.import_module(f"relaysim.{module}")
    for part in path:
        target = getattr(target, part)
    return target


def test_every_traced_target_resolves(tracer):
    for dotted in tracer.TRACED:
        assert callable(resolve(dotted)), dotted


def test_blind_steps_take_the_channel_second(tracer):
    for dotted in ("scheduling.qcsma_step", "scheduling.ub_step"):
        assert dotted in tracer.TRACED
        params = list(inspect.signature(resolve(dotted)).parameters)
        assert params[1] == "channel", dotted


def test_collision_field_kept(tracer):
    assert "collision" in {f.name for f in fields(ContentionOutcome)}


@pytest.mark.parametrize("scheduler", ["mws", "rqcsma", "qcsma", "ub"])
def test_tracer_intercepts_each_step(tracer, scheduler):
    params = NetworkParams(n_relays=2, rho=(0.4, 0.7, 0.5),
                           lam=(0.3, 0.1, 0.1))
    config = ExperimentConfig(params=params, scheduler=scheduler, horizon=50,
                              n_seeds=1)
    with tracer.Tracer() as t:
        harness.run_once(config, 3)  # looked up after the tracer patched it
    totals, _ = t.layer_totals()
    assert totals[f"scheduling.{scheduler}_step"]["calls"] == 50
    assert totals["core.apply_slot"]["calls"] == 50
    assert totals["harness.run_once"]["calls"] == 1
    assert t.counts["harness.run_once.slots"] == 50

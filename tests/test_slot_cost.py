"""tools/slot_cost.py still runs against the package.

The per-slot cost tool calls run_once, lanes.run_lanes and the trace sink
directly, so an API change in src/ would only surface when someone next
regenerates BENCH_scalar.json. These tests load the tool from its source
(writing nothing next to it), shrink its constants and run one small
measurement, and check that bad LABEL=SRC arguments are refused up front.
"""

import sys
import types
from pathlib import Path

import pytest

import relaysim
import relaysim.lanes  # noqa: F401  (measure reaches rs.lanes.run_lanes)

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "slot_cost.py"
KEPT = ("run_once_us_per_slot", "run_lanes_ns_per_lane_slot", "trace")
DROPPED = ("startup", "boundary_oracle")
# The schedulers lanes._on_engine runs at N = 1 in contention mode.
ON_LANES = {"mws", "rqcsma"}


@pytest.fixture
def slot_cost(monkeypatch):
    module = types.ModuleType("slot_cost")
    module.__file__ = str(TOOL_PATH)
    code = compile(TOOL_PATH.read_text(), str(TOOL_PATH), "exec")
    exec(code, module.__dict__)
    for name, value in (("REPEATS", 3), ("CAL_LOOPS", 1),
                        ("SCALAR_HORIZON", 300), ("LANE_HORIZON", 300),
                        ("TRACE_HORIZON", 300), ("RELAYS", (1,)),
                        ("LANE_COUNTS", (3,))):
        monkeypatch.setattr(module, name, value)
    return module


def assert_cell(cell):
    assert set(cell) == {"median", "quartiles"}
    q1, q3 = cell["quartiles"]
    assert 0 < q1 <= cell["median"] <= q3


def test_measure_holds_every_kept_table(slot_cost):
    tables, speeds = slot_cost.measure({"x": relaysim})
    table = tables["x"]
    assert set(table) == {name + twin for name in KEPT
                          for twin in ("", "_at_nominal_speed")}
    assert not set(table) & {name + twin for name in DROPPED
                             for twin in ("", "_at_nominal_speed")}
    for twin in ("", "_at_nominal_speed"):
        per_slot = table["run_once_us_per_slot" + twin]
        assert set(per_slot) == set(relaysim.scheduling.SCHEDULER_KINDS)
        for row in per_slot.values():
            assert set(row) == {"1"}
            assert_cell(row["1"])
        per_lane_slot = table["run_lanes_ns_per_lane_slot" + twin]
        assert set(per_lane_slot) == ON_LANES
        for row in per_lane_slot.values():
            assert set(row) == {"3"}
            assert_cell(row["3"])
        trace = table["trace" + twin]
        assert set(trace) == {"run_once_us_per_slot"}
        row = trace["run_once_us_per_slot"]
        assert set(row) == {"untraced", "traced", "traced_over_untraced"}
        assert_cell(row["untraced"])
        assert_cell(row["traced"])
        assert row["traced_over_untraced"] > 0
    assert len(speeds) == slot_cost.REPEATS * (
        len(relaysim.scheduling.SCHEDULER_KINDS) + len(ON_LANES) + 2)
    assert all(speed > 0 for speed in speeds)


def test_no_lane_row_for_a_scheduler_one_package_runs_off_lanes(
        slot_cost, monkeypatch):
    # a second copy of the package whose lane engine sends mws to run_once:
    # mws lanes are no longer timed for either package
    name = "relaysim_mws_off_lanes"
    copy = slot_cost.load(name, Path(relaysim.__file__).parents[1])
    try:
        on_engine = copy.lanes._on_engine
        monkeypatch.setattr(copy.lanes, "_on_engine", lambda config: (
            config.scheduler != "mws" and on_engine(config)))
        tables, _ = slot_cost.measure({"x": relaysim, "y": copy})
    finally:
        for module in [m for m in sys.modules
                       if m.partition(".")[0] == name]:
            del sys.modules[module]
    assert relaysim.lanes._on_engine(slot_cost.lane_config(relaysim, "mws"))
    for table in tables.values():
        for twin in ("", "_at_nominal_speed"):
            assert set(table["run_lanes_ns_per_lane_slot" + twin]) == (
                ON_LANES - {"mws"})
            assert "mws" in table["run_once_us_per_slot" + twin]


@pytest.mark.parametrize("argument", ["foo", "a=/nonexistent"])
def test_bad_source_exits_2_before_measuring(slot_cost, monkeypatch, capsys,
                                             tmp_path, argument):
    def fail(*_):
        raise AssertionError("measured a bad argument")
    monkeypatch.setattr(slot_cost, "measure", fail)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        slot_cost.main([argument, "--out", str(out)])
    assert exc.value.code == 2
    assert repr(argument) in capsys.readouterr().err
    assert not out.exists()

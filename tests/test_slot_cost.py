"""tools/slot_cost.py still runs against the package.

The per-slot cost tool calls run_once, lanes.run_lanes and the trace sink
directly, so an API change in src/ would only surface when someone next
regenerates BENCH_scalar.json. These tests load the tool from its source
(writing nothing next to it), shrink its constants and run one small
measurement, check that the packages alternate which runs first and that a
ratio to the first package is taken turn by turn, and check that bad
LABEL=SRC arguments are refused up front.
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


def assert_cell(cell, ratio=False):
    """A spread cell; with `ratio`, one holding a spread "ratio_to_first"."""
    assert set(cell) == {"median", "quartiles"} | (
        {"ratio_to_first"} if ratio else set())
    q1, q3 = cell["quartiles"]
    assert 0 < q1 <= cell["median"] <= q3
    if ratio:
        assert_cell(cell["ratio_to_first"])


def cells(table):
    """Every spread cell of a package's table, at any depth."""
    for value in table.values():
        if isinstance(value, dict) and "median" in value:
            yield value
        elif isinstance(value, dict):
            yield from cells(value)


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
    # only the package after the first holds ratios to the first
    for label, ratio in (("x", False), ("y", True)):
        found = list(cells(tables[label]))
        assert found
        for cell in found:
            assert_cell(cell, ratio)


def test_packages_alternate_which_runs_first(slot_cost, monkeypatch):
    # Each call adds its next turn's seconds to the clock: the second
    # package's turns take twice the first's.
    ran = []
    clock = [0.0]
    monkeypatch.setattr(slot_cost, "host_speed", lambda: 1.0)
    monkeypatch.setattr(slot_cost.time, "process_time", lambda: clock[0])

    def call(label, turns):
        turns = iter(turns)

        def run():
            ran.append(label)
            clock[0] += next(turns)
        return run
    seconds = slot_cost.take_turns(
        [call("a", [1.0, 2.0, 3.0]), call("b", [2.0, 4.0, 6.0])], [])
    assert ran == ["a", "b", "b", "a", "a", "b"]
    # each package's seconds stay in turn order, raw and at nominal speed
    assert seconds == [([1.0, 2.0, 3.0],) * 2, ([2.0, 4.0, 6.0],) * 2]


def test_ratio_to_first_is_taken_turn_by_turn(slot_cost, monkeypatch):
    # Per turn the second package takes 3.0, 1.1 and 1.1 times the first's
    # time; the ratio of the two medians would read 1.5.
    turns = ([1.0, 2.0, 3.0], [3.0, 2.2, 3.3])
    monkeypatch.setattr(slot_cost, "take_turns", lambda calls, speeds: [
        (turns[k],) * 2 for k in range(len(calls))])
    tables, _ = slot_cost.measure({"x": relaysim, "y": relaysim})
    found = list(cells(tables["y"]))
    assert found
    for cell in found:
        assert cell["ratio_to_first"] == {"median": 1.1,
                                          "quartiles": [1.1, 3.0]}
    assert not any("ratio_to_first" in cell for cell in cells(tables["x"]))


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

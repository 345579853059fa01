"""Regenerate reference.json: one untraced pass of every workload at the
pinned seeds, recorded unit by unit.

    python3 perfbench/pin.py

Run it only on a commit whose outputs are known good; the benchmark then
counts any difference from these units at the pinned seeds as a mismatch.
"""

import json
import os

import workloads
from run import REFERENCE, normalized, pool_workers

DEFAULT_SEED = 1
HELD_OUT_SEED = 2


def main():
    units = {}
    for name in workloads.WORKLOADS:
        units[name] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            wl = workloads.make(name, seed, workers=pool_workers())
            units[name][str(seed)] = [
                u for _, u in normalized(wl.units(wl.run_pass()))]
            print(f"pinned {name} seed {seed}: {len(units[name][str(seed)])} "
                  f"units", flush=True)
    doc = {"seeds": {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED},
           "units": units}
    tmp = REFERENCE.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(doc, indent=1) + "\n")
    tmp.replace(REFERENCE)


if __name__ == "__main__":
    main()

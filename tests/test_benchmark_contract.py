"""The benchmark's reference items pass their checks against the library.

perfbench/workloads.py checks each item through values that tracing.Tap
keeps from library functions it reads by module attribute (for example
experiments.solve_equilibrium and randnet.sync_margin).  A refactor that
routes those calls elsewhere leaves the taps empty and the benchmark
reports its outputs as incorrect; this test fails first.  It also holds
each reference item's summary to perfbench/reference.json within the
benchmark's own tolerances (k_min within 1e-3 relative).
"""

import json
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(PERFBENCH, "reference.json"), encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)

CASES = [(name, index) for name in ("montecarlo", "rts96", "large_grid", "kcritical")
         for index in workloads.WORKLOADS[name].reference_items]


@pytest.mark.parametrize("name, index", CASES, ids=[f"{n}-{i}" for n, i in CASES])
def test_reference_item_passes_its_checks(name, index):
    wl = workloads.WORKLOADS[name]
    state = wl.prepare()
    inp = wl.make_input(state, workloads.REFERENCE_SEED, index)
    with tracing.Tap(wl.taps) as tap:
        out = wl.run(state, inp)
        captured = tap.take()
    problems = wl.check(state, inp, out, captured) + workloads.compare_reference(
        wl.summary(inp, out, captured), REFERENCE[name][str(index)])
    assert problems == []

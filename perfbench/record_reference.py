"""Write perfbench/reference.json: the checked outputs of every workload's
reference items (items of workloads.REFERENCE_SEED) at the current commit.

    python3 perfbench/record_reference.py

Run it only when a change is meant to alter these outputs, and say so.
"""

from __future__ import annotations

import json
import os
import sys

import run   # pins the BLAS pool before numpy loads

sys.path.insert(0, run.SRC)

import tracing     # noqa: E402
import workloads   # noqa: E402


def main() -> int:
    reference = {}
    for wl in workloads.WORKLOADS.values():
        state = wl.prepare()
        reference[wl.name] = {}
        with tracing.Tap(wl.taps) as tap:
            for index in wl.reference_items:
                inp = wl.make_input(state, workloads.REFERENCE_SEED, index)
                out = wl.run(state, inp)
                captured = tap.take()
                problems = wl.check(state, inp, out, captured)
                if problems:
                    print(f"{wl.name} item {index}: {problems}", file=sys.stderr)
                    return 1
                reference[wl.name][str(index)] = wl.summary(inp, out, captured)
                print(wl.name, index, reference[wl.name][str(index)])
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Print each layer's share of the traced item time from traced-run span files.

    python3 perfbench/shares.py perfbench/results/trace-*.json

A layer's share is the self time of its spans over the summed item time;
"other" is the item time no span covers (benchmark glue and untraced
helpers called directly by an item).  montecarlo items are also split by
cell, so erg and smn items can be compared.
"""

from __future__ import annotations

import json
import sys

import numpy as np

import run

sys.path.insert(0, run.SRC)

from tracing import LAYERS, span_times  # noqa: E402
from workloads import MC_CELLS          # noqa: E402


def layer_shares(doc: dict, items: set[int] | None = None) -> dict[str, float]:
    spans = np.array(doc["spans"], dtype=np.int64).reshape(-1, 6)
    _, self_ns = span_times(spans)
    keep = np.ones(len(spans), bool) if items is None else np.isin(spans[:, 4], sorted(items))
    total = sum(t for i, t in enumerate(doc["item_s"]) if items is None or i in items) * 1e9
    shares = {}
    for layer in LAYERS:
        fids = [k for k, f in enumerate(doc["functions"]) if f.startswith(layer + ".")]
        shares[layer] = float(self_ns[keep & np.isin(spans[:, 0], fids)].sum() / total)
    shares["other"] = 1.0 - sum(shares.values())
    return shares


def main(paths: list[str]) -> int:
    print("| workload (seed) | items | " + " | ".join(LAYERS) + " | other |")
    print("|---" * (len(LAYERS) + 3) + "|")
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        rows = [(doc["workload"], None)]
        if doc["workload"] == "montecarlo":
            rows += [(f"montecarlo {n}-{model}", {i for i in range(doc["items"])
                                                  if i % len(MC_CELLS) == c})
                     for c, (n, model, _, _) in enumerate(MC_CELLS)]
        for label, items in rows:
            shares = layer_shares(doc, items)
            count = doc["items"] if items is None else len(items)
            print(f"| {label} ({doc['seed']}) | {count} | "
                  + " | ".join(f"{shares[k]:.3f}" for k in (*LAYERS, "other")) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Benchmark of syncgrid's studies, end to end (untraced) or per layer (traced).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload montecarlo --seed 1 --seconds 40 --trace 0

One process, one closed-loop client.  Set-up (import, case load, input
generation, one reference item as warm-up) is repeated SETUP_ROUNDS times
after the import and its median is reported.  The timed loop then runs items
of the seeded sequence until --seconds of wall time have passed; each
item's output is checked outside its timing.  The last stdout line is a
JSON object {correct, attempted, failed, metrics}.  With --trace 1 every
item runs once under the span tracer and once untraced, for the overhead
ratio, and the spans go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time

# Pin the BLAS pool before numpy loads: steadier on a shared 2-core host, and
# single-thread dense solves measured within about 15% of the 2-thread pool.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_ROUNDS = 3
P90_TAIL = 10          # items needed beyond p90 before it is reported

END_TO_END = {"setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s/item"
    if name.endswith((".calls", ".steps", "newton_iterations")):
        return "count/item"
    if name.endswith("_us"):
        return "us"
    return "ratio"


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS bundled with numpy, if found."""
    import ctypes
    import glob

    import numpy

    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                      "numpy.libs", "*openblas*")):
        try:
            return int(ctypes.CDLL(lib).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            continue
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads_pinned": BLAS_THREADS, "blas_threads_reported": blas_threads(),
    }


def cell_weighted(times: list[float], cells: int) -> tuple[float, list[tuple[float, float]]]:
    """Mean item time and (time, weight) pairs, each cell of the round-robin weighted
    equally, so that where --seconds cuts a round does not change the mix."""
    groups = [times[c::cells] for c in range(cells) if times[c::cells]]
    mean = sum(statistics.fmean(g) for g in groups) / len(groups)
    return mean, sorted((t, 1.0 / len(g)) for g in groups for t in g)


def weighted_quantile(pairs: list[tuple[float, float]], q: float) -> float:
    total = sum(w for _, w in pairs)
    acc = 0.0
    for t, w in pairs:
        acc += w
        if acc >= q * total:
            return t
    return pairs[-1][0]


def checked(wl, state, inp, out, captured, reference=None) -> list[str]:
    """Problems with one item's output; an exception is one problem, not a crash."""
    from workloads import compare_reference

    if isinstance(out, Exception):
        return [f"raised {type(out).__name__}: {out}"]
    try:
        found = wl.check(state, inp, out, captured)
        if reference is not None:
            found += compare_reference(wl.summary(inp, out, captured), reference)
        return found
    except Exception as exc:   # a malformed output fails its item, not the run
        return [f"check raised {type(exc).__name__}: {exc}"]


def timed(wl, state, inp):
    """Output (or the exception raised) and seconds of one item."""
    start = time.perf_counter()
    try:
        out = wl.run(state, inp)
    except Exception as exc:   # a failed item is counted, not fatal
        out = exc
    return out, time.perf_counter() - start


class Loop:
    """Closed-loop run of consecutive items from the seeded sequence."""

    def __init__(self, wl, state, pool, seed):
        self.wl, self.state, self.pool, self.seed = wl, state, pool, seed
        self.times: list[float] = []
        self.raised = 0
        self.failed_items: set[int] = set()
        self.problems: list[str] = []

    def item(self, i: int, tap) -> None:
        inp = self.pool[i] if i < len(self.pool) else self.wl.make_input(self.state, self.seed, i)
        out, seconds = timed(self.wl, self.state, inp)
        self.times.append(seconds)
        self.raised += isinstance(out, Exception)
        found = checked(self.wl, self.state, inp, out, tap.take())
        if found:
            self.failed_items.add(i)
            self.problems += [f"item {i}: {p}" for p in found]

    @property
    def failed(self) -> int:
        return len(self.failed_items)


def set_up(wl, seed, reference):
    """SETUP_ROUNDS rounds of prepare + input pool + one checked reference item."""
    from tracing import Tap
    from workloads import REFERENCE_SEED

    times, problems = [], []
    with Tap(wl.taps) as tap:
        for index in wl.reference_items[:SETUP_ROUNDS]:
            start = time.perf_counter()
            state = wl.prepare()
            pool = [wl.make_input(state, seed, i) for i in range(wl.pool)]
            inp = wl.make_input(state, REFERENCE_SEED, index)
            out, _ = timed(wl, state, inp)
            times.append(time.perf_counter() - start)
            found = checked(wl, state, inp, out, tap.take(), reference[str(index)])
            problems += [f"reference item {index}: {p}" for p in found]
    return times, problems, state, pool


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("montecarlo", "kcritical", "rts96", "large_grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "syncgrid", "__init__.py")):
        print(f"error: no syncgrid sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    start = time.perf_counter()
    import syncgrid
    import tracing
    import workloads
    import_s = time.perf_counter() - start
    if os.path.dirname(os.path.abspath(syncgrid.__file__)) != os.path.join(SRC, "syncgrid"):
        print(f"error: syncgrid imported from {syncgrid.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)[wl.name]
    setup_times, problems, state, pool = set_up(wl, args.seed, reference)
    env = environment()

    loop = Loop(wl, state, pool, args.seed)
    end = time.perf_counter() + args.seconds
    if args.trace:
        # Each item runs traced and untraced back to back, in alternating order,
        # so that drift in machine speed cancels out of the overhead ratio.
        tracer, plain = tracing.Tracer(), Loop(wl, state, pool, args.seed)
        i = 0
        while time.perf_counter() < end:
            tracer.begin_item(i)
            for traced in (i % 2 == 0, i % 2 == 1):
                with contextlib.ExitStack() as stack:
                    if traced:   # patch before the tap, so the tap wraps traced functions
                        stack.enter_context(tracer)
                    tap = stack.enter_context(tracing.Tap(wl.taps))
                    (loop if traced else plain).item(i, tap)
            i += 1
        metrics = tracer.metrics(len(loop.times), sum(loop.times), sum(plain.times))
        values = {k: (v, per_layer_unit(k)) for k, v in metrics.items()}
        os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
        path = os.path.join(HERE, "results", f"trace-{wl.name}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": wl.name, "seed": args.seed, "environment": env,
                       "items": len(loop.times), "item_s": loop.times,
                       "metrics": metrics, **tracer.dump()}, fh)
        problems += loop.problems + plain.problems
        attempted, failed = len(loop.times) + len(plain.times), loop.failed + plain.failed
        report = [f"spans written to {os.path.relpath(path)}"]
    else:
        with tracing.Tap(wl.taps) as tap:
            i = 0
            while time.perf_counter() < end:
                loop.item(i, tap)
                i += 1
        problems += loop.problems
        attempted, failed = len(loop.times), loop.failed
        mean_s, weighted = cell_weighted(loop.times, wl.cells)
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "items_per_s": (1.0 - loop.raised / attempted) / mean_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        values = {k: (v, END_TO_END[k]) for k, v in values.items()}
        # Reported, not gated: unsteady across seeds on the heterogeneous workloads.
        p90 = weighted_quantile(weighted, 0.9)
        beyond = sum(t > p90 for t, _ in weighted)
        report = [
            f"import_s {import_s:.4f} s; set-up rounds "
            + ", ".join(f"{t:.4f}" for t in setup_times) + " s",
            f"item_ms_p50 {1000.0 * weighted_quantile(weighted, 0.5):.6g} ms",
            f"item_ms_p90 {1000.0 * p90:.6g} ms ({beyond} items beyond)" if beyond >= P90_TAIL
            else f"item_ms_p90 not reported: {beyond} items beyond p90, {P90_TAIL} needed",
            f"error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} items)",
        ]

    print(f"workload {wl.name} seed {args.seed} trace {args.trace} items {attempted} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for p in problems[:20]:
        print(f"problem: {p}")
    for name, (value, unit) in values.items():
        print(f"{name} {value:.6g} {unit}")
    for line in report:
        print(line)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

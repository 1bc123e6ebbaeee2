"""Benchmark entry point.

    python3 bench/run.py --workload det-sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: the program is imported from `src/`
there, and nothing else is needed.  The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`; the same
object is saved under `bench/results/`.

With `--trace 0` the metrics are the end-to-end ones: `wall_s` (the timed
ops), `op_p50_ms`, `setup_s` (median of eleven set-ups, each from before
`import diffres` until every input of the run is built, spread between
chunks of the ops) and `peak_rss_mb`.  With `--trace 1` the
ops run once plainly and once more with every traced function wrapped; the
metrics are the per-layer ones, and the spans are written next to the
result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
PACKAGE = "diffres"
SETUP_REPEATS = 11

from refcheck import CheckFailed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class OpError:
    """An op that raised instead of returning."""

    def __init__(self, exc: BaseException):
        self.exc = exc


def load_package() -> SimpleNamespace:
    """Import the program afresh, dropping any copy already imported."""
    for name in package_modules():
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(SRC, PACKAGE):
        raise RuntimeError(f"imported {package.__file__}, not the checkout's copy")
    subs = ("determinant", "matrices", "sparse", "cli")
    return SimpleNamespace(**{s: importlib.import_module(f"{PACKAGE}.{s}")
                              for s in subs})


def package_modules() -> dict:
    return {n: m for n, m in sys.modules.items()
            if n == PACKAGE or n.startswith(PACKAGE + ".")}


def set_up(cls, seed: int, seconds: float):
    gc.collect()
    start = time.perf_counter()
    workload = cls(load_package(), seed, seconds)
    ops = workload.setup()
    return time.perf_counter() - start, workload, ops


def timed_set_up(cls, seed: int, seconds: float) -> float:
    """One more whole set-up, timed and dropped.

    The ops already running keep their own copy of the package: its modules
    go back into `sys.modules`, so imports made inside the program's
    functions still resolve to the copy the ops were built from.
    """
    running = package_modules()
    elapsed, _, _ = set_up(cls, seed, seconds)
    for name in package_modules():
        del sys.modules[name]
    sys.modules.update(running)
    return elapsed


def run_ops(workload, ops):
    """The timed region: every op once, outputs kept for checking later."""
    gc.collect()
    outputs, latencies = [], []
    clock = time.perf_counter
    start = clock()
    for op in ops:
        t0 = clock()
        try:
            out = workload.run(op)
        except Exception as exc:  # a raising op is a failed op, not a crash
            out = OpError(exc)
        latencies.append(clock() - t0)
        outputs.append(out)
    return outputs, latencies, clock() - start


def check_all(workload, ops, outputs):
    """(failed, wrong): wrong outputs are failed ops that also void `correct`."""
    failed = wrong = 0
    for op, out in zip(ops, outputs):
        if isinstance(out, OpError):
            failed += 1
            print(f"op {op.kind} {op.spec} raised {out.exc!r}", file=sys.stderr)
            continue
        try:
            workload.check(op, out)
        except (CheckFailed, AttributeError, IndexError, KeyError, TypeError,
                ValueError) as exc:
            failed += 1
            wrong += 1
            print(f"op {op.kind} {op.spec} gave a wrong output: {exc}",
                  file=sys.stderr)
    return failed, wrong


def measure(cls, seed: int, seconds: float) -> dict:
    """Ops in SETUP_REPEATS - 1 chunks, with a timed set-up after each.

    The host's speed drifts over seconds, so set-ups made back to back at
    the start would time one moment of the run; spread between the chunks,
    their median samples the same stretch of time as the ops.
    """
    elapsed, workload, ops = set_up(cls, seed, seconds)
    setups = [elapsed]
    outputs, latencies, wall = [], [], 0.0
    chunks = SETUP_REPEATS - 1
    for k in range(chunks):
        part = ops[k * len(ops) // chunks:(k + 1) * len(ops) // chunks]
        part_outputs, part_latencies, part_wall = run_ops(workload, part)
        outputs += part_outputs
        latencies += part_latencies
        wall += part_wall
        setups.append(timed_set_up(cls, seed, seconds))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    failed, wrong = check_all(workload, ops, outputs)
    metrics = {"wall_s": (wall, "s"),
               "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
               "setup_s": (statistics.median(setups), "s"),
               "peak_rss_mb": (peak_mb, "MB")}
    return result(len(ops), failed, wrong, metrics)


def measure_traced(cls, seed: int, seconds: float, stem: str) -> dict:
    _, workload, ops = set_up(cls, seed, seconds)
    _, _, plain_wall = run_ops(workload, ops)
    del workload, ops
    gc.collect()
    package = load_package()
    tracer = Tracer()
    tracer.install(PACKAGE)
    workload = cls(package, seed, seconds)
    ops = workload.setup()
    outputs, _, traced_wall = run_ops(workload, ops)
    failed, wrong = check_all(workload, ops, outputs)
    tracer.write(stem)
    return result(len(ops), failed, wrong, tracer.layer_metrics(traced_wall - plain_wall))


def result(attempted: int, failed: int, wrong: int, metrics: dict) -> dict:
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        print(f"error: no {PACKAGE} sources under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    cls = WORKLOADS[args.workload]
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        out = measure_traced(cls, args.seed, args.seconds, stem + "-spans")
    else:
        out = measure(cls, args.seed, args.seconds)
    os.makedirs(RESULTS, exist_ok=True)
    with open(stem + ".json", "w") as fh:
        json.dump(out, fh, indent=1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

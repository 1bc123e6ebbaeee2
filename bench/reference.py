"""Reference figures, timed once with the benchmark's clock (not a workload).

    python3 bench/reference.py

Times `det_specialized` at (4,4) and (5,5), `grc_partition(2,2)`, the CLI
command `diffres check --suite all` and the tier-1 test run, and writes them
to `bench/results/reference.json`.  Takes about four minutes.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time

from run import RESULTS, ROOT, SRC


def timed(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def timed_command(argv) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    seconds, proc = timed(lambda: subprocess.run(argv, cwd=ROOT, env=env,
                                                 capture_output=True, text=True))
    tail = proc.stdout.strip().splitlines()[-1:] or [""]
    return {"seconds": seconds, "exit": proc.returncode, "last_line": tail[0]}


def main() -> int:
    sys.path.insert(0, SRC)
    from diffres import determinant, matrices, sparse

    figures = {"python": platform.python_version(), "cpus": os.cpu_count()}
    for d in ((4, 4), (5, 5)):
        m = matrices.build_square_matrix(d)
        s = determinant.random_specialization(d, 1)
        seconds, value = timed(lambda: determinant.det_specialized(m, s))
        figures[f"det_specialized{d}"] = {"seconds": seconds, "N": m.nrows,
                                          "nonzero": value != 0}
    seconds, result = timed(lambda: sparse.grc_partition((2, 2)))
    figures["grc_partition(2,2)"] = {"seconds": seconds,
                                     "sizes": list(result.partition.sizes())}
    figures["check --suite all"] = timed_command(
        [sys.executable, "-m", "diffres.cli", "check", "--suite", "all"])
    figures["tier-1"] = timed_command(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"])
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "reference.json"), "w") as fh:
        json.dump(figures, fh, indent=1)
    print(json.dumps(figures))
    return 0


if __name__ == "__main__":
    sys.exit(main())

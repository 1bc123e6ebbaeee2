"""The benchmark's hold on the package: its workloads and its tracer read
names from the package's modules, and the benchmark's files do not change
with the program, so a refactor that moves one of those names must fail
here first.

Each workload is built from a fresh import of the package, as the benchmark
makes it, and the package's original modules are put back afterwards."""

import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.append(str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def package():
    """The package as `run.load_package` imports it; the modules imported
    before go back into `sys.modules` afterwards."""
    running = run.package_modules()
    try:
        yield run.load_package()
    finally:
        for name in run.package_modules():
            del sys.modules[name]
        sys.modules.update(running)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_runs_and_checks_its_first_ops(name, package):
    workload = workloads.WORKLOADS[name](package, seed=1, seconds=1)
    ops = workload.setup()[:2]
    outputs, _, _ = run.run_ops(workload, ops)
    assert run.check_all(workload, ops, outputs) == (0, 0)


def test_the_tracer_installs_after_the_benchmarks_imports():
    code = ("import sys\n"
            f"sys.path[:0] = [{str(BENCH)!r}, {run.SRC!r}]\n"
            "import run\n"
            "from tracing import Tracer\n"
            "run.load_package()\n"
            "tracer = Tracer()\n"
            "tracer.install(run.PACKAGE)\n"
            "print('sparse.grc_partition' in tracer.names)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"]

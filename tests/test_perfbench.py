"""One operation of each benchmark workload, so a change to an entry point the benchmark calls fails here.

``perfbench/workloads.py`` is imported as it is, without writing bytecode
next to it, and each workload sets up its inputs in a temporary directory.
"""
import importlib.util
import sys

import pytest

WORKLOAD_NAMES = ("theorems", "exp3_families", "fuse_stream", "calibrate")


@pytest.fixture(scope="module")
def workloads(repo_root):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", repo_root / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write_bytecode
    return module.WORKLOADS


def test_every_workload_is_covered(workloads):
    assert set(workloads) == set(WORKLOAD_NAMES)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_one_op_passes_its_check(workloads, repo_root, tmp_path, name):
    workload = workloads[name](repo_root, 1)
    workload.setup(tmp_path)
    items, output = workload.run_op(0)
    assert items > 0
    assert workload.check_op(0, output) == []

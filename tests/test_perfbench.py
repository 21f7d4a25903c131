"""One operation of each benchmark workload, so a change to an entry point the benchmark calls fails here.

``perfbench/workloads.py`` and ``perfbench/tracer.py`` are imported as they
are, without writing bytecode next to them, and each workload sets up its
inputs in a temporary directory. Each workload runs one op untraced and one
traced, as ``perfbench/run.py --trace 1`` runs them.
"""
import importlib.util
import sys

import pytest

WORKLOAD_NAMES = ("theorems", "exp3_families", "fuse_stream", "calibrate")


def _load(repo_root, name):
    """``perfbench/<name>.py`` as a module, without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", repo_root / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write_bytecode
    return module


@pytest.fixture(scope="module")
def workloads(repo_root):
    return _load(repo_root, "workloads").WORKLOADS


@pytest.fixture(scope="module")
def tracer(repo_root):
    return _load(repo_root, "tracer")


def test_every_workload_is_covered(workloads):
    assert set(workloads) == set(WORKLOAD_NAMES)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_one_op_passes_its_check(workloads, repo_root, tmp_path, name):
    workload = workloads[name](repo_root, 1)
    workload.setup(tmp_path)
    items, output = workload.run_op(0)
    assert items > 0
    assert workload.check_op(0, output) == []


def _is_wrapped(traced_name):
    """Whether the function a traced ``module.function`` name binds in its attrfuse module is a tracer wrapper."""
    module, function = traced_name.split(".")
    return hasattr(getattr(sys.modules[f"attrfuse.{module}"], function, None), "__wrapped__")


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_one_traced_op_passes_its_check(workloads, tracer, repo_root, tmp_path, name):
    """Every traced name is wrapped or reported absent, and a traced op still passes its check."""
    workload = workloads[name](repo_root, 1)
    workload.setup(tmp_path)
    traced = tracer.Tracer()
    traced.install()
    try:
        wrapped = set(filter(_is_wrapped, tracer.TRACED_NAMES))
        traced.active = True
        items, output = workload.run_op(0)
    finally:
        traced.active = False
        traced.uninstall()
    assert wrapped | set(traced.absent) == set(tracer.TRACED_NAMES)
    assert sum(traced.calls.values()) > 0
    assert items > 0
    assert workload.check_op(0, output) == []

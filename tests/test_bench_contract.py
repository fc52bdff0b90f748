"""The traced benchmark binds library functions and methods by name
(`benchmarks/tracing.py`) and raises on a missing one.  Installing and
restoring its tracer here makes a rename that would break the traced run
fail the test suite instead."""

import importlib.util
from pathlib import Path

import polychar.cli  # noqa: F401  (imports every module the tracer rebinds)
from polychar import demazure, polysum, rootsys, weyl

_TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("polychar_bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_name():
    tracing = _load_tracing()
    originals = (
        demazure.apply_D_simple, polysum.polytope_sum_demazure,
        polysum.apply_d_root, weyl.weyl_group, vars(rootsys.RootSystem)["coroot_labels"],
    )
    undo = tracing.install(tracing.Tracer())
    try:
        assert undo
        assert demazure.apply_D_simple is not originals[0]
        assert polysum.polytope_sum_demazure is not originals[1]
        assert polysum.apply_d_root is not originals[2]
    finally:
        tracing.restore(undo)
    assert (
        demazure.apply_D_simple, polysum.polytope_sum_demazure,
        polysum.apply_d_root, weyl.weyl_group, vars(rootsys.RootSystem)["coroot_labels"],
    ) == originals
    assert hasattr(weyl.weyl_group, "cache_clear")

"""The names the benchmark in ``perfbench/`` binds to must keep resolving.

``perfbench/tracing.py`` patches its targets by name and
``perfbench/workloads.py`` imports the drivers it runs, so a change that
renames or deletes one of them breaks the benchmark.  These tests read
``perfbench/`` and fail at tier 1 instead of only under ``--trace 1``.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402


@pytest.mark.parametrize(
    "module, cls, attr",
    [(module, cls, attr) for _, module, cls, attr, _ in tracing.TARGETS],
    ids=[f"{module}.{cls + '.' if cls else ''}{attr}" for _, module, cls, attr, _ in tracing.TARGETS],
)
def test_traced_target_resolves(module, cls, attr):
    mod = importlib.import_module(module)
    if cls is not None:
        # methods are patched through the class __dict__, not inherited lookups
        assert callable(getattr(mod, cls).__dict__.get(attr))
    else:
        assert callable(getattr(mod, attr, None))


def test_workloads_import():
    importlib.import_module("workloads")

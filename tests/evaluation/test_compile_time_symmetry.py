"""Figure 6 symmetry: the downstream backend model runs once per timed
repeat on each flow, and never inside a bare compile."""

import sys

from repro.evaluation.compile_time import measure_one
from repro.machine import backend_passes
from repro.pipeline import llvm_compile, pitchfork_compile
from repro.targets import ARM, HVX
from repro.workloads import by_name


def _count_backend_runs(monkeypatch):
    """Replace ``run_backend_passes`` in every module that holds it with a
    recording wrapper; returns the list of programs it was called on."""
    original = backend_passes.run_backend_passes
    calls = []

    def counting(program, rounds=backend_passes.BACKEND_PASS_ROUNDS):
        calls.append(program)
        return original(program, rounds)

    for module in list(sys.modules.values()):
        if getattr(module, "run_backend_passes", None) is original:
            monkeypatch.setattr(module, "run_backend_passes", counting)
    return calls


def test_measure_one_runs_the_model_once_per_repeat_per_flow(monkeypatch):
    wl = by_name("sobel3x3")
    pf = pitchfork_compile(wl.expr, ARM, var_bounds=wl.var_bounds).lowered
    llvm = llvm_compile(wl.expr, ARM, var_bounds=wl.var_bounds).lowered
    assert pf is not llvm
    calls = _count_backend_runs(monkeypatch)
    measure_one(wl, ARM, repeats=2)
    assert len(calls) == 4
    assert sum(p is pf for p in calls) == 2
    assert sum(p is llvm for p in calls) == 2


def test_q31_fallback_flow_runs_the_model_once_per_repeat(monkeypatch):
    # mul on HVX needs the §5.1 substitution: the plain attempt raises
    # before selection finishes and must not add a backend run.
    calls = _count_backend_runs(monkeypatch)
    measure_one(by_name("mul"), HVX, repeats=2)
    assert len(calls) == 4


def test_bare_compiles_never_run_the_model(monkeypatch):
    calls = _count_backend_runs(monkeypatch)
    for name in ("sobel3x3", "softmax"):
        wl = by_name(name)
        pitchfork_compile(wl.expr, ARM, var_bounds=wl.var_bounds)
        pitchfork_compile(
            wl.expr, ARM, var_bounds=wl.var_bounds, lift_strategy="egraph"
        )
        llvm_compile(wl.expr, ARM, var_bounds=wl.var_bounds)
    assert calls == []

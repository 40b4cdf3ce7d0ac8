"""The benchmark's tracer (bench/tracer.py) looks up module-level names of
the package, including ``dynamics.solve_ivp`` and ``protocols.solve_ivp``,
and wraps them for a traced pass. Those two resolve on lookup and are
never called. These tests keep every name it looks up in place, and check
that a traced run puts every original back."""

import importlib.util
from pathlib import Path

from hostguest import scenarios

ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = ROOT / "scenarios"

_spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_snapshot_resolves_every_target():
    snap = tracer.snapshot()
    assert all(callable(fn) for _, _, fn in snap)
    looked_up = {(owner.__name__, attr) for owner, attr, _ in snap}
    for layer, attr in tracer.SOLVERS:
        assert (f"hostguest.{layer}", attr) in looked_up


def test_install_and_restore_around_a_shipped_lindblad_run(tmp_path):
    snap = tracer.snapshot()
    traced = tracer.Tracer()
    traced.install()
    try:
        config = scenarios.load_config(SCENARIO_DIR / "lindblad.json")
        scenarios.run_scenario(config, SCENARIO_DIR, output_dir=tmp_path / "out")
    finally:
        traced.restore()
    assert tracer.unchanged(snap)
    totals = traced.layer_totals()
    assert totals["dynamics.evolve.calls"] == 1
    # Lindblad propagation is exact stepping; it never reaches the ODE solver.
    assert "dynamics.solve_ivp.calls" not in totals


def test_traced_shipped_raman_run_never_reaches_the_ode_solver(tmp_path):
    traced = tracer.Tracer()
    traced.install()
    try:
        config = scenarios.load_config(SCENARIO_DIR / "raman_memory.json")
        scenarios.run_scenario(config, SCENARIO_DIR, output_dir=tmp_path / "out")
    finally:
        traced.restore()
    totals = traced.layer_totals()
    assert totals["protocols.raman_memory_efficiency.calls"] == 1
    # the write stage is stepped by CF4; protocols.solve_ivp.nfev reads 0
    assert "protocols.solve_ivp.calls" not in totals
    assert totals.get("protocols.solve_ivp.nfev", 0) == 0

"""The vector engine's epoch schedule and kernel tiers must be
invisible in results.

Phase A (:class:`repro.mp5.epochs.EpochStreamer`) fixes the run's task
DAG before any stateful service executes, so the DAG — and every
downstream artifact — must be identical on any kernel tier. These tests
pin that contract: schedule determinism, byte-identical
``results.json`` with the ``native`` tier on and off, and the
deduplicated fallback warning.
"""

import pytest

from repro.cli import main
from repro.harness.runall import SCALES, run_all
from repro.mp5 import VectorSwitch
from repro.mp5.vector import _warn_fallback, reset_fallback_warnings
from repro.workloads.synthetic import make_sensitivity_program, sensitivity_trace


@pytest.fixture(autouse=True)
def _teardown():
    reset_fallback_warnings()
    yield
    reset_fallback_warnings()


def _run_switch(num_packets=3000, seed=0, native=None):
    program = make_sensitivity_program(2, 64)
    switch = VectorSwitch(program, None, native=native)
    stats = switch.run(sensitivity_trace(num_packets, 4, 2, 64, seed=seed))
    return switch, stats


# ---------------------------------------------------------------------------
# Schedule determinism
# ---------------------------------------------------------------------------


def test_dag_signature_deterministic_across_runs():
    a, _ = _run_switch()
    b, _ = _run_switch()
    assert a._last_schedule.dag_signature() == b._last_schedule.dag_signature()


def test_dag_signature_independent_of_native_tier():
    base, _ = _run_switch()
    native, _ = _run_switch(native=True)
    assert (
        native._last_schedule.dag_signature()
        == base._last_schedule.dag_signature()
    )


def test_dag_signature_varies_with_input():
    a, _ = _run_switch(seed=0)
    b, _ = _run_switch(seed=1)
    assert a._last_schedule.dag_signature() != b._last_schedule.dag_signature()


# ---------------------------------------------------------------------------
# End-to-end byte identity
# ---------------------------------------------------------------------------


def test_stats_identical_across_tiers():
    base_switch, base_stats = _run_switch(num_packets=6000)
    switch, stats = _run_switch(num_packets=6000, native=True)
    assert stats == base_stats
    assert dict(switch.registers) == dict(base_switch.registers)


def test_runall_results_identical_across_epoch_settings(tmp_path):
    paths = {}
    for name, kwargs in (("base", dict()), ("native", dict(native=True))):
        out = tmp_path / name
        run_all(out_dir=str(out), scale="tiny", engine="vector", **kwargs)
        paths[name] = (out / "results.json").read_bytes()
    assert len(set(paths.values())) == 1


def test_xlarge_scale_defined():
    knobs = SCALES["xlarge"]
    assert knobs["num_packets"] == 1_000_000
    assert knobs["engine"] == "vector"
    assert knobs["native"] is True
    assert knobs["sensitivity_packets"] < knobs["num_packets"]


# ---------------------------------------------------------------------------
# Fallback warning dedup
# ---------------------------------------------------------------------------


def test_warn_fallback_prints_once(capsys):
    _warn_fallback("vector engine: test message")
    _warn_fallback("vector engine: test message")
    assert capsys.readouterr().err.count("test message") == 1
    _warn_fallback("vector engine: another message")
    err = capsys.readouterr().err
    assert "another message" in err and "test message" not in err


def test_warn_fallback_reset(capsys):
    _warn_fallback("vector engine: resettable")
    reset_fallback_warnings()
    _warn_fallback("vector engine: resettable")
    assert capsys.readouterr().err.count("resettable") == 2


def test_cli_invocations_each_warn_once(capsys):
    """main() resets the warning budget, so two CLI runs in one process
    warn once each — not once total, not twice per run. Observability
    no longer falls back, so the faulted run is the warning path."""
    argv = [
        "run", "heavy_hitter", "--packets", "200",
        "--engine", "vector", "--faults", "examples/faults/slowdown.json",
    ]
    for _ in range(2):
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert err.count("falling back to the fast engine") == 1

"""Observability parity: the vector engine's reconstructed streams.

The vector engine never steps ticks, so it cannot emit lifecycle
events live. Instead :mod:`repro.obs.reconstruct` synthesizes the
event stream from the epoch schedule after the closed-form run and
replays it through whatever sinks were attached. The contract this
module pins down:

* the reconstructed trace's :func:`canonical_form` equals both scalar
  engines' live traces (sensitivity workload, every app, flow
  ordering, max_ticks cuts),
* the metrics registry rolls identical windowed series and histograms,
* the invariant monitor sees the same alert stream (zero on fault-free
  runs) and health verdict on every ``native`` kernel tier,
* attaching sinks never changes the results (stats + registers), and
* the profiler's vector channels (phase spans, kernel tiers, epochs)
  populate and surface through ``trace-summary``.
"""

import json

import pytest

from repro.apps import ALL_APPS
from repro.cli import main
from repro.errors import ConfigError
from repro.harness.runall import SCALES, _observability_run
from repro.mp5 import (
    MP5Config,
    VectorSwitch,
    run_mp5,
    run_mp5_reference,
    run_mp5_vector,
)
from repro.obs import (
    InvariantMonitor,
    MetricsRegistry,
    PhaseProfiler,
    TraceRecorder,
    canonical_form,
)
from repro.workloads.synthetic import make_sensitivity_program, sensitivity_trace


def _run_observed(
    runner,
    program,
    trace,
    config,
    max_ticks=None,
    profile=False,
    **engine_kw,
):
    recorder = TraceRecorder()
    metrics = MetricsRegistry(window=50)
    monitor = InvariantMonitor()
    profiler = PhaseProfiler() if profile else None
    stats, regs = runner(
        program,
        trace,
        config,
        max_ticks=max_ticks,
        recorder=recorder,
        metrics=metrics,
        monitor=monitor,
        profiler=profiler,
        **engine_kw,
    )
    return {
        "stats": stats,
        "regs": regs,
        "trace": canonical_form(recorder.events),
        "events": len(recorder.events),
        "metrics": metrics.to_dict(),
        "alerts": [a.to_dict() for a in monitor.alerts],
        "health": monitor.health_report().to_dict(),
        "profiler": profiler,
    }


def _sensitivity_inputs(n=250, k=4, **cfg_kw):
    program = make_sensitivity_program(num_stateful=4, register_size=64)
    config = MP5Config(num_pipelines=k, **cfg_kw)
    return program, (lambda: sensitivity_trace(n, k, 4, 64, seed=0)), config


def _assert_parity(vec, ref, dense=None):
    assert vec["stats"] == ref["stats"]
    assert vec["regs"] == ref["regs"]
    assert vec["trace"] == ref["trace"]
    assert vec["metrics"] == ref["metrics"]
    assert vec["alerts"] == ref["alerts"]
    assert vec["health"] == ref["health"]
    if dense is not None:
        assert vec["trace"] == dense["trace"]
        assert vec["alerts"] == dense["alerts"]


# ---------------------------------------------------------------------------
# Three-engine trace equality
# ---------------------------------------------------------------------------


def test_trace_parity_sensitivity_three_engines():
    program, mk, config = _sensitivity_inputs()
    vec = _run_observed(run_mp5_vector, program, mk(), config)
    fast = _run_observed(run_mp5, program, mk(), config)
    dense = _run_observed(run_mp5_reference, program, mk(), config)
    assert vec["events"] > 0
    _assert_parity(vec, fast, dense)
    assert vec["alerts"] == []  # fault-free: monitor stays silent


@pytest.mark.parametrize("app_name", sorted(ALL_APPS))
def test_trace_parity_apps(app_name):
    app = ALL_APPS[app_name]
    program = app.compile()
    config = MP5Config(num_pipelines=4)
    vec = _run_observed(
        run_mp5_vector, program, app.workload(200, 4, seed=0), config
    )
    fast = _run_observed(run_mp5, program, app.workload(200, 4, seed=0), config)
    assert vec["events"] > 0
    _assert_parity(vec, fast)
    assert vec["alerts"] == []


@pytest.mark.parametrize(
    "cfg_kw",
    (
        dict(),
        dict(remap_algorithm="none"),
        dict(remap_period=16),
        dict(flow_order_field="f0", flow_order_size=32),
    ),
    ids=("default", "no_remap", "short_period", "flow_order"),
)
def test_trace_parity_configs(cfg_kw):
    program, mk, config = _sensitivity_inputs(**cfg_kw)
    vec = _run_observed(run_mp5_vector, program, mk(), config)
    fast = _run_observed(run_mp5, program, mk(), config)
    _assert_parity(vec, fast)


@pytest.mark.parametrize("max_ticks", (0, 40))
def test_trace_parity_max_ticks_cut(max_ticks):
    """A mid-flight cut truncates the reconstructed stream at exactly
    the same tick the scalar engines stop stepping."""
    program, mk, config = _sensitivity_inputs()
    vec = _run_observed(
        run_mp5_vector, program, mk(), config, max_ticks=max_ticks
    )
    fast = _run_observed(run_mp5, program, mk(), config, max_ticks=max_ticks)
    _assert_parity(vec, fast)


def test_trace_parity_empty_trace():
    program, _mk, config = _sensitivity_inputs()
    vec = _run_observed(run_mp5_vector, program, [], config)
    fast = _run_observed(run_mp5, program, [], config)
    assert vec["events"] == 0
    _assert_parity(vec, fast)


# ---------------------------------------------------------------------------
# Monitor parity across acceleration tiers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("native", (None, True), ids=("numpy", "native"))
def test_monitor_zero_alerts_every_tier(native):
    """Fault-free vector runs stay alert-free — and byte-identical to
    the fast engine — on every kernel tier."""
    program, mk, config = _sensitivity_inputs()
    vec = _run_observed(
        run_mp5_vector,
        program,
        mk(),
        config,
        native=native,
    )
    fast = _run_observed(run_mp5, program, mk(), config)
    _assert_parity(vec, fast)
    assert vec["alerts"] == []
    assert vec["health"]["verdict"] == "ok"


def test_results_identical_with_observability_on_and_off():
    """Attaching sinks must not perturb the simulation: stats and final
    registers are identical with observability on or off."""
    program, mk, config = _sensitivity_inputs()
    plain = run_mp5_vector(program, mk(), config)
    observed = _run_observed(run_mp5_vector, program, mk(), config)
    assert plain == (observed["stats"], observed["regs"])


def test_monitor_reuse_guard():
    """One monitor tracks one run, on the vector engine too."""
    program, mk, config = _sensitivity_inputs(n=60)
    monitor = InvariantMonitor()
    run_mp5_vector(program, mk(), config, monitor=monitor)
    with pytest.raises(ConfigError):
        run_mp5_vector(program, mk(), config, monitor=monitor)


def test_attach_after_run_raises():
    program, mk, config = _sensitivity_inputs(n=60)
    switch = VectorSwitch(program, config)
    switch.run(mk())
    with pytest.raises(ConfigError):
        switch.attach_observability(recorder=TraceRecorder())


# ---------------------------------------------------------------------------
# Profiler vector channels
# ---------------------------------------------------------------------------


def test_profiler_vector_channels_populate():
    program, mk, config = _sensitivity_inputs()
    vec = _run_observed(run_mp5_vector, program, mk(), config, profile=True)
    profiler = vec["profiler"]
    assert set(profiler.spans) >= {"phase_a", "phase_b", "trace_reconstruct"}
    assert profiler.kernels  # every stateful stage records a tier
    assert all(
        entry["tier"] in ("njit", "numpy", "python")
        for entry in profiler.kernels.values()
    )
    assert profiler.epochs and profiler.epochs[0]["start"] == 0
    report = profiler.report()
    assert "Vector phase breakdown" in report
    assert "Service kernel tiers" in report
    dumped = profiler.to_dict()
    assert json.dumps(dumped)  # JSON-safe for the trace header
    assert dumped["spans"] == profiler.spans


def test_profiler_scalar_channels_stay_empty():
    program, mk, config = _sensitivity_inputs(n=60)
    fast = _run_observed(run_mp5, program, mk(), config, profile=True)
    profiler = fast["profiler"]
    assert not profiler.spans and not profiler.kernels
    assert not profiler.epochs
    assert "Vector phase breakdown" not in profiler.report()


# ---------------------------------------------------------------------------
# CLI: trace-summary epoch section + hardening
# ---------------------------------------------------------------------------


def test_cli_trace_summary_epoch_section(tmp_path, capsys):
    trace_path = str(tmp_path / "vec.jsonl")
    assert main(
        ["run", "heavy_hitter", "--packets", "200", "--engine", "vector",
         "--profile", "--trace", trace_path, "--trace-format", "jsonl"]
    ) == 0
    capsys.readouterr()
    assert main(["trace-summary", trace_path]) == 0
    out = capsys.readouterr().out
    assert "Vector epochs" in out
    assert "Service kernel tiers" in out


def test_cli_trace_summary_without_profiler_block(tmp_path, capsys):
    """Scalar traces carry no profiler block: no epoch section, no
    error."""
    trace_path = str(tmp_path / "fast.jsonl")
    assert main(
        ["run", "heavy_hitter", "--packets", "200",
         "--trace", trace_path, "--trace-format", "jsonl"]
    ) == 0
    capsys.readouterr()
    assert main(["trace-summary", trace_path]) == 0
    assert "Vector epochs" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "block",
    (
        {"spans": "not-a-dict"},
        {"kernels": {"s1": 3}},
        {"epochs": [{"start": 0}]},
        "garbage",
    ),
    ids=("bad_spans", "bad_kernels", "bad_epochs", "not_object"),
)
def test_cli_trace_summary_malformed_profiler_block(tmp_path, capsys, block):
    trace_path = tmp_path / "bad.jsonl"
    header = {"format": "mp5-trace-events", "version": 1, "profiler": block}
    trace_path.write_text(json.dumps(header) + "\n")
    assert main(["trace-summary", str(trace_path)]) == 2
    err_line = [
        line
        for line in capsys.readouterr().out.splitlines()
        if "malformed profiler block" in line
    ]
    assert len(err_line) == 1  # one-line diagnostic


def test_cli_monitor_report_shows_vector_epochs(tmp_path, capsys):
    """A profiled vector run embeds its (deterministic) epoch
    boundaries in the alert-log meta; monitor-report surfaces them."""
    alerts_path = str(tmp_path / "alerts.jsonl")
    assert main(
        ["run", "heavy_hitter", "--packets", "200", "--engine", "vector",
         "--profile", "--alerts-out", alerts_path]
    ) == 0
    capsys.readouterr()
    assert main(["monitor-report", alerts_path]) == 0
    out = capsys.readouterr().out
    assert "vector epochs:" in out
    assert "resolved" in out


# ---------------------------------------------------------------------------
# Harness: instrumented-run artifacts diff clean across engines
# ---------------------------------------------------------------------------


def test_observability_run_artifacts_identical_across_engines(tmp_path):
    """The CI ``obs-vector-smoke`` contract: every artifact the
    instrumented run writes — canonical trace, metrics, alerts, and the
    block embedded in ``results.json`` — is byte-identical between the
    vector and fast engines."""
    knobs = SCALES["tiny"]
    out_fast = tmp_path / "fast"
    out_vec = tmp_path / "vector"
    out_fast.mkdir()
    out_vec.mkdir()
    block_fast = _observability_run(out_fast, knobs, engine="fast")
    block_vec = _observability_run(out_vec, knobs, engine="vector")
    assert block_fast == block_vec
    # The raw trace.jsonl may interleave same-tick events of different
    # packets differently; trace_canonical.json is the order-free form
    # the contract (and the CI cmp) is defined over.
    for name in (
        "trace_canonical.json",
        "metrics.json",
        "alerts.jsonl",
        "trace_summary.txt",
    ):
        assert (out_fast / name).read_bytes() == (out_vec / name).read_bytes()

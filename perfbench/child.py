"""One measurement in a fresh interpreter.

``run.py`` starts this file once per sample, so no sample inherits
imports, caches or heap from another. Modes:

* ``inputs``    — one ``offline_stream`` trace and its Banzai oracle;
* ``offline``   — one pass of the ``offline_stream`` trace through
  ``VectorSwitch`` (start, feed/pump per chunk, finish);
* ``reproduce`` — one ``run_all`` call (the ``reproduce`` workload, or
  its oracle with ``--engine fast``);
* ``replica``   — the served trace through ``VectorSwitch`` with the
  daemon's default metrics registry attached, for ``service.engine_share``
  and the ``obs`` and ``mp5`` layers of ``served_replay``.

The result, and the spans of a traced sample, go to the ``--out`` file.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from benchlib import Tracer, install_delay, patch_everywhere, peak_rss_mb, steps_of

# offline_stream: packets per feed() call. The daemon feeds the engine one
# queued batch at a time, and its server-side /replay queues 256-packet
# batches by default.
CHUNK = 256


def _args():
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("inputs", "offline", "reproduce", "replica"))
    p.add_argument("--out", required=True)
    p.add_argument("--spawn", type=float, required=True)
    p.add_argument("--inputs", help="inputs/offline/replica: the input file")
    p.add_argument("--seed", type=int, help="inputs: the trace seed")
    p.add_argument("--packets", type=int, help="inputs: the trace length")
    p.add_argument("--oracle", help="reproduce: results.json to match")
    p.add_argument("--workdir", help="reproduce: where run_all writes")
    p.add_argument("--scale", default="small")
    p.add_argument("--engine", default="vector")
    p.add_argument("--traced", action="store_true")
    p.add_argument("--delay", default=None, help="LAYER:SECONDS (tests)")
    return p.parse_args()


def inputs(args) -> dict:
    """Make one ``offline_stream`` trace and its Banzai single-pipeline
    oracle and write them to the ``--inputs`` file."""
    import numpy as np
    from repro.banzai.pipeline import BanzaiPipeline
    from repro.workloads import make_sensitivity_program, reference_trace, sensitivity_trace

    t0 = time.perf_counter()
    trace = sensitivity_trace(args.packets, 4, 4, 512, pattern="skewed", seed=args.seed)
    gen_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    oracle = (
        BanzaiPipeline(make_sensitivity_program(4, 512))
        .run(reference_trace(trace, 4))
        .registers.snapshot()
    )
    oracle_s = time.perf_counter() - t0
    arrays = {
        "arrival": np.array([p.arrival for p in trace], dtype=np.float64),
        "port": np.array([p.port for p in trace], dtype=np.int64),
        "time_gen_s": np.float64(gen_s),
        "time_oracle_s": np.float64(oracle_s),
    }
    for j in range(4):
        arrays[f"idx{j}"] = np.array([p.headers[f"idx{j}"] for p in trace], dtype=np.int64)
    for name, values in oracle.items():
        arrays[f"oracle_{name}"] = np.asarray(values, dtype=np.int64)
    tmp = args.inputs[: -len(".npz")] + ".tmp.npz"
    np.savez(tmp, **arrays)
    os.replace(tmp, args.inputs)
    return {"gen_s": gen_s, "oracle_s": oracle_s}


def _mp5_counts(stats, switch, profiler) -> dict:
    """Per-layer counts of one engine run."""
    stream = switch.stream_stats()
    counts = {
        "mp5.epochs": stream["epochs_serviced"],
        "mp5.peak_buffered": stream["peak_buffered"],
        "mp5.wasted_slot_frac": (
            stats.wasted_slots / stats.phantoms_generated
            if stats.phantoms_generated
            else 0.0
        ),
        "mp5.steering_moves": stats.steering_moves,
        "mp5.remap_moves": stats.remap_moves,
        "mp5.max_queue_depth": stats.max_queue_depth,
        "mp5.sim_throughput": stats.throughput_normalized(),
    }
    if profiler is not None:
        counts["mp5.phase_a_s"] = profiler.spans.get("phase_a", 0.0)
        counts["mp5.phase_b_s"] = profiler.spans.get("phase_b", 0.0)
    return counts


def _stream(switch, packets, chunk):
    """start → feed/pump per chunk → finish; returns the stats and the
    time of each step: start, then feed and pump per chunk, then finish.
    A feed takes in one batch; epochs execute in pump() and finish()."""
    now = time.perf_counter
    marks = [now()]
    switch.start()
    marks.append(now())
    for i in range(0, len(packets), chunk):
        switch.feed(packets[i : i + chunk])
        marks.append(now())
        switch.pump(until_tick=switch.ingest_watermark)
        marks.append(now())
    stats = switch.finish()
    marks.append(now())
    return stats, steps_of(marks)


def _trace_engine(tracer: Tracer, profiler=None, on_finish=None) -> None:
    """Spans around the public calls of the compile step and the engine.
    With ``profiler`` given, every switch built reports its Phase A/B
    spans to it; ``on_finish(args, stats)`` sees every finished run."""
    from repro.compiler import compile_program
    from repro.mp5.vector import VectorSwitch
    from repro.obs.reconstruct import replay_observability
    from repro.workloads.synthetic import make_sensitivity_program

    def attach(call_args, _result):
        call_args[0].attach_observability(profiler=profiler)

    tracer.wrap(make_sensitivity_program, "compiler.compile")
    tracer.wrap(compile_program, "compiler.compile")
    tracer.wrap(
        VectorSwitch.__init__,
        "compiler.switch_build",
        on_result=attach if profiler is not None else None,
    )
    tracer.wrap(VectorSwitch.start, "mp5.start")
    tracer.wrap(VectorSwitch.feed, "mp5.feed")
    tracer.wrap(VectorSwitch.pump, "mp5.pump")
    tracer.wrap(VectorSwitch.finish, "mp5.finish", on_result=on_finish)
    tracer.wrap(replay_observability, "obs.reconstruct")


def offline(args) -> dict:
    import repro.obs.reconstruct  # noqa: F401  (loaded before wrapping)
    from repro.mp5 import MP5Config
    from repro.mp5.vector import VectorSwitch
    from repro.obs import PhaseProfiler

    install_delay(args.delay)  # under the spans, so they include it
    tracer = profiler = None
    if args.traced:
        tracer = Tracer()
        profiler = PhaseProfiler()
        _trace_engine(tracer, profiler)
    from repro.workloads import make_sensitivity_program  # the wrapped one

    program = make_sensitivity_program(4, 512)
    switch = VectorSwitch(program, MP5Config(num_pipelines=4))
    setup_s = time.monotonic() - args.spawn

    # Inputs, outside the timed region.
    import numpy as np
    from repro.mp5.packet import DataPacket

    data = np.load(args.inputs)
    arrival = data["arrival"].tolist()
    port = data["port"].tolist()
    idx = [data[f"idx{j}"].tolist() for j in range(4)]
    packets = [
        DataPacket(
            pkt_id=i,
            arrival=arrival[i],
            port=port[i],
            headers={
                "idx0": idx[0][i],
                "idx1": idx[1][i],
                "idx2": idx[2][i],
                "idx3": idx[3][i],
            },
        )
        for i in range(len(arrival))
    ]
    oracle = {k[len("oracle_") :]: data[k] for k in data.files if k.startswith("oracle_")}

    if tracer is not None:
        with tracer.span("offline_stream", "other") as root:
            stats, steps = _stream(switch, packets, CHUNK)
    else:
        stats, steps = _stream(switch, packets, CHUNK)

    # Correctness, outside the timed region.
    n = len(packets)
    problems = []
    if not (stats.offered == stats.egressed == n and stats.dropped == 0):
        problems.append(
            f"offered {stats.offered} egressed {stats.egressed} "
            f"dropped {stats.dropped} of {n}"
        )
    for name, expect in sorted(oracle.items()):
        got = np.asarray(switch.registers[name], dtype=np.int64)
        if not np.array_equal(got, expect):
            problems.append(f"register {name} differs from the Banzai oracle")
    if set(oracle) != set(switch.registers):
        problems.append("register arrays differ from the Banzai oracle's")

    result = {
        "correct": not problems,
        "problems": problems,
        "setup_s": setup_s,
        "run_s": sum(steps),
        "packets": n,
        "steps_s": steps,
        "rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        result["layers"] = tracer.self_times()
        result["covered"] = tracer.self_times(root["id"])
        result["counts"] = _mp5_counts(stats, switch, profiler)
        result["spans"] = tracer.spans
    return result


def _trace_reproduce(tracer: Tracer, profiler, on_finish) -> None:
    """Spans around each harness step of ``run_all`` and the public
    calls below it: compile, input generation, the engines, the Banzai
    pipeline and trace reconstruction."""
    from repro.apps.base import Application
    from repro.banzai.pipeline import BanzaiPipeline
    from repro.harness import runall
    from repro.mp5.switch import MP5Switch
    from repro.workloads.synthetic import sensitivity_trace

    _trace_engine(tracer, profiler, on_finish)
    tracer.wrap(Application.compile, "compiler.compile")
    tracer.wrap(Application.workload, "workloads.gen")
    tracer.wrap(sensitivity_trace, "workloads.gen")
    tracer.wrap(MP5Switch.run, "mp5.fast")
    tracer.wrap(BanzaiPipeline.run, "banzai.run")
    tracer.wrap(runall.run_table1, "harness.table1")
    for fn in (runall.run_d2, runall.run_d3, runall.run_d4):
        tracer.wrap(fn, "harness.micro")
    for fn in (
        runall.sweep_pipelines,
        runall.sweep_stateful_stages,
        runall.sweep_register_size,
        runall.sweep_packet_size,
    ):
        tracer.wrap(fn, "harness.fig7")
    tracer.wrap(runall.run_figure8, "harness.fig8")
    tracer.wrap(runall.run_all, "harness.observe")


def _time_engine_runs(runs: list, marks: list) -> None:
    """Record the wall time, offered packets and engine of every engine
    run (``VectorSwitch.run`` or ``MP5Switch.run``) in ``runs``, and its
    start and end in ``marks``. A vector run that gives up before any
    packet moves is not counted in ``runs``; the fast-engine run that
    replaces it is."""
    from repro.mp5.switch import MP5Switch
    from repro.mp5.vector import VectorSwitch

    for func, engine in ((VectorSwitch.run, "vector"), (MP5Switch.run, "fast")):

        @functools.wraps(func)
        def timed(*a, _func=func, _engine=engine, **kw):
            t0 = time.perf_counter()
            marks.append((t0, "run"))
            try:
                stats = _func(*a, **kw)
            finally:
                t1 = time.perf_counter()
                marks.append((t1, "run"))
            runs.append((t1 - t0, stats.offered, _engine))
            return stats

        patch_everywhere(func, timed)


def reproduce(args) -> dict:
    from repro.harness import runall
    import repro.obs.reconstruct  # noqa: F401  (loaded before wrapping)

    install_delay(args.delay)  # under the spans, so they include it
    engine_runs = []
    marks = []
    _time_engine_runs(engine_runs, marks)
    tracer = None
    if args.traced:
        from repro.obs import PhaseProfiler

        tracer = Tracer()
        profiler = PhaseProfiler()
        runs = []
        _trace_reproduce(tracer, profiler, lambda _a, stats: runs.append(stats))
    run_all = runall.run_all
    setup_s = time.monotonic() - args.spawn

    def progress(message):
        kind = "observe" if message.startswith("observability") else "progress"
        marks.append((time.perf_counter(), kind))

    def call():
        run_all(
            args.workdir,
            scale=args.scale,
            engine=args.engine,
            observe=True,
            jobs=1,
            progress=progress,
        )

    t0 = time.perf_counter()
    if tracer is not None:
        with tracer.span("reproduce", "other") as root:
            call()
    else:
        call()
    run_s = time.perf_counter() - t0
    # The call's timeline: every engine run's start and end and every
    # harness step's progress message split it into steps.
    marks = [(0.0, "start")] + [(t - t0, kind) for t, kind in marks] + [(run_s, "end")]

    with open(f"{args.workdir}/results.json", "rb") as fh:
        produced = fh.read()
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "marks": marks,
        "engine_runs": engine_runs,
        "rss_mb": peak_rss_mb(),
        "results": json.loads(produced),
    }
    if args.oracle:
        with open(args.oracle, "rb") as fh:
            same = fh.read() == produced
        result["correct"] = same
        result["problems"] = [] if same else ["results.json differs from engine=fast"]
    if tracer is not None:
        phantoms = sum(s.phantoms_generated for s in runs)
        result["layers"] = tracer.self_times()
        result["inclusive"] = tracer.inclusive_times()
        result["covered"] = tracer.self_times(root["id"])
        result["spans"] = tracer.spans
        result["counts"] = {
            "mp5.phase_a_s": profiler.spans.get("phase_a", 0.0),
            "mp5.phase_b_s": profiler.spans.get("phase_b", 0.0),
            "mp5.epochs": len(profiler.epochs),
            "mp5.offered": sum(s.offered for s in runs),
            "mp5.wasted_slot_frac": (
                sum(s.wasted_slots for s in runs) / phantoms if phantoms else 0.0
            ),
            "mp5.steering_moves": sum(s.steering_moves for s in runs),
            "mp5.remap_moves": sum(s.remap_moves for s in runs),
            "mp5.max_queue_depth": max((s.max_queue_depth for s in runs), default=0),
        }
    return result


def replica(args) -> dict:
    """The served trace through the engine the daemon runs, with the
    daemon's default ``MetricsRegistry(window=100)`` attached."""
    import repro.obs.reconstruct  # noqa: F401  (loaded before wrapping)
    from repro.mp5 import MP5Config
    from repro.mp5.vector import VectorSwitch
    from repro.obs import MetricsRegistry, PhaseProfiler
    from repro.service.daemon import packet_from_json

    tracer = Tracer()
    profiler = PhaseProfiler()
    _trace_engine(tracer, profiler)
    from repro.compiler import compile_program  # the wrapped one

    with open(args.inputs) as fh:
        spec = json.load(fh)
    records = spec["records"]
    chunk = spec["chunk"]
    program = compile_program("flowlet")
    switch = VectorSwitch(program, MP5Config(num_pipelines=4, seed=0))
    switch.attach_observability(metrics=MetricsRegistry(window=100))
    # The packet build the daemon does per /ingest, timed on its own.
    t0 = time.perf_counter()
    batches = [
        [packet_from_json(r, i) for i, r in enumerate(records[j : j + chunk])]
        for j in range(0, len(records), chunk)
    ]
    build_s = time.perf_counter() - t0
    with tracer.span("replica", "other") as root:
        switch.start()
        for batch in batches:
            switch.feed(batch)
            switch.pump(until_tick=switch.ingest_watermark)
        stats = switch.finish()
    layers = tracer.self_times()
    return {
        "packet_build_s": build_s,
        "engine_s": root["end"] - root["start"],
        "layers": layers,
        "counts": _mp5_counts(stats, switch, profiler),
        "offered": stats.offered,
        "spans": tracer.spans,
    }


def main() -> int:
    args = _args()
    modes = {"inputs": inputs, "offline": offline, "reproduce": reproduce, "replica": replica}
    result = modes[args.mode](args)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

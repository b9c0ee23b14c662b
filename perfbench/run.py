"""The repository's benchmark: three workloads, end-to-end and per-layer
metrics, correctness checked against oracles in every run.

    python3 perfbench/run.py --workload offline_stream --seed 1 --seconds 10 --trace 0

Workloads (see README.md beside this file for every metric's definition):

* ``offline_stream`` — the sensitivity program on one long skewed trace,
  streamed through ``VectorSwitch`` (``start``/``feed``/``pump``/``finish``);
* ``served_replay``  — ``repro serve flowlet --engine vector`` driven by
  one closed-loop NDJSON client, several ``/drain``-closed segments;
* ``reproduce``      — ``run_all(scale="tiny", engine="vector",
  observe=True, jobs=1)``, the paper-figure path.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones from a separate traced run. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. A failed correctness check exits 1 after
printing it; a benchmark that cannot run at all exits 2 without one.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
from typing import Dict, List, Optional

import benchlib
from benchlib import (
    BenchError,
    cache_dir,
    engine_layers,
    median,
    out_dir,
    percentile,
    repeat_for,
    run_child,
    run_children,
    step_best,
    steps_of,
)

WORKLOADS = ("offline_stream", "served_replay", "reproduce")

# ``small`` is for the layer tests: the same workloads on small inputs.
SIZES = {
    "full": {"offline_packets": 300_000, "served_packets": 40_000, "scale": "tiny"},
    "small": {"offline_packets": 20_000, "served_packets": 4_000, "scale": "tiny"},
}

# Fresh-process samples per untraced run, at least: timings are per-step
# bests over them (benchlib.step_best), set-up time and memory medians.
MIN_SAMPLES = {"offline_stream": 8, "reproduce": 8}


# ----------------------------------------------------------------------
# offline_stream
# ----------------------------------------------------------------------


# offline_stream streams two traces per run, in alternating samples:
# finish() drains the trace's final open epoch, whose size depends on the
# trace (27k-40k packets at 300k), and two traces halve that spread.
OFFLINE_TRACES = 2


def offline_inputs(seeds: List[int], packets: int) -> List[str]:
    """One skewed trace and its Banzai single-pipeline oracle per trace
    seed, kept in the checkout's cache per program version. Missing ones
    are made at once, one fresh process each."""
    paths = [cache_dir() / f"offline-n{packets}-s{seed}.npz" for seed in seeds]
    run_children(
        [
            ("inputs", ["--inputs", str(path), "--seed", str(seed), "--packets", str(packets)],
             f"inputs-{seed}")
            for seed, path in zip(seeds, paths)
            if not path.exists()
        ]
    )
    return [str(path) for path in paths]


def offline_stream(seed: int, seconds: float, traced: bool, size: Dict, delay) -> Dict:
    inputs = offline_inputs(
        [OFFLINE_TRACES * seed + part for part in range(OFFLINE_TRACES)],
        size["offline_packets"],
    )

    def sample(i: int, trace: bool = False) -> Dict:
        args = ["--inputs", inputs[i % OFFLINE_TRACES]]
        args += (["--delay", delay] if delay else []) + (["--traced"] if trace else [])
        return run_child("offline", args, f"offline-{seed}-{i}-{int(trace)}")

    if not traced:
        samples = repeat_for(seconds, MIN_SAMPLES["offline_stream"], sample)

        # Per trace, each step's best over that trace's samples (see
        # benchlib.step_best). Steps: start, then feed and pump per
        # chunk, then finish.
        bests = [
            step_best([s["steps_s"] for s in samples[part::OFFLINE_TRACES]])
            for part in range(OFFLINE_TRACES)
        ]

        def per_trace(metric) -> float:
            """The mean over the traces of ``metric(step bests)``."""
            return sum(metric(b) for b in bests) / OFFLINE_TRACES

        packets = samples[0]["packets"]
        return _verdict(
            samples,
            {
                "setup_s": median(s["setup_s"] for s in samples),
                "pps": per_trace(lambda b: packets / sum(b)),
                "run_s": per_trace(sum),
                "ingest_p50_ms": per_trace(lambda b: percentile(b[1:-1:2], 50)) * 1e3,
                "ingest_p90_ms": per_trace(lambda b: percentile(b[1:-1:2], 90)) * 1e3,
                "drain_ms": per_trace(lambda b: b[-1]) * 1e3,
                "rss_mb": median(s["rss_mb"] for s in samples),
            },
        )
    plain, spans = _pairs(seconds, sample)
    t = spans[-1]
    import numpy as np

    data = np.load(inputs[(len(spans) - 1) % OFFLINE_TRACES])
    layers = engine_layers(t["layers"], t["packets"])
    layers.update(t["counts"])
    layers.update(
        {
            "workloads.gen_s": float(data["time_gen_s"]),
            "banzai.run_s": float(data["time_oracle_s"]),
        }
    )
    layers.update(_coverage(plain, spans))
    _save_spans("offline_stream", seed, t)
    return _verdict(plain + spans, layers, t["covered"])


# ----------------------------------------------------------------------
# reproduce
# ----------------------------------------------------------------------


def reproduce_oracle(scale: str) -> str:
    """``results.json`` of the same call on the scalar fast engine. The
    paper-figure inputs are fixed by the scale, so one oracle serves
    every seed of a program version."""
    path = cache_dir() / f"reproduce-{scale}-fast.json"
    if not path.exists():
        work = out_dir() / "reproduce-oracle"
        shutil.rmtree(work, ignore_errors=True)
        run_child(
            "reproduce",
            ["--scale", scale, "--engine", "fast", "--workdir", str(work)],
            "reproduce-oracle",
        )
        tmp = path.with_suffix(".tmp")
        shutil.copyfile(work / "results.json", tmp)
        tmp.replace(path)
        shutil.rmtree(work, ignore_errors=True)
    return str(path)


def _timeline(samples: List[Dict]) -> tuple:
    """Each step's best over the samples of the ``run_all`` timeline
    (split at every engine run's start and end and every harness step's
    progress message), and the kind of mark each step starts at."""
    kinds = [k for _, k in samples[0]["marks"]]
    if any([k for _, k in s["marks"]] != kinds for s in samples):
        raise BenchError("run_all took different steps in different samples")
    bests = step_best([steps_of([t for t, _ in s["marks"]]) for s in samples])
    return bests, kinds[:-1]


def reproduce(seed: int, seconds: float, traced: bool, size: Dict, delay) -> Dict:
    scale = size["scale"]
    oracle = reproduce_oracle(scale)
    args = ["--scale", scale, "--oracle", oracle] + (["--delay", delay] if delay else [])

    def sample(i: int, trace: bool = False) -> Dict:
        work = out_dir() / f"reproduce-{seed}-{i}-{int(trace)}"
        shutil.rmtree(work, ignore_errors=True)
        mode = ["--traced"] if trace else []
        try:
            return run_child("reproduce", args + mode + ["--workdir", str(work)], work.name)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    if not traced:
        samples = repeat_for(seconds, MIN_SAMPLES["reproduce"], sample)
        # Each step's best over the samples (see benchlib.step_best).
        bests, kinds = _timeline(samples)
        # Every engine run inside run_all: wall time, offered packets,
        # engine; the same runs in the same order in every sample.
        runs = samples[0]["engine_runs"]
        if any([r[1:] for r in s["engine_runs"]] != [r[1:] for r in runs] for s in samples):
            raise BenchError("run_all made different engine runs in different samples")
        walls = step_best([[w for w, _, _ in s["engine_runs"]] for s in samples])
        # Latency is per run of the fast engine. Only this workload runs
        # that engine: the microbenchmarks, and configurations such as
        # ideal MP5 that the vector engine hands over. Its runs take
        # 2-10x longer than the vector runs, so a percentile over both
        # would sit on the gap between them; the other workloads time
        # the vector engine.
        fast = [w for w, (_, _, engine) in zip(walls, runs) if engine == "fast"]
        return _verdict(
            samples,
            {
                "setup_s": median(s["setup_s"] for s in samples),
                "pps": sum(n for _, n, _ in runs) / sum(walls),
                "run_s": sum(bests),
                "ingest_p50_ms": percentile(fast, 50) * 1e3,
                "ingest_p90_ms": percentile(fast, 90) * 1e3,
                # run_all's last step: the observed run, rendering, writing.
                "drain_ms": sum(bests[kinds.index("observe") :]) * 1e3,
                "rss_mb": median(s["rss_mb"] for s in samples),
            },
        )
    plain, spans = _pairs(seconds, sample)
    t = spans[-1]
    layers = engine_layers(t["layers"], t["counts"]["mp5.offered"])
    layers.update({k: v for k, v in t["counts"].items() if k != "mp5.offered"})
    # A harness step's metric is its whole call; run_all's own remainder
    # (rendering, the observed run, writing) is harness.observe.
    for name in ("table1", "micro", "fig7", "fig8"):
        layers[f"harness.{name}_s"] = t["inclusive"].get(f"harness.{name}", 0.0)
    layers["harness.observe_s"] = t["layers"].get("harness.observe", 0.0)
    results = t["results"]
    fig7 = [p["mp5_throughput"] for f in ("fig7a", "fig7b", "fig7c", "fig7d") for p in results[f]]
    fig8 = [p["throughput"] for pts in results["fig8"].values() for p in pts]
    layers.update(
        {
            "mp5.sim_throughput": sum(fig7 + fig8) / len(fig7 + fig8),
            "mp5.fast_s": t["layers"].get("mp5.fast", 0.0),
            "obs.events": t["results"]["observability"]["events"],
            "workloads.gen_s": t["layers"].get("workloads.gen", 0.0),
            "banzai.run_s": t["layers"].get("banzai.run", 0.0),
        }
    )
    layers.update(_coverage(plain, spans))
    _save_spans("reproduce", seed, t)
    return _verdict(plain + spans, layers, t["covered"])


# ----------------------------------------------------------------------
# served_replay
# ----------------------------------------------------------------------


def served_replay(seed: int, seconds: float, traced: bool, size: Dict, delay) -> Dict:
    import served

    result = served.run(seed, seconds, traced, size["served_packets"], delay)
    metrics = result["layers"] if traced else result["metrics"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "problems": result["problems"],
        "covered": result.get("covered"),
    }


# ----------------------------------------------------------------------
# Shared
# ----------------------------------------------------------------------


def _pairs(seconds: float, sample) -> tuple:
    """A traced run: alternate untraced and traced fresh-process samples
    for ``seconds`` (one pair at least)."""
    pairs = repeat_for(seconds, 1, lambda i: (sample(i, False), sample(i, True)))
    return [p[0] for p in pairs], [p[1] for p in pairs]


def _coverage(plain: List[Dict], traced: List[Dict]) -> Dict[str, float]:
    """How much of the traced end-to-end time the layers account for,
    and what tracing cost against the untraced samples."""
    t = traced[-1]
    covered = t["covered"]
    total = sum(covered.values())
    return {
        "trace.other_s": covered.get("other", 0.0),
        "trace.layer_cover_frac": 1 - covered.get("other", 0.0) / total,
        "trace.overhead_frac": median(s["run_s"] for s in traced)
        / median(s["run_s"] for s in plain)
        - 1,
    }


def _save_spans(workload: str, seed: int, sample: Dict) -> None:
    path = out_dir() / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps(sample.pop("spans")))


def _verdict(samples: List[Dict], metrics: Dict, covered: Optional[Dict] = None) -> Dict:
    problems = [p for s in samples for p in s.get("problems", [])]
    failed = sum(1 for s in samples if not s.get("correct", False))
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "covered": covered,
    }


def _report(workload: str, traced: bool, result: Dict, declared: List[Dict]) -> Dict:
    """Print the human-readable report and build the final JSON line."""
    metrics = {}
    for spec in declared:
        value = result["metrics"].get(spec["name"], 0.0)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    print(f"workload {workload}  trace {int(traced)}  host {json.dumps(benchlib.host_facts())}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
    if traced:
        covered = result["covered"]
        total = sum(covered.values())
        print(f"  self time by layer in the traced end-to-end run ({total:.4f} s):")
        for name, secs in sorted(covered.items(), key=lambda kv: -kv[1]):
            label = "other (no layer)" if name == "other" else name
            print(f"    layer {label:24s} {secs:10.4f} s {100 * secs / total:6.1f}%")
        print(
            f"  layers cover {100 * metrics['trace.layer_cover_frac']['value']:.1f}% "
            f"of it; tracing overhead "
            f"{100 * metrics['trace.overhead_frac']['value']:+.1f}% against untraced"
        )
    for problem in result.get("problems", []):
        print(f"  CHECK FAILED: {problem}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full", help=argparse.SUPPRESS)
    p.add_argument("--delay", default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    # A terminated run still stops the daemon and samples it started: the
    # exit unwinds through their cleanup.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    bench = benchlib.ROOT / "BENCHMARK.json"
    if not benchlib.program_present() or not bench.is_file():
        print(
            f"perfbench: no program sources under {benchlib.SRC} or no {bench.name}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(benchlib.SRC))
    spec = json.loads(bench.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    runner = {
        "offline_stream": offline_stream,
        "served_replay": served_replay,
        "reproduce": reproduce,
    }[args.workload]
    try:
        result = runner(args.seed, args.seconds, bool(args.trace), SIZES[args.size], args.delay)
    except BenchError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 2
    line = _report(args.workload, bool(args.trace), result, declared)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": benchlib.host_facts(),
        **line,
    }
    (out_dir() / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

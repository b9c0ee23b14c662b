"""The benchmark attributes a slowdown to the layer that caused it.

For one layer per workload, the test slows that layer's public function
down from the benchmark side (``run.py --delay LAYER:SECONDS``, which
wraps the function with a sleep; nothing under ``src/`` changes) and
checks that the layer's per-layer metric and the end-to-end metric it
should move both move, and that the traced report names the layer as
the largest one. Small inputs keep it to about a minute:

    python3 -m pytest perfbench/test_layers.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def bench(workload: str, trace: int, delay: str = None):
    cmd = [
        sys.executable,
        str(ROOT / "perfbench" / "run.py"),
        "--workload", workload,
        "--seed", "3",
        "--seconds", "0",
        "--trace", str(trace),
        "--size", "small",
    ]
    if delay:
        cmd += ["--delay", delay]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    layer_lines = [ln.split()[1] for ln in lines if ln.strip().startswith("layer ")]
    return metrics, layer_lines


CASES = [
    # workload, delayed layer, per-layer metric, end-to-end metric and the
    # direction it must move, delay per call, calls the delay hits. Each
    # delay is several times the layer's own time per call, so the result
    # does not depend on the host's speed.
    ("offline_stream", "mp5.feed", "mp5.feed_s", "pps", -1, 0.01, 79),
    ("served_replay", "service.ingest", "service.ingest_s", "ingest_p50_ms", +1, 0.02, 32),
    ("reproduce", "harness.fig7", "harness.fig7_s", "run_s", +1, 1.0, 4),
]


@pytest.mark.parametrize("workload,layer,layer_metric,e2e,direction,pause,calls", CASES)
def test_delay_moves_layer_and_end_to_end(
    workload, layer, layer_metric, e2e, direction, pause, calls
):
    delay = f"{layer}:{pause}"
    base, _ = bench(workload, 0)
    slow, _ = bench(workload, 0, delay)
    assert (slow[e2e] - base[e2e]) * direction > 0, (e2e, base[e2e], slow[e2e])
    if e2e == "pps":
        assert slow[e2e] < 0.8 * base[e2e]

    base_layers, _ = bench(workload, 1)
    slow_layers, named = bench(workload, 1, delay)
    added = slow_layers[layer_metric] - base_layers[layer_metric]
    # Most of the injected pause shows up in the layer. Not all of it on
    # served_replay: a slower closed-loop client leaves the daemon idle
    # between requests, so each round trip itself gets shorter.
    assert added >= 0.5 * pause * calls, (layer_metric, added)
    assert named[0] == layer, named

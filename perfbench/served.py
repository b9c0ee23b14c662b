"""The ``served_replay`` workload: ``repro serve flowlet --engine vector``
as its own process with its default settings, driven by one closed-loop
client in this process.

The client sends the flowlet application's trace as NDJSON chunks
through ``ServiceClient.ingest_ndjson`` — the next chunk only after the
previous reply, backing off on 429 — and closes each segment with
``/drain``. Every segment replays the same records, so one oracle
(the same records through ``run_mp5_vector`` offline) checks them all.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional

from benchlib import (
    ROOT,
    BenchError,
    Tracer,
    child_env,
    engine_layers,
    install_delay,
    median,
    out_dir,
    peak_rss_mb,
    percentile,
    pin,
    quickest_cpu,
    repeat_for,
    run_child,
    step_best,
    steps_of,
)

CHUNK = 128  # packets per /ingest request
SETUP_SPAWNS = 5  # daemons started per run; setup_s is their median
MIN_SEGMENTS = 5  # per untraced run, at least; timings are per-step bests over them
HEALTH_PINGS = 20  # GET /health round trips for service.health_rtt_ms
BACKOFF_S = 0.005  # client pause after a 429


def make_inputs(seed: int, packets: int) -> Dict:
    """Records and the oracle rendering, outside any timed region."""
    from repro.apps import get_application
    from repro.compiler import compile_program
    from repro.mp5 import MP5Config
    from repro.mp5.vector import run_mp5_vector
    from repro.service.daemon import packet_from_json, render_payload, segment_payload

    t0 = time.perf_counter()
    trace = get_application("flowlet").workload(packets, 4, seed=seed)
    records = []
    for p in trace:
        rec = {"arrival": p.arrival, "port": p.port, "headers": p.headers, "size": p.size_bytes}
        if p.flow_id is not None:
            rec["flow"] = p.flow_id
        records.append(rec)
    # What the daemon parses is the JSON text, so the oracle starts there.
    records = json.loads(json.dumps(records))
    gen_s = time.perf_counter() - t0
    stats, registers = run_mp5_vector(
        compile_program("flowlet"),
        [packet_from_json(r, i) for i, r in enumerate(records)],
        MP5Config(num_pipelines=4, seed=0),
    )
    return {
        "records": records,
        "chunks": [records[i : i + CHUNK] for i in range(0, len(records), CHUNK)],
        "oracle": render_payload(segment_payload(stats, registers)),
        "gen_s": gen_s,
    }


class Daemon:
    """One ``repro serve`` process; ``setup_s`` runs from spawn until
    ``GET /health`` answers."""

    def __init__(self, tag: str):
        from repro.service.client import ServiceClient, ServiceClientError

        self.log = out_dir() / f"{tag}.log"
        spawn = time.perf_counter()
        with self.log.open("w") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve", "flowlet",
                    "--engine", "vector", "--port", "0",
                ],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=child_env(),
                cwd=str(ROOT),
            )
        try:
            port = self._wait_port(deadline=time.monotonic() + 60)
            self.client = ServiceClient("127.0.0.1", port, timeout=120.0)
            while True:
                try:
                    self.client.health()
                    break
                except (ServiceClientError, OSError):
                    if self.proc.poll() is not None or time.perf_counter() - spawn > 60:
                        raise BenchError("daemon never answered /health")
                    time.sleep(0.002)
            self.setup_s = time.perf_counter() - spawn
        except BaseException:
            self.stop()
            raise

    def _wait_port(self, deadline: float) -> int:
        while time.monotonic() < deadline:
            for line in self.log.read_text().splitlines():
                if line.startswith("serving MP5 on http://"):
                    return int(line.split()[3].rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                raise BenchError(f"daemon exited {self.proc.returncode} before listening")
            time.sleep(0.002)
        raise BenchError("daemon did not start listening")

    def stop(self) -> None:
        """Shut the daemon down and wait until it has exited."""
        if self.proc.poll() is None:
            try:
                self.client.shutdown()
            except Exception:  # noqa: BLE001  (a dead or wedged daemon is killed below)
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)


def _segment(client, chunks: List, tracer: Optional[Tracer]) -> Dict:
    """One segment: every chunk through /ingest, then /drain. Its steps
    are, per chunk, the chunk's ingest (first send to accepted reply,
    429 retries included) and the pause before the next send, then the
    drain."""
    from repro.service.client import ServiceClientError

    now = time.perf_counter
    marks, requests, depth, refused = [], 0, 0, 0
    backlog = None
    for part in chunks:
        marks.append(now())
        while True:
            requests += 1
            try:
                reply = client.ingest_ndjson(part)
            except ServiceClientError as exc:
                if exc.status != 429:
                    raise
                refused += 1
                time.sleep(BACKOFF_S)
                continue
            marks.append(now())
            depth = max(depth, reply["queue_depth"])
            break
    if tracer is not None:
        # Packets sent but not yet egressed when the drain is asked for.
        seg = client.status()["segment"]
        backlog = sum(len(p) for p in chunks) - (seg["egressed"] if seg else 0)
    marks.append(now())
    record = client.drain()["closed_segment"]
    marks.append(now())
    return {
        "wall_s": marks[-1] - marks[0],
        "steps_s": steps_of(marks),
        "requests": requests + 1,
        "refused": refused,
        "queue_depth_max": depth,
        "backlog": backlog,
        "record": record,
    }


def _traced_segment(client, chunks, tracer: Tracer, index: int) -> Dict:
    from repro.service.client import ServiceClient

    tracer.segment = index
    tracer.wrap(ServiceClient.ingest_ndjson, "service.ingest", request=True)
    tracer.wrap(ServiceClient.status, "service.status", request=True)
    tracer.wrap(ServiceClient.drain, "service.drain", request=True)
    try:
        with tracer.span("segment", "other") as root:
            seg = _segment(client, chunks, tracer)
    finally:
        tracer.unwrap()
    seg["covered"] = tracer.self_times(root["id"])
    seg["root_s"] = root["end"] - root["start"]
    return seg


def run(seed: int, seconds: float, traced: bool, packets: int, delay: Optional[str]) -> Dict:
    install_delay(delay)
    inputs = make_inputs(seed, packets)
    chunks = inputs["chunks"]
    cpus = os.sched_getaffinity(0)
    spawns = []
    daemon = None
    try:
        for i in range(SETUP_SPAWNS if not traced else 1):
            if daemon is not None:
                daemon.stop()
            daemon = Daemon(f"daemon-{seed}-{i}")
            spawns.append(daemon.setup_s)
        client = daemon.client
        health_ms = None
        if traced:
            pings = []
            for _ in range(HEALTH_PINGS):
                t0 = time.perf_counter()
                client.health()
                pings.append((time.perf_counter() - t0) * 1e3)
            health_ms = median(pings)
        tracer = Tracer() if traced else None

        def segment(i: int) -> Dict:
            # The daemon runs on the CPU that is quickest now and this
            # client on the others (see benchlib.quickest_cpu). A traced
            # run alternates untraced and traced segments, so the
            # tracing overhead is measured on the same daemon.
            cpu = quickest_cpu(cpus)
            if cpu is not None:
                pin(daemon.proc.pid, {cpu})
                os.sched_setaffinity(0, set(cpus) - {cpu})
            if traced and i % 2:
                return _traced_segment(client, chunks, tracer, i)
            return _segment(client, chunks, None)

        segments = repeat_for(seconds, 4 if traced else MIN_SEGMENTS, segment)
        problems = []
        for i, seg in enumerate(segments):
            rec = seg["record"]
            if not rec["drained"] or rec["offered"] != packets or rec["dropped"]:
                problems.append(f"segment {i} not drained: {rec}")
            elif rec["engine"] != "vector":
                # The daemon falls back to the fast engine silently on some
                # configurations; its results would still match.
                problems.append(f"segment {i} ran on the {rec['engine']} engine")
            elif client.segment_results(rec["index"]) != inputs["oracle"]:
                problems.append(f"segment {i} results differ from the offline run")
        rss_mb = peak_rss_mb(daemon.proc.pid)
    finally:
        os.sched_setaffinity(0, cpus)
        if daemon is not None:
            daemon.stop()

    plain = [s for i, s in enumerate(segments) if not (traced and i % 2)]
    # Each step's best over the segments (see benchlib.step_best).
    bests = step_best([s["steps_s"] for s in plain])
    ingest = bests[0:-1:2]
    result = {
        "correct": not problems,
        "problems": problems,
        "attempted": sum(s["requests"] for s in segments),
        "failed": sum(s["refused"] for s in segments) + len(problems),
        "metrics": {
            "setup_s": median(spawns),
            "pps": packets / sum(bests),
            "run_s": sum(bests),
            "ingest_p50_ms": percentile(ingest, 50) * 1e3,
            "ingest_p90_ms": percentile(ingest, 90) * 1e3,
            "drain_ms": bests[-1] * 1e3,
            "rss_mb": rss_mb,
        },
    }
    if traced:
        result["layers"] = _layers(segments, inputs, health_ms, seed)
        result["covered"] = [s for i, s in enumerate(segments) if i % 2][-1]["covered"]
        tracer.save(out_dir() / f"spans-served_replay-seed{seed}.json")
    return result


def _layers(segments, inputs, health_ms, seed) -> Dict[str, float]:
    """Per-layer metrics of a traced run. The daemon's own layers sit in
    another process, so its engine, packet build and ``obs`` work are
    measured on the same records offline, in a fresh process."""
    spec = out_dir() / f"served-records-{seed}.json"
    spec.write_text(json.dumps({"records": inputs["records"], "chunk": CHUNK}))
    replica = run_child("replica", ["--inputs", str(spec)], f"replica-{seed}")
    spec.unlink()
    spans = out_dir() / f"spans-served_replay-replica-seed{seed}.json"
    spans.write_text(json.dumps(replica["spans"]))
    plain = [s for i, s in enumerate(segments) if not i % 2]
    traced = [s for i, s in enumerate(segments) if i % 2]
    plain_wall = median(s["wall_s"] for s in plain)
    traced_wall = median(s["wall_s"] for s in traced)
    layers = {
        **engine_layers(replica["layers"], replica["offered"]),
        **replica["counts"],
        "service.health_rtt_ms": health_ms,
        "service.packet_build_s": replica["packet_build_s"],
        "service.ingest_s": median(s["covered"].get("service.ingest", 0.0) for s in traced),
        "service.drain_s": median(s["covered"].get("service.drain", 0.0) for s in traced),
        "service.queue_depth_max": max(s["queue_depth_max"] for s in segments),
        "service.retries_429": sum(s["refused"] for s in segments),
        "service.backlog_at_drain": median(s["backlog"] for s in traced),
        "service.engine_share": replica["engine_s"] / plain_wall,
        "workloads.gen_s": inputs["gen_s"],
        "trace.other_s": median(s["covered"].get("other", 0.0) for s in traced),
        "trace.layer_cover_frac": median(
            1 - s["covered"].get("other", 0.0) / s["root_s"] for s in traced
        ),
        "trace.overhead_frac": traced_wall / plain_wall - 1,
    }
    return layers

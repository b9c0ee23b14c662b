"""Shared plumbing for the benchmark: paths, host facts, the input cache,
fresh-process samples, summary statistics, an in-memory span tracer and
the delay injector the layer tests use.

Nothing here imports ``repro`` at module level: ``run.py`` first checks
that the checkout holds the program's sources and only then puts
``src/`` on the path.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Everything the benchmark writes stays inside the checkout, in these two
# ignored directories: per-seed inputs and oracles, and per-run outputs.
CACHE = ROOT / ".bench_cache"
OUT = ROOT / ".bench_out"

# How long a single sample may run before the benchmark gives up on it.
SAMPLE_TIMEOUT_S = 150.0


class BenchError(Exception):
    """A benchmark step failed; the message is the one-line diagnostic."""


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # Children report through files; keep their stdout unbuffered so a
    # daemon's readiness line arrives as soon as it is printed.
    env["PYTHONUNBUFFERED"] = "1"
    return env


def host_facts() -> Dict[str, object]:
    """Facts every result is recorded with."""
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


def source_key() -> str:
    """Digest of the program and benchmark sources: cached inputs and
    oracles are reused only while neither has changed."""
    digest = hashlib.sha1()
    files = sorted(SRC.joinpath("repro").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cache_dir() -> Path:
    path = CACHE / source_key()
    path.mkdir(parents=True, exist_ok=True)
    return path


def out_dir() -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    return OUT


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    status = Path(f"/proc/{pid or 'self'}/status")
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM in {status}")


# ----------------------------------------------------------------------
# Fresh-process samples
# ----------------------------------------------------------------------


def quickest_cpu(cpus: Optional[Iterable[int]] = None) -> Optional[int]:
    """The CPU, of ``cpus`` (default: those this process may use), that
    runs a short probe loop fastest now (best of two per CPU); None when
    there is only one.

    The other tenants of the host slow its CPUs one at a time (a probe
    pinned to each CPU in turn is 1.3-2x slower on one than the other,
    with little correlation between them), so a single-threaded sample
    pinned to the quicker CPU is disturbed less than one left wherever
    the scheduler puts it."""
    own = os.sched_getaffinity(0)
    cpus = sorted(own if cpus is None else cpus)
    if len(cpus) < 2:
        return None
    best = {cpu: float("inf") for cpu in cpus}
    try:
        for _ in range(2):
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                t0 = time.perf_counter()
                total = 0
                for i in range(20_000):
                    total += i & 7
                best[cpu] = min(best[cpu], time.perf_counter() - t0)
    finally:
        os.sched_setaffinity(0, own)
    return min(cpus, key=best.get)


def pin(pid: int, cpus: Iterable[int]) -> None:
    """Pin every thread of process ``pid`` to ``cpus``; threads it
    starts later inherit the set."""
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), set(cpus))
        except ProcessLookupError:  # the thread has ended meanwhile
            pass


def run_child(mode: str, args: Sequence[str], tag: str) -> Dict:
    """Run ``child.py <mode> ...`` in a fresh interpreter, pinned to the
    quickest CPU, and return the JSON it wrote."""
    return run_children([(mode, args, tag)], pin=True)[0]


def run_children(jobs: Sequence[tuple], pin: bool = False) -> List[Dict]:
    """Run ``child.py <mode> ...`` once per ``(mode, args, tag)`` job, all
    at once, each in a fresh interpreter; return the JSON each wrote. The
    spawn time travels on the command line so a child can measure set-up
    from process creation (``time.monotonic`` is the system-wide
    monotonic clock on Linux). With ``pin``, each child runs on the CPU
    :func:`quickest_cpu` picks just before it starts. Every child has
    ended when this returns."""
    started = []
    try:
        for mode, args, tag in jobs:
            result = out_dir() / f"{tag}.json"
            log = out_dir() / f"{tag}.log"
            if result.exists():
                result.unlink()
            cmd = [sys.executable, str(HERE / "child.py"), mode, "--out", str(result), *args]
            cpu = quickest_cpu() if pin else None
            with log.open("w") as fh:
                proc = subprocess.Popen(
                    cmd + ["--spawn", repr(time.monotonic())],
                    env=child_env(),
                    cwd=str(ROOT),
                    stdout=fh,
                    stderr=subprocess.STDOUT,
                    preexec_fn=None if cpu is None else lambda: os.sched_setaffinity(0, {cpu}),
                )
            started.append((mode, proc, result, log))
        deadline = time.monotonic() + SAMPLE_TIMEOUT_S
        results = []
        for mode, proc, result, log in started:
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise BenchError(f"{mode} sample timed out after {SAMPLE_TIMEOUT_S}s")
            if proc.returncode != 0 or not result.exists():
                tail = log.read_text().strip().splitlines()[-1:] or ["?"]
                raise BenchError(f"{mode} sample exited {proc.returncode}: {tail[0]}")
            results.append(json.loads(result.read_text()))
        return results
    finally:
        for _mode, proc, _result, _log in started:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def repeat_for(seconds: float, minimum: int, step: Callable[[int], Dict]) -> List[Dict]:
    """Call ``step(i)`` until ``seconds`` have passed and at least
    ``minimum`` calls were made."""
    results = []
    start = time.monotonic()
    while len(results) < minimum or time.monotonic() - start < seconds:
        results.append(step(len(results)))
    return results


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (1..99), by ``statistics.quantiles``'
    inclusive method, which never reaches past the largest value."""
    values = list(values)
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[pct - 1])


def step_best(repeats: Sequence[Sequence[float]]) -> List[float]:
    """Each step's best (lowest) time over repeats of the same steps.

    The host switches between a fast state and one about 1.7x slower
    every 0.1-2 s (another tenant on the same core), so the time of a
    whole sample, and a median over samples, land wherever the mix of
    the two states falls in that run. A run therefore repeats the same
    work (one trace, one segment, one ``run_all`` call) and times it
    step by step, where a step is a call that takes milliseconds to a
    second. A step's best over the repeats is its time on an undisturbed
    host, and a slower program still slows it. Totals are sums of step
    bests, and latency percentiles are taken over step bests."""
    lengths = sorted({len(r) for r in repeats})
    if len(lengths) != 1:
        raise BenchError(f"repeats of the same work ran {lengths} steps")
    return [min(column) for column in zip(*repeats)]


def steps_of(marks: Sequence[float]) -> List[float]:
    """Step times from the times at which consecutive steps start and,
    last, the time the final step ends."""
    return [b - a for a, b in zip(marks, marks[1:])]


def engine_layers(layers: Dict[str, float], offered: int) -> Dict[str, float]:
    """The compile, engine and ``obs`` per-layer metrics from the self
    times of a traced engine run that offered ``offered`` packets."""
    engine = sum(layers.get(k, 0.0) for k in ("mp5.start", "mp5.feed", "mp5.pump", "mp5.finish"))
    return {
        "compiler.compile_s": layers.get("compiler.compile", 0.0),
        "compiler.switch_build_s": layers.get("compiler.switch_build", 0.0),
        "mp5.feed_s": layers.get("mp5.feed", 0.0),
        "mp5.pump_s": layers.get("mp5.pump", 0.0),
        "mp5.finish_s": layers.get("mp5.finish", 0.0),
        "mp5.ns_per_pkt": engine / offered * 1e9 if offered else 0.0,
        "obs.reconstruct_s": layers.get("obs.reconstruct", 0.0),
    }


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class Tracer:
    """In-memory span recorder for one thread of nested calls.

    A span records its name, layer, start, end and parent span, plus the
    request and segment it belongs to. Spans are kept in memory and
    written out by :meth:`save` when the run ends.
    """

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        self.segment: Optional[int] = None
        self._requests = 0

    @contextlib.contextmanager
    def span(self, name: str, layer: str, request: bool = False):
        rec = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "parent": self._stack[-1] if self._stack else None,
            "segment": self.segment,
            "request": None,
            "start": time.perf_counter(),
            "end": None,
        }
        if request:
            rec["request"] = self._requests
            self._requests += 1
        elif self._stack:
            rec["request"] = self.spans[self._stack[-1]]["request"]
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(
        self,
        func: Callable,
        layer: str,
        request: bool = False,
        on_result: Optional[Callable] = None,
    ) -> None:
        """Record a span around every call of ``func``, wherever the
        program's modules refer to it (see :func:`patch_everywhere`)."""
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(func.__qualname__, layer, request=request):
                result = func(*args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = func
        self._patches.extend(patch_everywhere(func, traced))

    def unwrap(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self, root: Optional[int] = None) -> Dict[str, float]:
        """Self time per layer (a span's duration minus the part its
        child spans cover) over the spans under ``root``, or over every
        span. The root's own self time is reported as ``other``."""
        children: Dict[int, List[Dict]] = {}
        for rec in self.spans:
            if rec["parent"] is not None:
                children.setdefault(rec["parent"], []).append(rec)
        totals: Dict[str, float] = {}
        if root is None:
            todo = [rec for rec in self.spans if rec["parent"] is None]
        else:
            todo = [self.spans[root]]
        while todo:
            rec = todo.pop()
            kids = children.get(rec["id"], [])
            own = (rec["end"] - rec["start"]) - sum(
                k["end"] - k["start"] for k in kids
            )
            layer = "other" if rec["id"] == root else rec["layer"]
            totals[layer] = totals.get(layer, 0.0) + own
            todo.extend(kids)
        return totals

    def inclusive_times(self) -> Dict[str, float]:
        """Wall time per layer, counting each span not nested in another
        span of the same layer."""
        totals: Dict[str, float] = {}
        for rec in self.spans:
            parent = rec["parent"]
            while parent is not None and self.spans[parent]["layer"] != rec["layer"]:
                parent = self.spans[parent]["parent"]
            if parent is None:
                totals[rec["layer"]] = totals.get(rec["layer"], 0.0) + (
                    rec["end"] - rec["start"]
                )
        return totals

    def save(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


def patch_everywhere(func: Callable, replacement: Callable) -> List[tuple]:
    """Replace ``func`` by ``replacement`` in every loaded ``repro``
    module and class that refers to it, so a call made through any
    import path goes through the replacement. Returns the undo list."""
    patches = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is func:
                patches.append((module, attr, func))
                setattr(module, attr, replacement)
            elif isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is func:
                        patches.append((value, cattr, func))
                        setattr(value, cattr, replacement)
    if not patches:
        raise BenchError(f"{func.__qualname__} is not referenced by any module")
    return patches


# ----------------------------------------------------------------------
# Delay injection (the layer tests)
# ----------------------------------------------------------------------


def delay_targets() -> Dict[str, List[Callable]]:
    """The public functions a test may slow down, by layer name."""
    from repro.harness import sensitivity
    from repro.mp5.vector import VectorSwitch
    from repro.service.client import ServiceClient

    return {
        "mp5.feed": [VectorSwitch.feed],
        "service.ingest": [ServiceClient.ingest_ndjson],
        "harness.fig7": [
            sensitivity.sweep_pipelines,
            sensitivity.sweep_stateful_stages,
            sensitivity.sweep_register_size,
            sensitivity.sweep_packet_size,
        ],
    }


def install_delay(spec: Optional[str]) -> None:
    """``LAYER:SECONDS`` — sleep that long before each call of the
    layer's public function(s)."""
    if not spec:
        return
    layer, _, seconds = spec.partition(":")
    targets = delay_targets()
    if layer not in targets:
        raise BenchError(f"unknown delay layer {layer!r}; one of {sorted(targets)}")
    pause = float(seconds)
    for func in targets[layer]:

        def delayed(*args, _func=func, **kwargs):
            time.sleep(pause)
            return _func(*args, **kwargs)

        patch_everywhere(func, delayed)

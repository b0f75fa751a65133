"""Measurement helpers of the benchmark: host probe, normalisation, layer timers.

Nothing here imports the program under test, so the helpers can run (and be
tested) before ``repro`` is on the path.  Importing this module sets no
environment variable and starts no thread; ``run.py`` pins the BLAS thread
count before numpy is imported.

Host normalisation
------------------
The benchmark host is a shared VM whose speed drifts by tens of percent over
seconds.  Every timed operation is therefore bracketed by a fixed,
program-independent calibration probe run while the program is idle, and
reported in *reference-host seconds*::

    normalised = raw * REFERENCE_PROBE_S / mean(probe_before, probe_after)

The probe is mostly short NumPy calls on small vectors plus an interpreter
loop, because that dispatch-bound mix is what the program's hot loops (LIF
steps, plasticity updates, per-round cut evaluation) are made of, and it is
the part of this host's speed that drifts most.  Streaming passes and BLAS
products barely drift here, so giving them weight in the probe made the
normalised times of the plasticity-bound workload spread more, not less.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import threading
import time
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Probe time of the reference host, in seconds: the one constant that turns
#: probe-normalised times into reference-host seconds.
REFERENCE_PROBE_S = 0.010

#: Samples a tail percentile needs beyond it before it is reported.
TAIL_SAMPLES_BEYOND = 10

#: Back-to-back probe runs of one calibration.
CALIBRATION_PROBES = 15

#: Probe runs per CPU when choosing the CPU to pin to.
PROBES_PER_CPU = 5

_PROBE_VECTOR = np.linspace(-1.0, 1.0, 100)
_PROBE_MATRIX = np.linspace(-1.0, 1.0, 100 * 8).reshape(8, 100)


def probe() -> float:
    """Run the fixed calibration unit once; return its wall time in seconds."""
    start = time.perf_counter()
    acc = 0
    for i in range(30000):
        acc += i * i % 7
    w = _PROBE_VECTOR.copy()
    for _ in range(650):
        x = _PROBE_MATRIX[_ % 8]
        rms = float(np.sqrt(np.mean(x * x)))
        y = float(w @ (x / rms))
        w = w - 0.01 * y * (x - y * w)
        w /= float(np.linalg.norm(w))
        np.where(w > 0.0, 1, -1).astype(np.int8)
    return time.perf_counter() - start


def calibrate() -> List[float]:
    """Probe times of ``CALIBRATION_PROBES`` back-to-back probe runs."""
    return [probe() for _ in range(CALIBRATION_PROBES)]


def pin_to_fastest_cpu() -> Tuple[Optional[int], Dict[int, float]]:
    """Pin this process to the allowed CPU with the fastest probe right now.

    On a shared VM one virtual CPU can run at half the speed of the other
    while a neighbour loads its sibling hyperthread.  An unpinned process
    migrates between them, so an operation and the probes bracketing it can
    run on different CPUs and the normalisation misses.  Pinning keeps
    operation and probes on one CPU; choosing the fastest one avoids a
    known-slow CPU.  Returns the chosen CPU (None where affinity cannot be
    set) and each candidate's median probe time.
    """
    try:
        allowed = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return None, {}
    speeds: Dict[int, float] = {}
    for cpu in allowed:
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:
            continue
        probe()  # the first run after a move pays for cold caches
        speeds[cpu] = statistics.median(probe() for _ in range(PROBES_PER_CPU))
    if not speeds:
        return None, {}
    best = min(speeds, key=speeds.get)
    os.sched_setaffinity(0, {best})
    return best, speeds


def normalise(raw_s: float, probe_before_s: float, probe_after_s: float) -> float:
    """Express *raw_s* in reference-host seconds using its bracketing probes."""
    host = 0.5 * (probe_before_s + probe_after_s)
    if not host > 0.0:
        raise ValueError(f"probe times must be positive, got {probe_before_s}, {probe_after_s}")
    return raw_s * REFERENCE_PROBE_S / host


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2 values)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def nearest_rank(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the ``ceil(fraction * n)``-th smallest value."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def tail_samples(fraction: float) -> int:
    """Fewest samples whose nearest-rank *fraction* percentile has
    ``TAIL_SAMPLES_BEYOND`` samples beyond it; any larger sample has as many.

    A workload that completes at least this many operations can report that
    one percentile on every run, however fast the program or the host is.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must lie in (0, 1), got {fraction}")
    n = TAIL_SAMPLES_BEYOND
    while n - math.ceil(fraction * n) < TAIL_SAMPLES_BEYOND:
        n += 1
    return n


class LayerStats:
    """Thread-safe per-layer busy time and counts, with self time.

    Busy time is *inclusive* (a layer's calls, including layers they call);
    self time subtracts the time covered by nested layer calls on the same
    thread.  A layer re-entered on one thread (a wrapped call calling another
    wrapped call of the same layer) counts only the outermost call.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self.busy: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str) -> Optional[list]:
        """Start one call of *layer*; returns None for a nested same-layer call.

        A nested call is not recounted: pass the returned frame to
        :meth:`exit` only when it is not None.
        """
        stack = self._stack()
        for frame in stack:
            if frame[0] == layer:
                return None
        frame = [layer, 0.0, self.clock()]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        """Finish the call started by :meth:`enter`."""
        elapsed = self.clock() - frame[2]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][1] += elapsed
        layer = frame[0]
        with self._lock:
            self.busy[layer] = self.busy.get(layer, 0.0) + elapsed
            self.self_time[layer] = self.self_time.get(layer, 0.0) + elapsed - frame[1]
            self.calls[layer] = self.calls.get(layer, 0) + 1

    def add(self, name: str, amount: float) -> None:
        """Add *amount* to the counter *name*."""
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + amount

    def add_time(self, layer: str, elapsed: float) -> None:
        """Fold *elapsed* seconds into *layer* as one leaf call."""
        stack = self._stack()
        if stack:
            stack[-1][1] += elapsed
        with self._lock:
            self.busy[layer] = self.busy.get(layer, 0.0) + elapsed
            self.self_time[layer] = self.self_time.get(layer, 0.0) + elapsed
            self.calls[layer] = self.calls.get(layer, 0) + 1


def timed_iter(iterator: Iterable, stats: LayerStats, layer: str) -> Iterator:
    """Yield from *iterator*, charging only the time spent inside its ``next()``.

    Time the consumer spends between items is not charged, so wrapping a
    generator measures the work the generator does, not its caller's loop
    body.
    """
    it = iter(iterator)
    while True:
        start = stats.clock()
        try:
            item = next(it)
        except StopIteration:
            stats.add_time(layer, stats.clock() - start)
            return
        stats.add_time(layer, stats.clock() - start)
        yield item


def resolve(module_name: str, attr_path: str) -> Tuple[Optional[object], Optional[str], object]:
    """Find ``module.attr.path``; return ``(owner, attribute, value)`` or Nones."""
    import importlib

    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None, None
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    value = getattr(owner, parts[-1], None)
    if value is None:
        return None, None, None
    return owner, parts[-1], value


class Patcher:
    """Install wrappers on program attributes and restore them afterwards.

    A target that does not exist (a function a later change deleted) is
    recorded in :attr:`missing` instead of raising, so its metrics can be
    reported as absent.
    """

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    def wrap(self, module_name: str, attr_path: str,
             make_wrapper: Callable[[Callable], Callable]) -> bool:
        owner, name, original = resolve(module_name, attr_path)
        if owner is None:
            self.missing.append(f"{module_name}.{attr_path}")
            return False
        self._saved.append((owner, name, original))
        setattr(owner, name, functools.wraps(original)(make_wrapper(original)))
        return True

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def span_wrapper(stats: LayerStats, layer: str,
                 after: Optional[Callable[[LayerStats, tuple, object], None]] = None):
    """Wrapper factory: time every call of the wrapped callable as *layer*.

    *after*, when given, is called with ``(stats, args, result)`` once the
    call returns, to record counts taken from arguments or results.
    """

    def make(original):
        def wrapper(*args, **kwargs):
            frame = stats.enter(layer)
            if frame is None:
                return original(*args, **kwargs)
            try:
                result = original(*args, **kwargs)
            finally:
                stats.exit(frame)
            if after is not None:
                after(stats, args, result)
            return result

        return wrapper

    return make


def iterator_wrapper(stats: LayerStats, layer: str):
    """Wrapper factory for generator methods: charge time inside ``next()``."""

    def make(original):
        def wrapper(*args, **kwargs):
            return timed_iter(original(*args, **kwargs), stats, layer)

        return wrapper

    return make


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (``ru_maxrss``)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

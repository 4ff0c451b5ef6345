"""CPU-speed calibration: a fixed loop timed alongside the requests.

The speed of a core on the machine of record swings by up to 2x within
seconds and drifts over minutes, because the host shares it, so raw wall
times of two runs of one program can differ by a third.  A run therefore
times this loop, which does the kind of work a request does (JSON text,
dicts, lists, sets, sorting) and never calls ``ctrldep``, every
``INTERVAL_S`` between requests, and scales every request time it reports
by ``REFERENCE_NS`` over the loop's mean time in that run: times are given
at the speed at which the loop takes ``REFERENCE_NS``.  Each set-up is
scaled by the loop timed just before and just after it on the same core.  A
change to the program changes the requests and set-up, not the loop, so it
shows in full.
"""

from __future__ import annotations

import json
import statistics
import time

# Median time of one loop on the machine of record (2-vCPU x86_64, Python 3.11.7).
REFERENCE_NS = 1_250_000
INTERVAL_S = 0.05

_DATA = [{"id": f"n{i:04d}", "succ": [(i * 7) % 301, (i * 13) % 301], "w": i / 7} for i in range(120)]


def loop_ns() -> int:
    """Wall time of one pass of the calibration loop, in ns."""
    start = time.perf_counter_ns()
    text = json.dumps(_DATA)
    data = json.loads(text)
    index = {d["id"]: i for i, d in enumerate(data)}
    seen: set[int] = set()
    pairs = []
    for d in data:
        for t in d["succ"]:
            if t not in seen:
                seen.add(t)
                pairs.append((t % 17, d["id"], index[d["id"]]))
    pairs.sort()
    counts: dict[int, int] = {}
    for i in range(1500):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter_ns() - start


class Gauge:
    """Samples of the calibration loop taken during one run."""

    def __init__(self) -> None:
        self.samples: list[int] = []
        self._next = 0.0

    def sample(self) -> None:
        self.samples.append(loop_ns())
        self._next = time.perf_counter() + INTERVAL_S

    def tick(self) -> None:
        """Sample if ``INTERVAL_S`` has passed since the last sample."""
        if time.perf_counter() >= self._next:
            self.sample()

    def scale(self) -> float:
        """Factor that turns this run's wall times into reference-speed times."""
        return REFERENCE_NS / statistics.fmean(self.samples)

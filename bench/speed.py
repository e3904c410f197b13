"""The machine's speed during each op, sampled in units of fixed work.

On a shared VM the same code runs at two or more speeds up to 1.8x apart,
switching within seconds and drifting for minutes, so an op's time alone
cannot tell a change to obscon from the machine. So an untraced run times,
in CPU time, a fixed unit of work: exact integer ray combinations (as in
double description), ``Fraction`` sums over dict lookups (evaluation), set
reachability (d-separation) and an indented ``json.dumps`` (serialization).
Units are timed in two places:

- the benchmark pins itself to one CPU and starts this module as a sampler
  on the same CPU at nice 19. The scheduler gives the sampler about 1.5% of
  that CPU, in short slices spread over every op, so a long op holds
  hundreds of its units;
- before each op the benchmark itself runs ``TICK_UNITS`` units, so a short
  op has units just before and just after it.

An op's CPU time is scaled by ``UNIT_S / (mean time of the MIN_UNITS or
more units nearest it)``: all units timed while it ran, and the nearest
ones outside it while there are fewer than ``MIN_UNITS``. That is the op's
time on a machine where the unit takes ``UNIT_S``.

The unit is plain stdlib code that no change to obscon can touch, and its
output is checked, so an edit that changes how much it does fails loudly
instead of rescaling every timing.

    python3 bench/speed.py CPU    # the sampler; run.py starts it
"""

from __future__ import annotations

import heapq
import json
import os
import random
import signal
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd

# about the unit's CPU time on the 2-vCPU VM where the benchmark was defined,
# at its faster speed
UNIT_S = 0.0005
TICK_UNITS = 40
MIN_UNITS = 40

_RNG = random.Random(11)
_RAYS = [tuple(_RNG.randint(-9, 9) for _ in range(16)) for _ in range(12)]
_ROW = tuple(_RNG.randint(-3, 3) for _ in range(16))
_TABLE = {tuple((k >> b) & 1 for b in range(4)): Fraction(k + 1, 136) for k in range(16)}
_ADJ = {v: {(v * 7 + 3) % 50, (v * 11 + 5) % 50} for v in range(50)}

EXPECTED = (23, Fraction(321, 4624), 40, 1732)


def unit():
    """One fixed unit of work; returns its (fixed) output."""
    combined = set()
    for a in _RAYS[0::2]:
        for b in _RAYS[1::3]:
            sa = sum(x * y for x, y in zip(_ROW, a))
            sb = sum(x * y for x, y in zip(_ROW, b))
            v = tuple(sa * y - sb * x for x, y in zip(a, b))
            g = 0
            for x in v:
                g = gcd(g, x)
            combined.add(tuple(x // g for x in v) if g > 1 else v)
    acc = Fraction(0)
    for key, p in _TABLE.items():
        acc += p * _TABLE[key[::-1]]
    reach = 0
    for start in range(0, 50, 5):
        seen, stack = {start}, [start]
        while stack:
            for w in _ADJ[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach += len(seen)
    doc = [{"terms": [[str(c), i] for i, c in enumerate(v[:4])], "rel": "<="}
           for v in sorted(combined)[:8]]
    return len(combined), acc, reach // 10, len(json.dumps(doc, indent=2))


class Sampler:
    """Unit timings around ops, from the sampler process and from ticks.

    A context manager: it starts the sampler process on this process's CPU,
    and on exit stops it, waits for it and merges its timings with those of
    the ticks. A timing is (end of the unit on the ``perf_counter`` clock,
    the unit's CPU seconds).
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.proc = None

    def __enter__(self):
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(cpu)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            ready = self.proc.stdout.readline().strip()
            if ready != "ready":
                raise RuntimeError(f"speed sampler did not start: {ready!r}")
        except BaseException:
            self._kill()
            raise
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            self.proc.send_signal(signal.SIGTERM)
            out, _ = self.proc.communicate(timeout=30)
        except BaseException:
            self._kill()
            raise
        if exc_type is None:
            if self.proc.returncode != 0:
                raise RuntimeError(f"speed sampler exited with {self.proc.returncode}")
            self.samples += [tuple(s) for s in json.loads(out)]
        return False

    def _kill(self):
        self.proc.kill()
        self.proc.wait()

    def tick(self) -> None:
        """Time ``TICK_UNITS`` units in this process."""
        _time_units(self.samples, TICK_UNITS)

    def scaled(self, start: float, end: float, cpu_s: float) -> float:
        """``cpu_s``, spent by an op from ``start`` to ``end``, at ``UNIT_S``."""
        inside, outside = [], []
        for t, u in self.samples:
            gap = max(start - t, t - end)
            (inside if gap <= 0 else outside).append((gap, u))
        units = inside + heapq.nsmallest(max(MIN_UNITS - len(inside), 0), outside)
        if not units:
            raise RuntimeError("no speed units were timed")
        return cpu_s * UNIT_S * len(units) / sum(u for _, u in units)

    def scale(self, timings) -> list[float]:
        """Scaled times of (start, end, CPU seconds) timings."""
        return [self.scaled(*timing) for timing in timings]


def _time_units(samples: list, n: int) -> None:
    """Append the timings of ``n`` units to ``samples``."""
    clock, cpu_clock = time.perf_counter, time.thread_time
    for _ in range(n):
        c0 = cpu_clock()
        unit()
        c1 = cpu_clock()
        samples.append((clock(), c1 - c0))


def _stop(signum, frame):
    raise SystemExit(0)


def sample(cpu: int) -> None:
    """The sampler: time units until SIGTERM, then print them as JSON.

    It stops without output if the benchmark that started it dies.
    """
    signal.signal(signal.SIGTERM, _stop)
    os.sched_setaffinity(0, {cpu})
    os.setpriority(os.PRIO_PROCESS, 0, 19)
    out = unit()
    if out != EXPECTED:
        raise RuntimeError(f"speed unit output changed: {out}")
    parent = os.getppid()
    samples = []
    try:
        print("ready", flush=True)
        while os.getppid() == parent:  # the benchmark may die without SIGTERM
            _time_units(samples, 64)
    except SystemExit:  # SIGTERM: the benchmark wants the timings
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        sys.stdout.write(json.dumps(samples))
        sys.stdout.flush()


if __name__ == "__main__":
    sample(int(sys.argv[1]))

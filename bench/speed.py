"""Machine-speed references for timing on a shared host.

On the shared 2-vCPU host this benchmark was built on, the speed of the
same loop drifts by up to 2x over tens of seconds, with no steal time
visible to the guest and CPU time tracking wall time, so a median within
one run cannot remove it.  The benchmark therefore times a fixed
reference, independent of ipas, around (and for the sweep, during) each
timed unit, and rescales the unit's rate to a machine on which the
reference takes its nominal time.  A change to ipas cannot change the
reference, so rescaled rates move with ipas and not with the host.  The
raw wall rates are printed next to the rescaled ones.

Two references, matched to what bounds each workload:

- ``cpu_probe``: small dense matrix algebra driven from Python, like the
  solver's inner loop (interpreter-bound work, set-up, the sweep).
- ``StreamProbe``: one pass of a matrix-vector product over an array as
  large as the logistic feature matrix, held by a helper process so that
  it stays out of this process's peak RSS (memory-bound work).

Probes time themselves with the thread's CPU clock, so a probe that shares
the cores with busy pool workers measures the host's speed and not its
own waiting for a core.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

CPU_NOMINAL_S = 0.025
STREAM_NOMINAL_S = 0.02
_CPU_STEPS = 3000
_SAMPLE_PERIOD_S = 1.0

_rng = np.random.default_rng(20240419)
_M = _rng.standard_normal((20, 20))
_A = _rng.standard_normal((10, 20))
_V = _rng.standard_normal(20)


def cpu_probe() -> float:
    """CPU seconds of one fixed pass of small matrix algebra."""
    t0 = time.thread_time()
    acc = 0.0
    for _ in range(_CPU_STEPS):
        y = _M @ _V
        acc += float(y @ y) + float(np.linalg.norm(_A @ y))
    dt = time.thread_time() - t0
    if not math.isfinite(acc):
        raise ArithmeticError("reference loop produced a non-finite value")
    return dt


_STREAM_HELPER = """
import sys, time
import numpy as np
rows, cols = int(sys.argv[1]), int(sys.argv[2])
B = np.full((rows, cols), 0.5)
v = np.ones(cols)
print("ready", flush=True)
for _ in sys.stdin:
    t0 = time.thread_time()
    (B @ v).sum()
    print(repr(time.thread_time() - t0), flush=True)
"""


class StreamProbe:
    """Memory-bandwidth reference: a helper process streams over rows x cols doubles."""

    def __init__(self, rows: int, cols: int):
        self._args = [sys.executable, "-c", _STREAM_HELPER, str(rows), str(cols)]
        self._proc = None

    def __enter__(self) -> "StreamProbe":
        self._proc = subprocess.Popen(self._args, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      text=True)
        if self._proc.stdout.readline().strip() != "ready":
            self.__exit__()
            raise RuntimeError("memory-reference helper did not start")
        return self

    def __exit__(self, *exc) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        proc.stdin.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def __call__(self) -> float:
        self._proc.stdin.write("probe\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())


class Speedometer:
    """Probe a reference between timed units and report speed factors.

    A factor above 1 means the host ran slower than nominal during the
    unit; multiply a rate by it (or divide a duration by it) to rescale.
    The factor of a unit is the median of the probes taken since the
    previous factor, including the last probe before the unit.
    """

    def __init__(self, probe=cpu_probe, nominal: float = CPU_NOMINAL_S):
        self._probe = probe
        self.nominal = nominal
        self._window: list[float] = []
        self.probes: list[float] = []

    def probe(self) -> float:
        dt = self._probe()
        self.probes.append(dt)
        self._window.append(dt)
        return dt

    def start(self) -> None:
        """Probe once before the next timed unit."""
        self._window = []
        self.probe()

    def factor(self) -> float:
        """Speed factor of the unit that ran since the previous probe."""
        if not self._window:
            self.probe()
        last = self.probe()
        f = statistics.median(self._window) / self.nominal
        self._window = [last]
        return f

    def sampling(self) -> "_Sampler":
        """Context manager that also probes from a thread, once a second, while the body runs."""
        return _Sampler(self)

    def describe(self) -> str:
        if not self.probes:
            return "no reference probes"
        ms = sorted(p * 1e3 for p in self.probes)
        return (f"{statistics.median(ms):.1f} ms median over {len(ms)} probes "
                f"(min {ms[0]:.1f}, max {ms[-1]:.1f}; nominal {self.nominal * 1e3:.1f} ms)")


class _Sampler:
    def __init__(self, speed: Speedometer):
        self._speed = speed
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(_SAMPLE_PERIOD_S):
            self._speed.probe()

    def __enter__(self) -> None:
        self._thread.start()

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

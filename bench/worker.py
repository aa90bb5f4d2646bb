"""One benchmark repetition, run in a fresh interpreter.

The driver (run.py) starts this file with `python -I`, writes one JSON job
spec to its stdin and reads back one JSON object with the raw timings, the
calibration figures and the results of every operation.  `ready_at` is the
`time.perf_counter()` reading (CLOCK_MONOTONIC, shared by all processes)
once `rieszdrop` is imported and one warm-up call has returned; the driver
times set-up from spawn to that instant.

The worker imports only the standard library, `rieszdrop` from the
checkout's `src/` and, when tracing, the benchmark's own `tracing` module.
Oracles run in the driver, so nothing here checks results.

Every timed chunk is interleaved with samples of a fixed pure-Python float
kernel (`KERNELS`, see `Calibrator`).  The driver divides each chunk's wall
time by the mean sample time, which cancels the drift of the guest's CPU
speed.  A thread or child process left alive by a chunk would slow the
samples after it and so hide its own cost; the worker refuses to measure in
that case and exits with status 3.
"""

from __future__ import annotations

import json
import math
import os
import resource
import signal
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")

SAMPLE_EVERY_S = 0.04  # process CPU seconds between samples inside a chunk
GAP_SAMPLES = 10  # samples taken between chunks

# A reference kernel is interpreted float work shaped like the job it
# normalizes, so that both slow down alike when the guest does: a bare
# arithmetic loop tracked the ledger less well than a gamma-in-bisection
# kernel, and that kernel tracked the potential's long series loops less
# well than a series recurrence.  Textbook Lanczos coefficients, g = 7.
_LANCZOS = (
    0.99999999999980993, 676.5203681218851, -1259.1392167224028,
    771.32342877765313, -176.61502916214059, 12.507343278686905,
    -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7,
)


def _ref_gamma(x: float) -> float:
    z = x - 1.0
    acc = _LANCZOS[0]
    for i in range(1, 9):
        acc += _LANCZOS[i] / (z + i)
    t = z + 7.5
    half = t ** (0.5 * (z + 0.5))
    return math.sqrt(2.0 * math.pi) * half * math.exp(-t) * half * acc


def _ref_bisect(f, lo: float, hi: float) -> float:
    flo = f(lo)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm * flo > 0.0:
            lo, flo = mid, fm
        else:
            hi = mid
    return lo


def _solver_kernel() -> float:
    acc = 0.0
    for i in range(12):
        a = 0.01 + 0.001 * i
        acc += _ref_bisect(lambda x: _ref_gamma(2.0 - a) * x ** (2.0 - a) - 1.5, 0.1, 4.0)
    return acc


def _series_kernel() -> float:
    # term recurrence of 2F1(1/2, 1/2; 2; z) close to z = 1
    s = term = 1.0
    for k in range(4000):
        term *= (0.5 + k) * (0.5 + k) / ((2.0 + k) * (1.0 + k)) * 0.9999
        s += term
    return s


KERNELS = {"solver": _solver_kernel, "series": _series_kernel}  # about 1 ms each


def ref_slice(kernel) -> float:
    """Wall time of one reference sample; never calls rieszdrop."""
    t0 = time.perf_counter()
    acc = kernel()
    dt = time.perf_counter() - t0
    if not acc > 0.0:  # keeps the result live
        raise AssertionError("reference kernel lost its result")
    return dt


class StrayWorkError(RuntimeError):
    """A thread or child process outlived the chunk that started it."""


def _native_threads() -> int:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _child_pids() -> list[str]:
    pids: list[str] = []
    try:
        for tid in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{tid}/children", encoding="ascii") as fh:
                pids.extend(fh.read().split())
    except OSError:
        pass
    return pids


class Calibrator:
    """Reference samples around and inside each timed chunk.

    Between chunks, `gap` first checks that no thread or child process is
    left over, then takes GAP_SAMPLES samples.  Inside a chunk, SIGVTALRM
    takes one sample every SAMPLE_EVERY_S of CPU time, because the guest's
    speed changes within a second; once the chunk runs extra threads, whose
    contention would slow the samples, sampling stops for that chunk.  Time
    spent sampling is `stolen` and is taken out of the chunk's own time.
    """

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.threads = threading.active_count()
        self.native = _native_threads()
        self.samples: list[float] = []
        self.stolen = 0.0
        signal.signal(signal.SIGVTALRM, self._tick)

    def gap(self) -> float:
        alive = threading.active_count() - self.threads
        native = _native_threads() - self.native
        children = _child_pids()
        if alive > 0 or native > 0 or children:
            raise StrayWorkError(
                f"{alive} thread(s), {native} native thread(s) and child "
                f"processes {children} still alive at a calibration slice"
            )
        gap = [ref_slice(self.kernel) for _ in range(GAP_SAMPLES)]
        self.samples += gap
        return sum(gap) / len(gap)

    def _tick(self, signum, frame) -> None:
        if threading.active_count() != self.threads:
            # waking up to sample would only add GIL hand-offs to the pool
            signal.setitimer(signal.ITIMER_VIRTUAL, 0.0, 0.0)
            return
        t0 = time.perf_counter()
        try:
            self.samples.append(ref_slice(self.kernel))
        finally:
            self.stolen += time.perf_counter() - t0

    def measure(self, fn) -> dict:
        """Run fn() as one chunk; it is preceded by a gap and followed by one."""
        first = len(self.samples) - GAP_SAMPLES
        stolen = self.stolen
        c0 = time.process_time()
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            record = fn()
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0.0, 0.0)
        stolen = self.stolen - stolen
        record.setdefault("wall", time.perf_counter() - t0 - stolen)
        record.setdefault("cpu", time.process_time() - c0 - stolen)
        self.gap()
        cal = self.samples[first:]
        record["cal"] = sum(cal) / len(cal)
        return record


def _peak_rss_kb() -> int:
    # ru_maxrss would report the spawning driver's peak when that is larger:
    # Linux carries it across fork and exec.  VmHWM belongs to this image.
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class LatencyLimit(Exception):
    """Raised from SIGALRM when one call runs past the latency limit."""


def _on_alarm(signum, frame):
    raise LatencyLimit()


def _potential_chunk(disk_potential, errors, calls: list, limit_s: float, cal: Calibrator) -> dict:
    """Time each call on its own; a call past limit_s is stopped."""
    results = []
    wall = cpu = 0.0
    for r, alpha in calls:
        stolen = cal.stolen
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, limit_s)
            try:
                value, status = disk_potential(r, alpha), "ok"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
        except LatencyLimit:
            value, status = None, "limit"
        except errors as exc:
            value, status = None, type(exc).__name__
        stolen = cal.stolen - stolen
        dt = time.perf_counter() - t0 - stolen
        dc = time.process_time() - c0 - stolen
        results.append([value, status, dt])
        if status != "limit":
            # a stopped call shows in ok_frac, not in the job's time
            wall += dt
            cpu += dc
    return {"op": "potential", "wall": wall, "cpu": cpu, "calls": results}


def main() -> int:
    spec = json.loads(sys.stdin.read())
    sys.path.insert(0, SRC_DIR)
    import rieszdrop
    from rieszdrop.errors import BracketError, ConvergenceError, DomainError

    if os.path.dirname(os.path.abspath(rieszdrop.__file__)) != os.path.join(SRC_DIR, "rieszdrop"):
        raise ImportError(f"rieszdrop imported from {rieszdrop.__file__}, not {SRC_DIR}")

    workload = spec["workload"]
    if workload == "potential":
        rieszdrop.disk_potential(*spec["warmup"])
    else:
        from rieszdrop import cli

        cli.main(spec["warmup"])
    ready_at = time.perf_counter()

    cal = Calibrator(KERNELS[spec["kernel"]])
    setup_cal = cal.gap()
    if spec["mode"] == "setup":
        print(json.dumps({"ready_at": ready_at, "setup_cal": setup_cal}))
        return 0

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, BENCH_DIR)
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    chunks = []
    if workload == "potential":
        signal.signal(signal.SIGALRM, _on_alarm)
        errors = (DomainError, ConvergenceError, BracketError)
        for calls in spec["chunks"]:
            chunks.append(cal.measure(lambda calls=calls: _potential_chunk(
                rieszdrop.disk_potential, errors, calls, spec["limit_s"], cal
            )))
    else:
        for argv in spec["chunks"]:
            chunks.append(cal.measure(lambda argv=argv: {"op": argv[0], "code": cli.main(argv)}))

    out = {
        "ready_at": ready_at,
        "setup_cal": setup_cal,
        "chunks": chunks,
        "max_rss_kb": _peak_rss_kb(),
    }
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.report()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except StrayWorkError as exc:
        print(f"worker: {exc}", file=sys.stderr)
        sys.exit(3)

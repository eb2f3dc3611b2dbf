"""Shared plumbing of the benchmark: environment pinning, statistics and
the result line.

``pin_environment`` must run before numpy is imported anywhere in the
process, because OpenBLAS reads its thread count once, at load time.
"""
from __future__ import annotations

import ctypes
import json
import math
import os
import resource
import statistics
from bisect import bisect_left, bisect_right
from contextlib import nullcontext
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for spans, Spark shuffle files and temp files; the
#: benchmark writes nothing outside its checkout.
OUT = ROOT / ".perfbench"

#: OpenBLAS threads for every workload. The matrices are small (n <= ~230
#: rows), so one thread is as fast as two and does not contend with Spark.
BLAS_THREADS = "1"

#: End-to-end metrics: (name, unit, better), printed by ``--trace 0``.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("campaign_wall_p50_s", "s", "lower"),
    ("campaign_wall_tail_s", "s", "lower"),
    ("trial_wall_p50_s", "s", "lower"),
    ("trial_wall_tail_s", "s", "lower"),
    ("trials_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
#: Per-layer metrics the live-Spark workload measures itself; 0 elsewhere.
SPARK_LAYER = (
    ("spark.trial_cold_s", "s", "lower"),
    ("spark.query_warm_p50_s", "s", "lower"),
    ("spark.gc_ms", "ms", "lower"),
    ("spark.shuffle_write_bytes", "bytes", "lower"),
    ("spark.tasks", "count", "lower"),
)
#: Per-layer metrics of the whole run; the simulator quality metrics repeat
#: exactly for unchanged code and are 0 on spark-replay.
RUN_LAYER = (
    ("sim_opt_h", "h", "lower"),
    ("sim_tuned_s", "s", "lower"),
    ("failed_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

#: Wall of one pass over each workload's fixed work at unloaded speed on a
#: 4-core x86 VM; sets how many passes ``--seconds`` buys.
NOMINAL_PASS_S = {"locat-sim": 3.3, "gborl-sim": 9.5, "dac-qtune-sim": 2.6, "spark-replay": 5.2}
#: Fewest passes: the live-Spark runs, which the speed probe scales worst,
#: take their minima over three.
MIN_PASSES = {"spark-replay": 3}

#: Tail ladder: the reported tail is the highest of these percentiles that
#: leaves at least ten samples beyond it, else the maximum.
_TAIL_LADDER = (95.0, 90.0, 75.0)


def pin_environment() -> None:
    """Pin BLAS threads and route temp files into the checkout."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)


class SpeedProbe:
    """How fast this CPU runs right now, and a clock that leaves the
    probing out.

    Other tenants of the machine slow every computation by up to about 2x for
    seconds to minutes at a time, which no within-run repetition filters.
    ``sample`` times a fixed computation that is independent of the
    program (pure-Python arithmetic plus small dense linear algebra, the
    tuners' own mix); a sample's slowdown is its best-of-three time over
    ``REF_S``, its time on an unloaded 4-core x86 VM. Dividing a wall by
    the slowdown around it gives that wall at unloaded speed.
    """

    REF_S = 0.0040
    EVERY_S = 0.25

    def __init__(self, span=None) -> None:
        import numpy as np

        self._span = span  # a tracer's span factory, so probing is its own span

        rng = np.random.default_rng(0)
        self._a = rng.random((48, 8))
        self._eye = np.eye(48)
        self._np = np
        self.excluded = 0.0
        self.times: list[float] = []
        self.slowdowns: list[float] = []

    def now(self) -> float:
        """perf_counter without the time spent probing."""
        return perf_counter() - self.excluded

    def _kernel(self) -> float:
        t = perf_counter()
        acc = 0
        for i in range(10000):
            acc += (i * i) % 7
        for _ in range(100):
            k = self._a @ self._a.T + self._eye
            self._np.linalg.solve(self._np.linalg.cholesky(k), self._a)
        return perf_counter() - t

    def sample(self) -> None:
        t = perf_counter()
        with self._span("bench.probe") if self._span else nullcontext():
            best = min(self._kernel() for _ in range(3))
        self.excluded += perf_counter() - t
        self.times.append(self.now())
        self.slowdowns.append(best / self.REF_S)

    def maybe_sample(self) -> None:
        if not self.times or self.now() - self.times[-1] >= self.EVERY_S:
            self.sample()

    def slowdown(self, a: float, b: float) -> float:
        """Mean slowdown over clock interval ``[a, b]``: the samples inside
        it and the nearest one on each side."""
        lo = max(0, bisect_right(self.times, a) - 1)
        hi = min(len(self.times) - 1, bisect_left(self.times, b))
        return statistics.fmean(self.slowdowns[lo:hi + 1])

    def normalize(self, edges: list[float]) -> list[float]:
        """The segments between consecutive ``edges`` at unloaded speed."""
        return [(b - a) / self.slowdown(a, b) for a, b in zip(edges, edges[1:])]


def pass_count(workload: str, seconds: float) -> int:
    """Passes of the timed region, at least ``MIN_PASSES``. The count follows from
    ``seconds`` alone, not from how fast this machine happens to be, so
    every run of a workload does the same work and takes its minima over
    as many samples."""
    return max(MIN_PASSES.get(workload, 1), round(seconds / NOMINAL_PASS_S[workload]))


def percentile(sorted_vals: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, math.ceil(p / 100.0 * len(sorted_vals)) - 1)
    return sorted_vals[k]


def tail(vals: list[float]) -> tuple[float, str]:
    """(value, label) of the highest ladder percentile with at least ten
    samples beyond it; the maximum when there are too few samples."""
    s = sorted(vals)
    n = len(s)
    for p in _TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            return percentile(s, p), f"p{p:g} of n={n}"
    return s[-1], f"max of n={n}"


def median(vals: list[float]) -> float:
    return float(statistics.median(vals))


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _openblas_threads() -> int | None:
    """Threads the loaded OpenBLAS actually uses, read through its C API."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line}
    for lib in libs:
        try:
            cdll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(cdll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(extra: dict | None = None) -> dict:
    """The hygiene record printed with every result."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "nproc": os.cpu_count(),
        "SPARK_DRIVER_MEM": os.environ.get("SPARK_DRIVER_MEM"),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    try:
        env["pyspark"] = version("pyspark")
    except PackageNotFoundError:  # the simulator workloads do not need pyspark
        env["pyspark"] = None
    env.update(extra or {})
    return env


class Outcome:
    """Attempted/failed bookkeeping; every failure is printed with its reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"# FAILED {what}", flush=True)
        return ok

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def emit(outcome: Outcome, metrics: dict[str, tuple[float, str]], env: dict, notes: dict) -> None:
    """Print the hygiene record, then the result object as the last line."""
    print("# env " + json.dumps(env, sort_keys=True), flush=True)
    for key, val in notes.items():
        print(f"# {key}: {val}", flush=True)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)

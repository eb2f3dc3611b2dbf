"""spark-replay: TPC-H-lite application runs on live local Spark.

One unit is one full application run (10 queries) through
``SparkSQLExecutor.run`` under one of ``N_CONFS`` Table-2 configurations
drawn once from ``CONF_SEED``; the workload seed only rotates their order,
so every run times the same work, as on the simulator workloads.
Replaying fixed configurations, instead of
letting a tuner pick them from measured times, keeps the executor's own
cost the only thing that varies. The timed region replays the
configurations in passes, and each part of a run's wall (every query,
the rest of the run) is its minimum over the passes.

Set-up, timed from the first statement of ``run.py``: imports, JVM start,
data generation and one warm-up run under the default configuration (its
wall is ``spark.trial_cold_s``). Before each timed run the JVM is asked for
a full GC and the listener bus is drained, outside the timer, so every run
starts from the same heap state and Spark's own counters can be read as
per-run deltas. After the timed region: ``qcsa_from_runs`` over the timed
runs, and every query once more under the last replayed configuration,
checked against DuckDB.
"""
from __future__ import annotations

import math
import os
import subprocess
from dataclasses import dataclass, field
from statistics import median_low
from time import perf_counter

from perfbench.common import (
    OUT, Outcome, SpeedProbe, emit, environment, median, pass_count, peak_rss_mb, tail,
)

#: TPC-H-lite scale factor (the repo's default data size for live Spark).
SF = 0.01
BENCHMARK = "TPC-H"
#: Configurations drawn per seed; the timed region replays them in passes.
N_CONFS = 2
CONF_SEED = 5


def _spark(cores: int, driver_mem: str):
    """Local session; launch-time settings go through PYSPARK_SUBMIT_ARGS
    because the driver JVM reads them once, at start."""
    local = OUT / "spark-local"
    local.mkdir(parents=True, exist_ok=True)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)  # would override spark.local.dir
    # every JVM spark-submit starts (the launcher too) keeps its temp files in
    # the checkout and writes no hsperfdata under /tmp
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={OUT / 'tmp'}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory {driver_mem} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.local.dir={local} "
        "pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _stop(spark) -> None:
    """Stop the session and wait for the driver JVM to exit."""
    from py4j.protocol import Py4JError
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    try:
        gateway.shutdown()
    except Py4JError as exc:  # the JVM may already be gone; the wait below decides
        print(f"# gateway shutdown: {exc!r}", flush=True)
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)


class Counters:
    """Driver totals from Spark's status store, read after draining the
    listener bus so every finished task is counted."""

    def __init__(self, spark):
        self._sc = spark.sparkContext._jsc.sc()
        self._jvm = spark.sparkContext._jvm

    def read(self) -> tuple[int, int, int]:
        self._sc.listenerBus().waitUntilEmpty()
        s = self._sc.statusStore().executorSummary("driver")
        return int(s.totalGCTime()), int(s.totalShuffleWrite()), int(s.totalTasks())

    def full_gc(self) -> None:
        self._jvm.System.gc()


@dataclass
class Pass:
    """One configuration's run in one pass."""

    unit: float  # full GC, counter reads and the run, at unloaded speed
    trial: float  # SparkSQLExecutor.run, at unloaded speed
    queries: dict[str, float]  # at unloaded speed
    measured: float  # SparkSQLExecutor.run as measured


@dataclass
class Replay:
    """Per configuration, its run in each pass; plus every run's record."""

    by_conf: list[list[Pass]]
    deltas: list[tuple[int, int, int]] = field(default_factory=list)
    runs: list = field(default_factory=list)

    def composed(self) -> list[tuple[float, float]]:
        """(unit, trial) wall per configuration, each part the minimum over the
        passes: every query, the run's remainder, and the GC and counter
        reads around it. Interference from other tenants only adds time."""
        out = []
        for runs in self.by_conf:
            if not runs:
                continue
            queries = sum(min(r.queries[q] for r in runs) for q in runs[0].queries)
            trial = queries + min(r.trial - sum(r.queries.values()) for r in runs)
            out.append((trial + min(r.unit - r.trial for r in runs), trial))
        return out

    @property
    def measured_wall(self) -> float:
        return sum(r.measured for runs in self.by_conf for r in runs)

    @property
    def query_times(self) -> list[float]:
        return [t for runs in self.by_conf for r in runs for t in r.queries.values()]


def replay(ex, confs: list[dict], counters: Counters, outcome: Outcome, passes: int, probe: SpeedProbe) -> Replay:
    """``passes`` whole passes over ``confs``. Walls are on ``probe``'s clock
    and scaled to unloaded speed by the probes taken just before and after
    each run, while the JVM idles: a probe during the run would also
    measure the JVM's own load and scale it away."""
    out = Replay([[] for _ in confs])
    for _ in range(passes):
        for i, conf in enumerate(confs):
            u0 = probe.now()
            counters.full_gc()
            c0 = counters.read()
            probe.sample()
            t0 = probe.now()
            try:
                r = ex.run(conf, SF)
            except Exception as exc:  # a raising run is a failed unit
                print(f"# run of configuration {i} raised {exc!r}", flush=True)
                r = None
            t1 = probe.now()
            probe.sample()
            c1 = counters.read()
            slow = probe.slowdown(t0, t1)
            ok = r is not None and all(math.isfinite(t) and t > 0 for t in r.times.values())
            if outcome.record(ok, f"run of configuration {i}: raised or gave a non-finite time"):
                queries = {q: t / slow for q, t in r.times.items()}
                out.by_conf[i].append(Pass((probe.now() - u0) / slow, (t1 - t0) / slow, queries, t1 - t0))
                out.runs.append(r)
                out.deltas.append(tuple(b - a for a, b in zip(c0, c1)))
    return out


def oracle_check(spark, ex, conf: dict, outcome: Outcome) -> None:
    """Every query once under ``conf``, compared with DuckDB's answer."""
    from repro.oracle import assert_equivalent
    from repro.workloads.registry import register_views

    tables = ex.tables(SF)
    register_views(spark, tables)
    pdfs = {k: v.toPandas() for k, v in tables.items()}
    prev = ex._apply(conf)
    try:
        for q in ex.benchmark.queries:
            try:
                assert_equivalent(spark.sql(q.sql), q.sql, **pdfs)
                ok = True
            except Exception as exc:  # a wrong or failed answer is a failed check
                print(f"# oracle {q.name}: {exc!r}", flush=True)
                ok = False
            outcome.record(ok, f"oracle {q.name}")
    finally:
        ex._restore(prev)


def run(args, t0: float) -> int:
    """The spark-replay workload; ``t0`` is the process's first timestamp."""
    import numpy as np

    from perfbench.tracer import Tracer, per_layer

    cores = min(2, os.cpu_count() or 1)
    os.environ.setdefault("SPARK_DRIVER_MEM", "2g")
    spark = _spark(cores, os.environ["SPARK_DRIVER_MEM"])
    try:
        import repro.core.qcsa as qcsa
        from repro.core.configspace import arm_space
        from repro.execmodel.spark_exec import SparkSQLExecutor
        from repro.workloads.registry import all_benchmarks

        tracer = Tracer()
        if args.trace:
            tracer.install()  # set-up is traced too: data generation is its layer
        outcome = Outcome()
        counters = Counters(spark)
        ex = SparkSQLExecutor(spark, all_benchmarks()[BENCHMARK])
        space = arm_space()
        rng = np.random.default_rng(CONF_SEED)
        confs = [space.sample_random(rng) for _ in range(N_CONFS)]
        k = args.seed % N_CONFS
        confs = confs[k:] + confs[:k]
        ex.tables(SF)
        warm_probe = SpeedProbe()
        warm = replay(ex, [space.default_conf()], counters, outcome, 1, warm_probe)
        # as measured: a probe on the Python thread does not track the
        # multi-threaded JVM start-up, so set-up is not scaled
        setup_s = warm_probe.now() - t0
        tracer.uninstall()

        passes = pass_count(args.workload, args.seconds)
        probe = SpeedProbe()
        timed = replay(ex, confs, counters, outcome, passes, probe)
        if args.trace:
            tracer.install()
            first_traced = len(tracer.spans)
            traced_t0 = perf_counter()
            traced = replay(ex, confs, counters, outcome, passes, SpeedProbe(tracer.span))
            traced_wall = perf_counter() - traced_t0
        qres = qcsa.qcsa_from_runs(timed.runs)
        tracer.uninstall()
        outcome.record(set(qres.cvs) == set(ex.query_names), "qcsa_from_runs did not cover every query")
        oracle_check(spark, ex, confs[-1], outcome)
    finally:
        _stop(spark)

    units, trials = (list(x) for x in zip(*timed.composed()))
    notes = {
        "timed_region": f"{passes} passes of {len(confs)} configurations, local[{cores}], SF {SF}; "
                        f"run wall {timed.measured_wall / len(timed.runs):.3f} s measured",
        "cpu_slowdown": f"median {median(probe.slowdowns):.3f}, range {min(probe.slowdowns):.3f}-"
                        f"{max(probe.slowdowns):.3f} over {len(probe.slowdowns)} probes",
    }
    if not args.trace:
        unit_tail, notes["campaign_wall_tail_s"] = tail(units)
        trial_tail, notes["trial_wall_tail_s"] = tail(trials)
        metrics = {
            "setup_s": (setup_s, "s"),
            "campaign_wall_p50_s": (median(units), "s"),
            "campaign_wall_tail_s": (unit_tail, "s"),
            "trial_wall_p50_s": (median(trials), "s"),
            "trial_wall_tail_s": (trial_tail, "s"),
            "trials_per_s": (len(trials) / sum(units), "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    else:
        from perfbench import predictions

        layers = tracer.by_layer()
        composed_wall = sum(u for u, _ in traced.composed())
        deltas = timed.deltas
        metrics = {
            **per_layer(layers),
            "spark.trial_cold_s": (warm.by_conf[0][0].measured, "s"),
            "spark.query_warm_p50_s": (median(timed.query_times), "s"),  # at unloaded speed
            "spark.gc_ms": (median_low([d[0] for d in deltas]), "ms"),
            "spark.shuffle_write_bytes": (median_low([d[1] for d in deltas]), "bytes"),
            "spark.tasks": (median_low([d[2] for d in deltas]), "count"),
            "sim_opt_h": (0.0, "h"),
            "sim_tuned_s": (0.0, "s"),
            "failed_frac": (outcome.failed_frac, "ratio"),
            "trace.overhead_frac": (composed_wall / sum(units) - 1.0, "ratio"),
        }
        notes["spark_deltas_per_run"] = " ".join(f"gc={g}ms,shuffle={s}B,tasks={t}" for g, s, t in deltas)
        notes.update(predictions.evaluate(args.workload, tracer.by_layer(first_traced), traced_wall))
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write(spans)
    emit(outcome, metrics, environment({"spark_master": f"local[{cores}]"}), notes)
    return 0

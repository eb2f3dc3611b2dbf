"""The one Executor contract: the simulator and live Spark both satisfy it."""
import numpy as np

from repro.cluster.hardware import ARM_CLUSTER
from repro.cluster.simulator import SimulatedCluster
from repro.core.configspace import arm_space
from repro.execmodel.interface import Executor, RunResult
from repro.execmodel.sim_exec import make_executor
from repro.execmodel.spark_exec import SparkSQLExecutor
from repro.workloads.registry import all_benchmarks

ARM = arm_space()


def test_simulator_and_spark_are_executors(spark):
    assert isinstance(make_executor("TPC-H", ARM_CLUSTER), Executor)
    assert isinstance(SparkSQLExecutor(spark, all_benchmarks()["TPC-H"]), Executor)


def test_spark_sampling_and_repair_pass_through(spark):
    ex = SparkSQLExecutor(spark, all_benchmarks()["TPC-H"])
    for seed in range(3):
        drawn = ex.sample_feasible(ARM, np.random.default_rng(seed))
        assert drawn == ARM.sample_random(np.random.default_rng(seed))
    conf = ARM.sample_random(np.random.default_rng(7))
    assert ex.repair(conf, ARM) is conf
    assert ex.n_runs == 0


def test_simulator_run_returns_run_result():
    sim = make_executor("TPC-H", ARM_CLUSTER)
    assert isinstance(sim, SimulatedCluster)
    for r in (sim.run(ARM.default_conf(), 200.0), sim.evaluate(ARM.default_conf(), 300.0)):
        assert isinstance(r, RunResult)
        assert set(r.times) == set(r.gc_times) == set(sim.query_names)
    assert sim.run(ARM.default_conf(), 123.5, ["Q01"]).ds == 123.5
    assert sim.n_runs == 2

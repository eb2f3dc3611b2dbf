"""Unit tests for the simulated-cluster substrate."""
import hashlib

import numpy as np
import pytest

from repro.cluster.gc_model import OOM_PRESSURE, gc_seconds
from repro.cluster.hardware import ARM_CLUSTER, X86_CLUSTER
from repro.cluster.profiles import (
    PROFILE_SETS,
    TPCDS_CSQ,
    TPCDS_SELECTION,
    hibench_profiles,
    tpcds_profiles,
    tpcds_query_names,
    tpch_profiles,
)
from repro.cluster.simulator import SimulatedCluster
from repro.core.configspace import arm_space
from repro.execmodel.sim_exec import make_executor
from repro.experiments.common import BENCHMARKS, cluster_for, space_for

ARM = arm_space()


class TestHardware:
    def test_arm_totals(self):
        assert ARM_CLUSTER.total_cores == 384
        assert ARM_CLUSTER.total_mem_gb == 1536.0
        assert ARM_CLUSTER.net_total_gBps == pytest.approx(3.75)

    def test_x86_totals(self):
        assert X86_CLUSTER.total_cores == 140
        assert X86_CLUSTER.total_mem_gb == 448.0

    def test_container_caps_match_table2_ranges(self):
        assert ARM_CLUSTER.container_max_cores == 8  # Range A executor.cores hi
        assert X86_CLUSTER.container_max_cores == 16  # Range B
        assert ARM_CLUSTER.container_max_mem_gb == 32.0
        assert X86_CLUSTER.container_max_mem_gb == 48.0


class TestGCModel:
    def test_monotone_in_pressure(self):
        ts = [gc_seconds(100.0, 16.0, 0.6, 0.0, False, w) for w in (0.5, 2.0, 5.0, 8.0)]
        assert ts == sorted(ts)

    def test_offheap_reduces_gc(self):
        with_off = gc_seconds(100.0, 8.0, 0.6, 8.0, True, 6.0)
        without = gc_seconds(100.0, 8.0, 0.6, 8.0, False, 6.0)
        assert with_off < without

    def test_offheap_disabled_ignored(self):
        a = gc_seconds(100.0, 8.0, 0.6, 0.0, True, 6.0)
        b = gc_seconds(100.0, 8.0, 0.6, 0.0, False, 6.0)
        assert a == b

    def test_oom_regime_dominates(self):
        heap = 4.0
        usable = heap * 0.6 - 0.3
        w_oom = usable * (OOM_PRESSURE + 0.5)
        assert gc_seconds(100.0, heap, 0.6, 0.0, False, w_oom) > 100.0

    def test_bigger_heap_less_gc(self):
        small = gc_seconds(100.0, 4.0, 0.6, 0.0, False, 3.0)
        big = gc_seconds(100.0, 32.0, 0.6, 0.0, False, 3.0)
        assert big < small


class TestProfiles:
    def test_tpcds_has_104_queries(self):
        names = tpcds_query_names()
        assert len(names) == 104
        assert len(set(names)) == 104
        for v in ("Q14a", "Q14b", "Q23a", "Q23b", "Q24a", "Q24b", "Q39a", "Q39b", "Q64a", "Q64b"):
            assert v in names

    def test_paper_csq_have_heavy_shuffles(self):
        profs = {p.name: p for p in tpcds_profiles()}
        csq = {
            f"Q{int(q[1:-1]):02d}{q[-1]}" if q[-1] in "ab" else f"Q{int(q[1:]):02d}"
            for q in TPCDS_CSQ
        }
        for name in csq:
            assert profs[name].shuffle_per_gb >= 0.2, name
        assert profs["Q72"].shuffle_per_gb == pytest.approx(0.52)  # 52GB/100GB

    def test_selection_queries_capped_and_light(self):
        profs = {p.name: p for p in tpcds_profiles()}
        for q in TPCDS_SELECTION:
            name = f"Q{int(q[1:]):02d}"
            assert profs[name].category == "selection"
            assert profs[name].max_cores < 10  # "only consume 5 CPU cores"

    def test_q04_long_but_capped(self):
        profs = {p.name: p for p in tpcds_profiles()}
        assert profs["Q04"].cpu_per_gb > 10
        assert profs["Q04"].max_cores == 24

    def test_deterministic(self):
        a = tpcds_profiles()
        b = tpcds_profiles()
        assert a == b

    def test_tpch_has_22(self):
        assert len(tpch_profiles()) == 22

    def test_hibench_categories(self):
        hb = hibench_profiles()
        assert hb["Scan"][0].category == "selection"
        assert hb["Join"][0].category == "join"
        assert hb["Aggregation"][0].category == "aggregation"

    def test_profile_sets_match_table1(self):
        sets = PROFILE_SETS()
        assert {k: len(v) for k, v in sets.items()} == {
            "TPC-DS": 104, "TPC-H": 22, "Join": 1, "Scan": 1, "Aggregation": 1,
        }

    def test_bad_category_rejected(self):
        from repro.cluster.profiles import QueryProfile

        with pytest.raises(ValueError):
            QueryProfile("x", "bogus", 1, 1, 1, 1, 1, 1, 0)


class TestSimulator:
    def _sim(self, bench="TPC-DS", seed=0, noise=0.12):
        return SimulatedCluster(ARM_CLUSTER, PROFILE_SETS()[bench], seed=seed, noise=noise)

    def test_evaluate_deterministic_and_noise_free(self):
        sim = self._sim()
        conf = ARM.default_conf()
        a = sim.evaluate(conf, 100.0)
        b = sim.evaluate(conf, 100.0)
        assert a.total == b.total
        assert sim.charged_seconds == 0.0

    def test_run_charges_and_counts(self):
        sim = self._sim()
        conf = ARM.default_conf()
        r = sim.run(conf, 100.0)
        assert sim.charged_seconds == pytest.approx(r.total)
        assert sim.n_runs == 1

    def test_run_noise_varies_by_run(self):
        sim = self._sim()
        conf = ARM.default_conf()
        a = sim.run(conf, 100.0)
        b = sim.run(conf, 100.0)
        assert a.total != b.total

    def test_queries_subset(self):
        sim = self._sim()
        r = sim.run(ARM.default_conf(), 100.0, ["Q72", "Q08"])
        assert set(r.times) == {"Q72", "Q08"}
        with pytest.raises(KeyError):
            sim.run(ARM.default_conf(), 100.0, ["nope"])

    def test_time_grows_with_datasize(self):
        sim = self._sim()
        conf = ARM.default_conf()
        assert sim.evaluate(conf, 500.0).total > sim.evaluate(conf, 100.0).total

    def test_more_parallelism_speeds_up_csq(self):
        # more executors at identical per-task memory -> faster heavy query
        sim = self._sim()
        slow = ARM.complete({"spark.executor.instances": 48, "spark.executor.cores": 2,
                             "spark.executor.memory": 16})
        fast = ARM.complete({"spark.executor.instances": 192, "spark.executor.cores": 2,
                             "spark.executor.memory": 16})
        assert sim.evaluate(fast, 100.0).times["Q72"] < sim.evaluate(slow, 100.0).times["Q72"]

    def test_q04_insensitive_to_parallelism(self):
        sim = self._sim()
        slow = ARM.complete({"spark.executor.instances": 48, "spark.executor.cores": 1})
        fast = ARM.complete({"spark.executor.instances": 384, "spark.executor.cores": 8})
        a = sim.evaluate(slow, 100.0).times["Q04"]
        b = sim.evaluate(fast, 100.0).times["Q04"]
        assert abs(a - b) / a < 0.1

    def test_shuffle_compress_helps_heavy_shuffler(self):
        sim = self._sim()
        on = ARM.complete({"spark.shuffle.compress": True})
        off = ARM.complete({"spark.shuffle.compress": False})
        assert sim.evaluate(on, 300.0).times["Q72"] < sim.evaluate(off, 300.0).times["Q72"]

    def test_gc_reported_and_included(self):
        sim = self._sim()
        r = sim.evaluate(ARM.complete({"spark.executor.memory": 4}), 500.0)
        assert r.gc_total > 0
        assert r.gc_total < r.total

    def test_feasibility_and_repair(self):
        sim = self._sim()
        bad = ARM.complete({
            "spark.executor.instances": 384,
            "spark.executor.memory": 32,
            "spark.executor.memoryOverhead": 32768,
        })
        assert not sim.is_feasible(bad)
        fixed = sim.repair(bad, ARM)
        assert sim.is_feasible(fixed)

    def test_sample_feasible_always_feasible(self):
        sim = self._sim()
        rng = np.random.default_rng(0)
        for _ in range(25):
            assert sim.is_feasible(sim.sample_feasible(ARM, rng))

    def test_partial_conf_uses_defaults(self):
        sim = self._sim()
        partial = {"spark.sql.shuffle.partitions": 800}
        full = ARM.complete(partial)
        assert sim.evaluate(partial, 100.0).total == pytest.approx(
            sim.evaluate(full, 100.0).total
        )

    def test_rugged_default_neutral(self):
        from repro.cluster.simulator import _rugged_multiplier

        defaults = {p.name: p.clip(p.default) for p in ARM.params}
        assert _rugged_multiplier(defaults, defaults) == pytest.approx(1.0)

    def test_empty_profiles_rejected(self):
        with pytest.raises(ValueError):
            SimulatedCluster(ARM_CLUSTER, [])


class TestGoldenTimes:
    """Every simulated time and GC time, pinned bit for bit.

    The digest was computed before the simulator hoisted its
    configuration-only terms out of the per-query loop; any change to the
    model's arithmetic or to its noise stream changes it. 300 seeded
    configurations (some partial) over both clusters and all five
    benchmarks, each run (noisy, advancing the run counter) and evaluated
    (noise-free) at one of six data sizes, on all queries or a subset.
    """

    DIGEST = "0182a60f76b31b1fc1b6e6569a4cdab56e1698e51c0c949c87cc478d49f8f90e"

    def test_run_and_evaluate_digest(self):
        sizes = (100.0, 300.0, 500.0, 1000.0, 37.25, 300)
        h = hashlib.sha256()
        for c, cluster in enumerate(("arm", "x86")):
            space = space_for(cluster)
            for b, bench in enumerate(BENCHMARKS):
                ex = make_executor(bench, cluster_for(cluster), seed=7 * c + b)
                rng = np.random.default_rng(100 * c + b)
                names = ex.query_names
                for i in range(30):
                    conf = ex.sample_feasible(space, rng)
                    if i % 5 == 4:
                        conf = {k: conf[k] for k in space.names[::3]}
                    ds = sizes[i % len(sizes)]
                    queries = None if i % 3 else names[::-2]
                    for r in (ex.run(conf, ds, queries), ex.evaluate(conf, ds, queries)):
                        h.update(repr((r.times, r.gc_times)).encode())
        assert h.hexdigest() == self.DIGEST

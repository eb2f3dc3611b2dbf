"""Per-query invariants for every simulated TPC-DS / TPC-H profile.

One parametrized test per query keeps the whole 104-query structure
under regression: positive cost terms, the paper's CSQ set shuffle-heavy
and uncapped, the Section 5.11 selection set capped at a handful of
cores, and every profile executable by the simulator.
"""
import pytest

from repro.cluster.hardware import ARM_CLUSTER
from repro.cluster.profiles import (
    TPCDS_CSQ,
    TPCDS_SELECTION,
    tpcds_profiles,
    tpch_profiles,
)
from repro.cluster.simulator import SimulatedCluster
from repro.core.configspace import arm_space

_TPCDS = {p.name: p for p in tpcds_profiles()}
_TPCH = {p.name: p for p in tpch_profiles()}
_CSQ = {
    f"Q{int(q[1:-1]):02d}{q[-1]}" if q[-1] in "ab" else f"Q{int(q[1:]):02d}"
    for q in TPCDS_CSQ
}
_SEL = {f"Q{int(q[1:]):02d}" for q in TPCDS_SELECTION}

_SIM = SimulatedCluster(ARM_CLUSTER, tpcds_profiles(), seed=0)
_CONF = arm_space().default_conf()


@pytest.mark.parametrize("name", sorted(_TPCDS))
def test_tpcds_profile_invariants(name):
    p = _TPCDS[name]
    assert p.cpu_per_gb > 0
    assert p.shuffle_per_gb >= 0
    assert 0 < p.input_frac <= 1
    assert p.base_s > 0
    if name in _CSQ:
        assert p.shuffle_per_gb >= 0.2
        assert p.max_cores > ARM_CLUSTER.total_cores
    elif name in _SEL:
        assert p.category == "selection"
        assert p.max_cores <= 9
    else:
        assert p.shuffle_per_gb < 0.05


@pytest.mark.parametrize("name", sorted(_TPCDS))
def test_tpcds_query_simulates_positive_time(name):
    # at the defaults the rugged multiplier is exactly 1.0, so this is the
    # query's modelled time
    r = _SIM.evaluate(_CONF, 100.0, [name])
    t, gc = r.times[name], r.gc_times[name]
    assert t > 0
    assert 0 <= gc < t


@pytest.mark.parametrize("name", sorted(_TPCH))
def test_tpch_profile_invariants(name):
    p = _TPCH[name]
    assert p.category in ("selection", "join", "aggregation")
    assert p.cpu_per_gb > 0
    if name in ("Q05", "Q07", "Q08", "Q09", "Q17", "Q18", "Q20", "Q21"):
        assert p.shuffle_per_gb >= 0.2
    if name == "Q06":
        assert p.category == "selection"

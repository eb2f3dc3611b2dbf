"""Executor abstraction: what every tuner (LOCAT and the four SOTA
baselines) sees of "the cluster".

The paper's tuners are black-box optimizers: they submit a configuration,
the application runs, and per-query execution times come back. ``run``
charges the execution to the executor's optimization-time meter (the
quantity Figures 11/12/20 compare); ``evaluate`` prices a configuration
without charging (used for the final speedup measurements of Figures
13/14, which the paper performs after tuning finishes).

The protocol's members:

* ``query_names`` — the application's queries, in execution order;
* ``run(conf, ds, queries=None)`` / ``evaluate(...)`` — one charged /
  uncharged execution, returning a :class:`RunResult`;
* ``charged_seconds`` / ``n_runs`` — the optimization-time meter and the
  number of charged runs behind it;
* ``sample_feasible(space, rng)`` / ``repair(conf, space, rng=None)`` —
  draw a configuration the cluster can allocate, and make a proposed one
  allocatable (Section 5.12's joint resource constraint). An executor
  without such a constraint samples ``space`` and repairs nothing.

Implementations: :class:`repro.cluster.simulator.SimulatedCluster` and
:class:`repro.execmodel.spark_exec.SparkSQLExecutor`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = ["RunResult", "Executor"]


@dataclass
class RunResult:
    """One application execution observed by a tuner."""

    times: dict[str, float]  # per-query seconds
    conf: dict
    ds: float  # input data size (GB for the simulator, SF for live Spark)
    gc_times: dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return float(sum(self.times.values()))

    @property
    def gc_total(self) -> float:
        return float(sum(self.gc_times.values()))


@runtime_checkable
class Executor(Protocol):
    """The black-box cluster interface tuners optimize against."""

    @property
    def query_names(self) -> list[str]:
        """All query names of the application, in execution order."""
        ...

    def run(self, conf: dict, ds: float, queries: list[str] | None = None) -> RunResult:
        """Execute (a subset of) the application; charge its time."""
        ...

    def evaluate(self, conf: dict, ds: float, queries: list[str] | None = None) -> RunResult:
        """Expected execution time without charging the tuning meter."""
        ...

    @property
    def charged_seconds(self) -> float:
        """Accumulated optimization time so far."""
        ...

    @property
    def n_runs(self) -> int:
        """Number of charged runs so far."""
        ...

    def sample_feasible(self, space, rng: np.random.Generator) -> dict:
        """Random configuration of ``space`` the cluster can allocate."""
        ...

    def repair(self, conf: dict, space, rng: np.random.Generator | None = None) -> dict:
        """``conf`` made allocatable; with ``rng``, infeasible parts are re-drawn."""
        ...

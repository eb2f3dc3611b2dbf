"""Span tracer that wraps the program's layers from outside.

``Tracer.install`` replaces the public functions and methods listed in
``TARGETS`` with wrappers that record one span per call: name, start,
end and the span that was open when the call began (its parent). Module
functions are replaced in every loaded ``repro`` module that imported
them by name, so ``from repro.core.bo import bo_minimize`` call sites are
traced too. ``uninstall`` puts the originals back. Nothing under ``src/``
knows about the tracer.

Self time of a span is its duration minus the durations of its direct
children. Per-layer metrics are named ``<layer>.<stat>``; ``per_layer``
derives them from the recorded spans.
"""
from __future__ import annotations

import functools
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np


def _n_rows(x) -> int:
    return len(np.atleast_2d(np.asarray(x)))


def _hypers(args, kwargs, out):
    # (rows of X, distinct posterior samples, samples returned); MH keeps
    # the same Hyper object when it rejects a proposal
    return (len(args[0]), len({id(h) for h in out}), len(out))


def _nonfinite(args, kwargs, out):
    return 0 if math.isfinite(out) else 1


def _rows_arg1(args, kwargs, out):
    return _n_rows(args[1])


def _queries(args, kwargs, out):
    return len(out.times)


@dataclass(frozen=True)
class Target:
    """One traced public function: ``module.qualname`` recorded as ``layer``."""

    module: str
    qualname: str
    layer: str
    stats: tuple[str, ...] = ("calls", "self_s")
    count: Callable | None = None


TARGETS: tuple[Target, ...] = (
    Target("repro.core.acquisition", "sample_hypers", "core.acquisition.sample_hypers",
           ("calls", "self_s", "rows_mean", "distinct_frac"), _hypers),
    Target("repro.core.gp", "log_marginal_likelihood", "core.gp.log_marginal_likelihood",
           ("calls", "self_s", "nonfinite_frac"), _nonfinite),
    Target("repro.core.gp", "GP.__init__", "core.gp.GP.fit"),
    Target("repro.core.gp", "GP.predict", "core.gp.GP.predict", ("calls", "self_s", "rows"), _rows_arg1),
    Target("repro.core.acquisition", "EIMCMC.score", "core.acquisition.EIMCMC.score",
           ("calls", "self_s", "candidates"), _rows_arg1),
    Target("repro.core.bo", "bo_minimize", "core.bo.bo_minimize"),
    Target("repro.core.kpca", "KernelPCA.fit", "core.kpca.KernelPCA.fit"),
    Target("repro.core.kpca", "KernelPCA.inverse_transform", "core.kpca.KernelPCA.inverse_transform",
           ("calls", "self_s", "rows"), _rows_arg1),
    Target("repro.core.iicp", "iicp", "core.iicp.iicp"),
    Target("repro.core.qcsa", "qcsa_from_runs", "core.qcsa.qcsa_from_runs"),
    Target("repro.cluster.simulator", "SimulatedCluster.run", "cluster.simulator.SimulatedCluster.run",
           ("calls", "self_s", "queries"), _queries),
    Target("repro.cluster.simulator", "SimulatedCluster.evaluate", "cluster.simulator.SimulatedCluster.evaluate",
           ("calls", "self_s", "queries"), _queries),
    Target("repro.cluster.simulator", "SimulatedCluster.sample_feasible",
           "cluster.simulator.SimulatedCluster.sample_feasible"),
    Target("repro.cluster.simulator", "SimulatedCluster.repair", "cluster.simulator.SimulatedCluster.repair"),
    Target("repro.execmodel.sim_exec", "SimulatedClusterExecutor.run",
           "execmodel.sim_exec.SimulatedClusterExecutor.run", ("self_s",)),
    Target("repro.mlmodels.gbrt", "GBRTRegressor.fit", "mlmodels.gbrt.GBRTRegressor.fit"),
    Target("repro.mlmodels.gbrt", "GBRTRegressor.predict", "mlmodels.gbrt.GBRTRegressor.predict"),
    Target("repro.execmodel.spark_exec", "SparkSQLExecutor.tables",
           "execmodel.spark_exec.SparkSQLExecutor.tables", ("self_s",)),
    Target("repro.execmodel.spark_exec", "SparkSQLExecutor.run", "execmodel.spark_exec.SparkSQLExecutor.run"),
    Target("repro.workloads.registry", "register_views", "workloads.registry.register_views"),
    Target("pyspark.sql.conf", "RuntimeConfig.set", "spark.conf_set"),
    Target("pyspark.sql.conf", "RuntimeConfig.unset", "spark.conf_set"),
)

_UNITS = {
    "calls": "count",
    "self_s": "s",
    "rows_mean": "rows",
    "distinct_frac": "ratio",
    "nonfinite_frac": "ratio",
    "rows": "count",
    "candidates": "count",
    "queries": "count",
}
_HIGHER = {"distinct_frac"}


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every traced-layer metric, in table order."""
    out, seen = [], set()
    for t in TARGETS:
        for stat in t.stats:
            name = f"{t.layer}.{stat}"
            if name not in seen:
                seen.add(name)
                out.append((name, _UNITS[stat], "higher" if stat in _HIGHER else "lower"))
    return out


class Tracer:
    """In-memory span recorder; spans are ``[layer, start, end, parent, count]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------
    def _wrap(self, layer: str, fn: Callable, count: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [layer, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                rec[4] = count(args, kwargs, out)
            return out

        return traced

    @contextmanager
    def span(self, layer: str):
        """Record a span around benchmark-side work."""
        idx = len(self.spans)
        self.spans.append([layer, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = perf_counter()
            self._stack.pop()

    # -- patching ---------------------------------------------------------
    def install(self) -> None:
        """Wrap every target whose module is already loaded."""
        for t in TARGETS:
            if t.module not in sys.modules:
                continue
            mod = sys.modules[t.module]
            owner_name, _, attr = t.qualname.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                orig = owner.__dict__[attr]
                self._restore.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(t.layer, orig, t.count))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(t.layer, orig, t.count)
            for name, m in list(sys.modules.items()):
                if (name == t.module or name.startswith("repro.")) and getattr(m, attr, None) is orig:
                    self._restore.append((m, attr, orig))
                    setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- analysis ---------------------------------------------------------
    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def by_layer(self, first: int = 0) -> dict[str, dict]:
        """Per layer: calls, self and inclusive seconds, and the counts of
        spans from index ``first`` on. Inclusive time skips spans nested in
        a span of the same layer."""
        selfs = self.self_times()
        out: dict[str, dict] = {}
        for i in range(first, len(self.spans)):
            layer, start, end, parent, count = self.spans[i]
            d = out.setdefault(layer, {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "counts": []})
            d["calls"] += 1
            d["self_s"] += selfs[i]
            if not self._nested_in_same(i):
                d["incl_s"] += end - start
            if count is not None:
                d["counts"].append(count)
        return out

    def _nested_in_same(self, i: int) -> bool:
        layer, p = self.spans[i][0], self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == layer:
                return True
            p = self.spans[p][3]
        return False

    def write(self, path: Path) -> None:
        """Dump the spans as tab-separated rows: index, layer, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("idx\tlayer\tstart\tend\tparent\n")
            for i, (layer, start, end, parent, _) in enumerate(self.spans):
                fh.write(f"{i}\t{layer}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def per_layer(layers: dict[str, dict]) -> dict[str, tuple[float, str]]:
    """Every traced-layer metric of ``layer_metric_specs``; 0 when unused."""
    out: dict[str, tuple[float, str]] = {}
    for name, unit, _ in layer_metric_specs():
        layer, _, stat = name.rpartition(".")
        d = layers.get(layer)
        val = 0.0
        if d is not None:
            counts = d["counts"]
            if stat in ("calls", "self_s"):
                val = d[stat]
            elif stat == "rows_mean":
                val = sum(c[0] for c in counts) / len(counts) if counts else 0.0
            elif stat == "distinct_frac":
                returned = sum(c[2] for c in counts)
                val = sum(c[1] for c in counts) / returned if returned else 0.0
            elif stat == "nonfinite_frac":
                val = sum(counts) / len(counts) if counts else 0.0
            else:  # rows / candidates / queries: totals
                val = sum(counts)
        out[name] = (float(val), unit)
    return out

"""Simulator workloads: whole tuning campaigns on the simulated ARM cluster.

Each workload replays a fixed list of campaigns, closed-loop in one
process. A campaign is a pure function of its tuner seed and the
simulator's noise seed, and both are fixed at the Figure 11 values
(tuner seed 5, noise seed 3), so every run times the same work and the
charged hours and tuned times repeat exactly for unchanged code. The
workload seed only rotates where in the list a run starts.

The timed region runs whole passes over the list; ``common.pass_count``
turns ``--seconds`` into their number. Every segment between consecutive
charged runs is scaled to unloaded CPU speed by ``common.SpeedProbe``,
and each wall is composed from the segments' minima over the passes.
Every campaign
is checked: a finite time, a feasible recommendation, the same outcome on
every pass and, for the TPC-DS/300 GB campaigns, the charged hours of
``results/fig11_opttime_arm.txt``. On locat-sim, the LOCAT TPC-DS/300 GB
campaign of that file runs first, outside the timed region, as warm-up
and check.
"""
from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter

from perfbench.common import Outcome, SpeedProbe, median, tail

SEED, EXEC_SEED = 5, 3
CLUSTER = "arm"
#: Charged hours of the seed-5 TPC-DS/300 GB/ARM campaigns, as committed in
#: results/fig11_opttime_arm.txt (printed with six decimals there).
FIG11_H = {"LOCAT": 105.971079, "DAC": 797.671422, "GBO-RL": 475.843087, "QTune": 1053.120216}


@dataclass(frozen=True)
class Campaign:
    tuner: str
    benchmark: str
    sizes: tuple[float, ...]

    @property
    def fig11(self) -> float | None:
        """The committed charged hours this campaign must reproduce, if any."""
        if self.benchmark == "TPC-DS" and self.sizes == (300.0,):
            return FIG11_H[self.tuner]
        return None


def units(workload: str) -> list[tuple[Campaign, ...]]:
    """The fixed campaign list; one unit of work is one tuple."""
    from repro.experiments.common import BENCHMARKS

    if workload == "locat-sim":
        return [(Campaign("LOCAT", b, (100.0, 300.0, 500.0)),) for b in BENCHMARKS]
    if workload == "gborl-sim":
        return [(Campaign("GBO-RL", "TPC-DS", (300.0,)),)]
    if workload == "dac-qtune-sim":
        return [(Campaign("DAC", "TPC-DS", (300.0,)), Campaign("QTune", "TPC-DS", (300.0,)))]
    raise KeyError(workload)


def setup() -> None:
    """Imports and profile construction: the simulator workloads' set-up."""
    import repro.baselines  # noqa: F401
    import repro.core.locat  # noqa: F401
    import repro.experiments.common  # noqa: F401
    from repro.cluster.profiles import PROFILE_SETS

    PROFILE_SETS()


@dataclass
class Result:
    """What one campaign produced: the quality record and its trial stamps."""

    hours: float
    tuned: tuple[float, ...]
    runs: int
    feasible: bool
    stamps: list[float]

    @property
    def fingerprint(self) -> tuple:
        return (self.hours, self.tuned, self.runs)


def run_campaign(c: Campaign, probe: SpeedProbe | None = None) -> Result:
    """One campaign, built exactly like ``repro.experiments.common.run_campaign``.
    The start of every charged application run is stamped on ``probe``'s
    clock, which samples the CPU's speed there every ``EVERY_S``."""
    from repro.execmodel.sim_exec import make_executor
    from repro.experiments.common import cluster_for, make_tuner, space_for

    ex = make_executor(c.benchmark, cluster_for(CLUSTER), seed=EXEC_SEED)
    stamps: list[float] = []
    run = ex.run

    def stamped(*args, **kwargs):
        if probe is not None:
            probe.maybe_sample()
        stamps.append(probe.now() if probe is not None else perf_counter())
        return run(*args, **kwargs)

    ex.run = stamped
    tuner = make_tuner(c.tuner, space_for(CLUSTER), SEED)
    if len(c.sizes) == 1:
        results = [tuner.tune(ex, c.sizes[0])]
    else:
        results = list(tuner.tune_multi(ex, list(c.sizes)).values())
    return Result(
        hours=sum(r.opt_seconds for r in results) / 3600.0,
        tuned=tuple(r.best_time for r in results),
        runs=sum(r.n_runs for r in results),
        feasible=all(ex.is_feasible(r.best_conf) for r in results),
        stamps=stamps,
    )


def problems(c: Campaign, res: Result | None, reference: Result | None) -> list[str]:
    """Why a campaign's unit fails: it raised, gave a non-finite time,
    recommended an infeasible configuration, missed its Figure 11 hours,
    or differs from an earlier run of the same campaign."""
    name = f"{c.tuner}/{c.benchmark}/{'->'.join(f'{s:g}' for s in c.sizes)}"
    if res is None:
        return [f"{name}: raised"]
    out = []
    if not (math.isfinite(res.hours) and all(math.isfinite(t) and t > 0 for t in res.tuned)):
        out.append(f"{name}: non-finite time")
    if not res.feasible:
        out.append(f"{name}: infeasible recommendation")
    if c.fig11 is not None and round(res.hours, 6) != c.fig11:
        out.append(f"{name}: {res.hours:.6f} h, fig 11 has {c.fig11:.6f} h")
    if reference is not None and res.fingerprint != reference.fingerprint:
        out.append(f"{name}: differs from its first run")
    return out


@dataclass
class Timed:
    """The timed region: for every campaign, the wall segments of each pass
    (start -> first charged run -> ... -> last charged run -> end), scaled
    to unloaded speed."""

    segments: dict[Campaign, list[list[float]]]  # at unloaded speed
    unit_list: list[tuple[Campaign, ...]]
    wall: float  # the whole region, probing included
    raw_pass_wall: float  # one pass, mean over passes, as measured
    passes: int
    results: dict[Campaign, Result]
    slowdowns: list[float]

    def composed(self) -> dict[Campaign, list[float]]:
        """Each segment's minimum over the passes. The passes repeat the same
        computation, and interference from other tenants of the machine
        only adds time, so the minimum is the steadiest estimate of it."""
        return {c: [min(col) for col in zip(*runs)] for c, runs in self.segments.items() if runs}

    @property
    def pass_wall(self) -> float:
        """One pass over the campaign list, from the composed segments."""
        return sum(sum(segs) for segs in self.composed().values())


def timed_loop(workload: str, seed: int, passes: int, outcome: Outcome, *,
               tracer=None, reference: dict[Campaign, Result] | None = None) -> Timed:
    """``passes`` whole passes over the campaign list. Every campaign must
    reproduce its first run, or its run in ``reference``. Failures are
    recorded, not raised."""
    todo = units(workload)
    k = seed % len(todo)
    todo = todo[k:] + todo[:k]
    first: dict[Campaign, Result] = dict(reference or {})
    edges: dict[Campaign, list[list[float]]] = {c: [] for unit in todo for c in unit}
    probe = SpeedProbe(tracer.span if tracer else None)
    raw = 0.0
    t_start = perf_counter()
    for _ in range(passes):
        for unit in todo:
            why = []
            for c in unit:
                probe.maybe_sample()
                t0 = probe.now()
                try:
                    with tracer.span("bench.campaign") if tracer else nullcontext():
                        res = run_campaign(c, probe)
                except Exception as exc:  # a raising campaign is a failed unit
                    print(f"# {c.tuner}/{c.benchmark} raised {exc!r}", flush=True)
                    res = None
                t1 = probe.now()
                raw += t1 - t0
                why += problems(c, res, first.get(c))
                if res is not None:
                    edges[c].append([t0, *res.stamps, t1])
                    first.setdefault(c, res)
            outcome.record(not why, "; ".join(why))
    probe.sample()  # brackets the last campaign
    segments = {c: [probe.normalize(e) for e in runs] for c, runs in edges.items()}
    return Timed(segments, todo, perf_counter() - t_start, raw / passes, passes, first, probe.slowdowns)


def end_to_end(t: Timed) -> tuple[dict[str, tuple[float, str]], dict[str, str]]:
    """Walls from the composed segments: a unit is its campaigns' summed
    segments, a trial the segment that ends where a charged run starts."""
    comp = t.composed()
    unit_walls = [sum(sum(comp[c]) for c in unit) for unit in t.unit_list if all(c in comp for c in unit)]
    trial_walls = [x for segs in comp.values() for x in segs[:-1]]
    # the median of each campaign's median: a pooled median would sit on the
    # edge between two tuners' trial costs on dac-qtune-sim and flip
    trial_p50 = median([median(segs[:-1]) for segs in comp.values()])
    runs = sum(len(segs) - 1 for segs in comp.values())
    unit_tail, unit_label = tail(unit_walls)
    trial_tail, trial_label = tail(trial_walls)
    metrics = {
        "campaign_wall_p50_s": (median(unit_walls), "s"),
        "campaign_wall_tail_s": (unit_tail, "s"),
        "trial_wall_p50_s": (trial_p50, "s"),
        "trial_wall_tail_s": (trial_tail, "s"),
        "trials_per_s": (runs / sum(unit_walls), "1/s"),
    }
    notes = {
        "campaign_wall_tail_s": unit_label,
        "trial_wall_tail_s": trial_label,
        "timed_region": (f"{t.wall:.3f} s, {t.passes} passes of {len(t.unit_list)} units and {runs} charged runs; "
                         f"pass wall {t.raw_pass_wall:.3f} s measured, {t.pass_wall:.3f} s composed at unloaded speed"),
        "cpu_slowdown": f"median {median(t.slowdowns):.3f}, range {min(t.slowdowns):.3f}-{max(t.slowdowns):.3f} "
                        f"over {len(t.slowdowns)} probes",
    }
    return metrics, notes


def quality(t: Timed) -> dict[str, tuple[float, str]]:
    """Mean charged hours per campaign and mean noise-free time of the
    recommended configurations, over one pass of the campaign list."""
    res = list(t.results.values())
    tuned = [x for r in res for x in r.tuned]
    return {
        "sim_opt_h": (sum(r.hours for r in res) / len(res), "h") if res else (0.0, "h"),
        "sim_tuned_s": (sum(tuned) / len(tuned), "s") if tuned else (0.0, "s"),
    }


def warm_up(outcome: Outcome) -> None:
    """The LOCAT Figure 11 campaign, outside the timed region: finishes
    lazy set-up and checks the reproduction."""
    c = Campaign("LOCAT", "TPC-DS", (300.0,))
    try:
        res = run_campaign(c)
    except Exception as exc:  # a raising campaign is a failed unit
        print(f"# warm-up campaign raised {exc!r}", flush=True)
        res = None
    why = problems(c, res, None)
    outcome.record(not why, "; ".join(why))

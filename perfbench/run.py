"""Tuning-campaign wall-time benchmark of the LOCAT reproduction.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload locat-sim --seed 1 --seconds 10 --trace 0

Workloads: ``locat-sim``, ``gborl-sim``, ``dac-qtune-sim`` (whole tuning
campaigns on the simulated ARM cluster, see ``simwork.py``) and
``spark-replay`` (application runs on live local Spark, see
``sparkwork.py``). ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` repeats the timed work with every layer
wrapped by ``tracer.py`` and prints the per-layer metrics instead. The
last line of standard output is the result object; lines before it that
start with ``#`` record the environment, the tail sample counts and, on
traced runs, whether each prediction of ``predictions.json`` held.

Exits with code 2, printing no result, when the program's sources
(``src/repro``) are not in the checkout.
"""
from time import perf_counter

T0 = perf_counter()  # set-up is timed from the first statement

import argparse  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    OUT, ROOT, SPARK_LAYER, Outcome, SpeedProbe, emit, environment, median, pass_count, peak_rss_mb, pin_environment,
)

WORKLOADS = ("locat-sim", "gborl-sim", "dac-qtune-sim", "spark-replay")
#: Set-up samples per simulator run: this process plus fresh child processes.
SETUP_SAMPLES = 3


def parse(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.probe_setup and args.workload is None:
        p.error("--workload is required")
    return args


def sim_setup() -> float:
    """This process's set-up time so far, at unloaded CPU speed."""
    from perfbench import simwork

    simwork.setup()
    elapsed = perf_counter() - T0
    probe = SpeedProbe()
    probe.sample()
    return elapsed / probe.slowdowns[-1]


def setup_probe() -> float:
    """Set-up time of a fresh simulator-workload process."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup"],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(out.stdout.strip().splitlines()[-1])


def run_sim(args: argparse.Namespace) -> int:
    from perfbench import predictions, simwork
    from perfbench.tracer import Tracer, per_layer

    setups = [sim_setup()] + [setup_probe() for _ in range(SETUP_SAMPLES - 1)]
    outcome = Outcome()
    if args.workload == "locat-sim":
        simwork.warm_up(outcome)
    passes = pass_count(args.workload, args.seconds)
    timed = simwork.timed_loop(args.workload, args.seed, passes, outcome)
    metrics, notes = simwork.end_to_end(timed)
    notes["setup_samples_s"] = " ".join(f"{s:.4f}" for s in setups)
    if not args.trace:
        metrics = {"setup_s": (median(setups), "s"), **metrics, "peak_rss_mb": (peak_rss_mb(), "MB")}
    else:
        tracer = Tracer()
        tracer.install()
        try:
            traced = simwork.timed_loop(args.workload, args.seed, passes, outcome,
                                        tracer=tracer, reference=timed.results)
        finally:
            tracer.uninstall()
        layers = tracer.by_layer()
        metrics = {
            **per_layer(layers),
            **{name: (0.0, unit) for name, unit, _ in SPARK_LAYER},
            **simwork.quality(timed),
            "failed_frac": (outcome.failed_frac, "ratio"),
            "trace.overhead_frac": (traced.pass_wall / timed.pass_wall - 1.0, "ratio"),
        }
        notes.update(predictions.evaluate(args.workload, layers, traced.wall))
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write(spans)
        notes["spans"] = str(spans.relative_to(ROOT))
    emit(outcome, metrics, environment(), notes)
    return 0


def main(argv: list[str]) -> int:
    args = parse(argv)
    pin_environment()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.probe_setup:
        print(sim_setup())
        return 0
    if args.workload == "spark-replay":
        from perfbench import sparkwork

        return sparkwork.run(args, T0)
    return run_sim(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

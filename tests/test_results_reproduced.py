"""Committed simulator results are reproduced to their printed digits.

The simulator path is deterministic, so these rows pin the behaviour of
the simulator's run, evaluate and GC paths, ``repair`` (Tuneful),
``sample_feasible`` (DAC, LOCAT), GBRT (DAC) and QTune's featurized
path: a refactor that keeps them exact keeps the rows exact. The full
set is regenerated by ``pytest benchmarks/``.
"""
from pathlib import Path

import pytest

from repro.experiments.common import run_campaign

RESULTS = Path(__file__).resolve().parent.parent / "results"


def _rows(name: str) -> list[dict[str, str]]:
    """Rows of the first table in ``results/<name>``, as printed."""
    lines = (RESULTS / name).read_text().splitlines()
    header = lines[0].split()
    rows = []
    for line in lines[1:]:
        if not line.strip():
            break
        rows.append(dict(zip(header, line.split())))
    return rows


def _row(name: str, **key: str) -> dict[str, str]:
    (row,) = [r for r in _rows(name) if all(r[k] == v for k, v in key.items())]
    return row


@pytest.mark.parametrize(
    "tuner, row_tuner, column",
    [
        ("LOCAT", "Tuneful", "locat_opt_h"),
        ("Tuneful", "Tuneful", "sota_opt_h"),
        ("DAC", "DAC", "sota_opt_h"),
        ("QTune", "QTune", "sota_opt_h"),
    ],
)
def test_fig11_tpcds_opt_hours(tuner, row_tuner, column):
    row = _row("fig11_opttime_arm.txt", benchmark="TPC-DS", tuner=row_tuner)
    res, _ = run_campaign(tuner, "TPC-DS", "arm", 300.0, seed=5)
    assert f"{res.opt_seconds / 3600.0:.6f}" == row[column]


def test_fig19_tpcds_locat_gc_and_total():
    sizes = [100.0, 300.0, 500.0]
    multi, ex = run_campaign("LOCAT", "TPC-DS", "arm", sizes, seed=5)
    for ds in sizes:
        row = _row("fig19_gc_time.txt", benchmark="TPC-DS", tuner="LOCAT", ds_gb=str(int(ds)))
        r = ex.evaluate(multi[ds].best_conf, ds)
        assert (f"{r.gc_total:.6f}", f"{r.total:.6f}") == (row["gc_time_s"], row["total_time_s"])

"""Tests the traced run against ``predictions.json``."""
from __future__ import annotations

import json
import operator
from pathlib import Path

_OPS = {">=": operator.ge, "<=": operator.le, "==": operator.eq}


def _observed(check: dict, layers: dict[str, dict], wall: float) -> float:
    picked = [layers.get(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0}) for name in check["layers"]]
    stat = check["stat"]
    if stat == "calls":
        return float(sum(d["calls"] for d in picked))
    if stat == "self_share":
        return sum(d["self_s"] for d in picked) / wall
    if stat == "incl_share":
        return sum(d["incl_s"] for d in picked) / wall
    if stat == "self_rank":
        ranked = sorted((n for n in layers if not n.startswith("bench.")), key=lambda n: -layers[n]["self_s"])
        name = check["layers"][0]
        return float(ranked.index(name) + 1) if name in ranked else float("inf")
    raise ValueError(f"unknown stat {stat!r}")


def evaluate(workload: str, layers: dict[str, dict], wall: float) -> dict[str, str]:
    """Notes naming the largest self times and whether each check held."""
    spec = json.loads((Path(__file__).parent / "predictions.json").read_text())
    ranked = sorted((n for n in layers if not n.startswith("bench.")), key=lambda n: -layers[n]["self_s"])
    notes = {"top_self_share": ", ".join(f"{n} {layers[n]['self_s'] / wall:.1%}" for n in ranked[:6])}
    for i, check in enumerate(spec["checks"].get(workload, []), 1):
        got = _observed(check, layers, wall)
        held = _OPS[check["op"]](got, check["value"])
        notes[f"prediction {i}"] = (
            f"{check['claim']} [{check['stat']} {check['op']} {check['value']}]: "
            f"{'held' if held else 'NOT held'}, observed {got:.4g}"
        )
    return notes

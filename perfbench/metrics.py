"""The benchmark's metric names and units, read from ``BENCHMARK.json``.

Every workload reports every metric: the engine and the live stack
share one end-to-end vocabulary (a *unit of work* is an engine tick or
a serve request), and a per-layer metric of a layer a workload never
calls reads 0 there.  ``README.md`` says which end-to-end metric each
per-layer metric should move, and on which workload.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["SPEC", "END_TO_END", "PER_LAYER", "unit_of", "metric_block"]

SPEC = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text()
)
END_TO_END = tuple(m["name"] for m in SPEC["end_to_end"])
PER_LAYER = tuple(m["name"] for m in SPEC["per_layer"])

_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def unit_of(name: str) -> str:
    return _UNITS[name]


def metric_block(values: dict, names) -> dict:
    """``{name: {"value", "unit"}}`` for exactly ``names``, 0 if unset."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": _UNITS[name]}
        for name in names
    }

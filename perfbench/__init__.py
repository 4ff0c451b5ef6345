"""ctrldep benchmark harness: see run.py and README.md."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics listed in
    BENCHMARK.json, in its order; that file is the one list of metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}

"""The benchmark's workload and metric names, read from BENCHMARK.json at the
root of the checkout, the one place they are written down.
"""

import json
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])

# Printed by an untraced run (--trace 0).
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}

# Printed by a traced run (--trace 1).
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Self-test check families (the part of a check name before the first "/"),
# one per selftest.check_s.<family> metric.
_FAMILY = "selftest.check_s."
CHECK_FAMILIES = tuple(name[len(_FAMILY):] for name in PER_LAYER if name.startswith(_FAMILY))

# Per-layer metrics that count work: they must repeat exactly between traced
# runs of the same code and seed.
COUNTS = tuple(name for name, unit in PER_LAYER.items()
               if unit == "count" or name.endswith("_ratio"))

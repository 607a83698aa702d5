"""Compare two saved benchmark results metric by metric.

    python3 perfbench/compare.py OLD.json NEW.json

Each file is one saved by perfbench/run.py under .perfbench/results/.
Results measured on different kernel backends are refused (exit 2): the
compiled and pure kernels differ by 7x to 370x, so their timings say
nothing about a code change.  Otherwise prints, per metric, both values,
the change as a share of the old value and, for end-to-end metrics, the
verdict against the bound in BENCHMARK.json.  Exit 1 when an end-to-end
metric got worse by more than its bound.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class BackendMismatch(ValueError):
    pass


def compare(old, new, spec):
    """Rows (name, old, new, change, verdict) of two saved results."""
    if old["meta"]["backend"] != new["meta"]["backend"]:
        raise BackendMismatch(
            f"backends differ: {old['meta']['backend']} vs "
            f"{new['meta']['backend']}")
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    rows = []
    for name, cur in new["result"]["metrics"].items():
        prev = old["result"]["metrics"].get(name)
        if prev is None:
            continue
        a, b = prev["value"], cur["value"]
        change = (b - a) / a if a else 0.0
        verdict = ""
        if name in bounds:
            worse = change if bounds[name]["better"] == "lower" else -change
            verdict = "WORSE" if worse > bounds[name]["bound"] else "ok"
        rows.append((name, a, b, change, verdict))
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        rows = compare(old, new, spec)
    except BackendMismatch as exc:
        print(f"compare: refused, {exc}", file=sys.stderr)
        return 2
    for name, a, b, change, verdict in rows:
        print(f"{name:48s} {a:14.6g} {b:14.6g} {change:+8.1%} {verdict}")
    return 1 if any(row[4] == "WORSE" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

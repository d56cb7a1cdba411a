"""Per-layer metrics from traced replays (see tracing.py for the spans)."""

from __future__ import annotations

import statistics

SPANS = (
    "minimizer.load_trace", "minimizer.lift", "minimizer.minimize", "minimizer.spectrum",
    "minimizer.extension", "minimizer.oracle",
    "field.quadrature", "field.profile", "field.dump", "field.profile_csv",
    "kernels.sweep", "kernels.energy",
    "blowup.resample", "blowup.catalog", "blowup.report",
)
COUNTS = {
    "minimizer.modes_evaluated": "count", "minimizer.modes_total": "count",
    "kernels.sweeps": "count", "kernels.bytes_computed": "B",
    "field.dump_bytes": "B",
}
UNITS = {
    **{f"{name}_s": "s" for name in SPANS},
    **COUNTS,
    "cli.other_s": "s",
    "trace.overhead_s": "s",
}


def self_times(spans) -> dict[str, float]:
    """Per span name, the summed duration not covered by child spans.

    ``spans`` are (name, parent index, start, end) records; a parent index of
    -1 marks the root.
    """
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals: dict[str, float] = {}
    for (name, *_), t in zip(spans, own):
        totals[name] = totals.get(name, 0.0) + t
    return totals


def span_summary(replays: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, summed over replays."""
    out: dict[str, dict] = {}
    for rep in replays:
        if "error" in rep:
            continue
        for name, t in self_times(rep["spans"]).items():
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["self_s"] += t
        for name, _, start, end in rep["spans"]:
            out[name]["calls"] += 1
            out[name]["total_s"] += end - start
    return out


def layer_metrics(replays: list[dict], wall_s: float) -> dict[str, float]:
    """Medians over replays; ``wall_s`` is the untraced median wall time."""
    rows = []
    for rep in replays:
        if "error" in rep:
            continue
        own = self_times(rep["spans"])
        _, _, start, end = rep["spans"][0]
        row = {f"{name}_s": own.get(name, 0.0) for name in SPANS}
        row.update({name: rep["counts"].get(name, 0) for name in COUNTS})
        row["total"] = end - start
        row["layers"] = end - start - own["cli"]
        rows.append(row)
    if not rows:
        return {}
    metrics = {key: statistics.median(r[key] for r in rows) for key in UNITS
               if key in rows[0]}
    metrics["cli.other_s"] = wall_s - statistics.median(r["layers"] for r in rows)
    metrics["trace.overhead_s"] = statistics.median(r["total"] for r in rows) - wall_s
    return metrics

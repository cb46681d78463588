"""Plain-text dashboard rendered from one telemetry export document.

The report groups instruments by layer prefix (``service.``, ``wal.``,
``repl.``, ``workload.``), prints counters, gauges, and histogram
quantiles, summarizes spans and events, and draws ASCII time-series
charts for selected signals (WAL occupancy and breaker trips by
default) from the collector samples.
"""

from __future__ import annotations

_CHART_WIDTH = 50
_CHART_ROWS = 18

#: (kind, key) series charted when present in the samples.
CHARTS = (
    ("gauges", "wal.frames"),
    ("counters", "service.breaker_trips"),
)


def _fmt_ns(ns: int) -> str:
    if ns >= 1_000_000_000:
        return f"{ns / 1e9:.2f}s"
    if ns >= 1_000_000:
        return f"{ns / 1e6:.2f}ms"
    if ns >= 1_000:
        return f"{ns / 1e3:.1f}us"
    return f"{ns}ns"


def _layer(name: str) -> str:
    return name.split(".", 1)[0] if "." in name else "other"


def _render_kv_table(title: str, values: dict) -> list[str]:
    lines = [title, "-" * len(title)]
    by_layer: dict[str, list[tuple[str, int]]] = {}
    for name, value in sorted(values.items()):
        by_layer.setdefault(_layer(name), []).append((name, value))
    width = max((len(n) for n in values), default=0)
    for layer in sorted(by_layer):
        for name, value in by_layer[layer]:
            lines.append(f"  {name:<{width}}  {value:>12,}")
    return lines + [""]


def _render_histograms(histograms: dict) -> list[str]:
    title = "histograms (latency ns unless noted)"
    lines = [title, "-" * len(title)]
    if not histograms:
        return lines + ["  (none)", ""]
    width = max(len(n) for n in histograms)
    header = (
        f"  {'name':<{width}}  {'count':>8}  {'p50':>10}  {'p95':>10}  "
        f"{'p99':>10}  {'max':>10}"
    )
    lines.append(header)
    for name, snap in sorted(histograms.items()):
        is_count = name.endswith("_txns") or name.endswith("_count")
        fmt = (lambda v: f"{v:,}") if is_count else _fmt_ns
        lines.append(
            f"  {name:<{width}}  {snap['count']:>8,}  {fmt(snap['p50']):>10}  "
            f"{fmt(snap['p95']):>10}  {fmt(snap['p99']):>10}  "
            f"{fmt(snap['max']):>10}"
        )
    return lines + [""]


def _render_spans(spans: dict) -> list[str]:
    title = "spans"
    lines = [title, "-" * len(title)]
    lines.append(
        f"  {spans.get('count', 0):,} recorded, {spans.get('open', 0):,} left "
        f"open (crash/abandon), {spans.get('dropped', 0):,} dropped at cap"
    )
    by_name = spans.get("by_name", {})
    if by_name:
        width = max(len(n) for n in by_name)
        for name, agg in sorted(by_name.items()):
            mean = agg["total_ns"] // max(1, agg["count"])
            lines.append(
                f"  {name:<{width}}  {agg['count']:>8,}  "
                f"mean {_fmt_ns(mean):>10}  max {_fmt_ns(agg['max_ns']):>10}"
            )
    return lines + [""]


def _render_events(events: list) -> list[str]:
    title = "events"
    lines = [title, "-" * len(title)]
    if not events:
        return lines + ["  (none)", ""]
    by_name: dict[str, int] = {}
    for event in events:
        by_name[event["name"]] = by_name.get(event["name"], 0) + 1
    for name, count in sorted(by_name.items()):
        lines.append(f"  {name}: {count}")
    tail = events[-8:]
    lines.append(f"  last {len(tail)}:")
    for event in tail:
        fields = ", ".join(
            f"{k}={v}"
            for k, v in sorted(event.items())
            if k not in ("name", "at_ns")
        )
        lines.append(
            f"    t={_fmt_ns(event['at_ns']):>10}  {event['name']}  {fields}"
        )
    return lines + [""]


def _series_points(samples: list, kind: str, key: str) -> list[tuple[int, int]]:
    points = []
    for sample in samples:
        section = sample.get(kind, {})
        if key in section:
            points.append((sample["t_ns"], section[key]))
    return points


def render_chart(samples: list, kind: str, key: str) -> list[str]:
    """One ASCII bar chart of a sampled signal over simulated time."""
    points = _series_points(samples, kind, key)
    title = f"{key} over simulated time ({kind[:-1]})"
    lines = [title, "-" * len(title)]
    if not points:
        return lines + ["  (no samples carry this signal)", ""]
    # Down-sample evenly to at most _CHART_ROWS rows.
    step = max(1, len(points) // _CHART_ROWS)
    picked = points[::step]
    if picked[-1] != points[-1]:
        picked.append(points[-1])
    peak = max(value for _t, value in picked)
    for t_ns, value in picked:
        bar = "#" * (value * _CHART_WIDTH // peak if peak else 0)
        lines.append(f"  t={t_ns / 1e6:>9.2f}ms  {value:>10,} |{bar}")
    return lines + [""]


def render_report(doc: dict) -> str:
    """The full plain-text dashboard for one export document."""
    meta = doc.get("meta", {})
    metrics = doc.get("metrics", {})
    series = doc.get("series") or {}
    samples = series.get("samples", [])
    head = "telemetry report"
    lines = [head, "=" * len(head)]
    if meta:
        lines.append(
            "  " + "  ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        )
    if samples:
        span_ms = (samples[-1]["t_ns"] - samples[0]["t_ns"]) / 1e6
        lines.append(
            f"  {len(samples)} samples over {span_ms:.2f} simulated ms "
            f"(every {series.get('interval_ns', 0) / 1e6:.2f} ms)"
        )
    lines.append("")
    lines += _render_kv_table("counters", metrics.get("counters", {}))
    lines += _render_kv_table("gauges", metrics.get("gauges", {}))
    lines += _render_histograms(metrics.get("histograms", {}))
    lines += _render_spans(doc.get("spans", {}))
    lines += _render_events(doc.get("events", []))
    for kind, key in CHARTS:
        lines += render_chart(samples, kind, key)
    return "\n".join(lines)

"""Static HTML operations dashboard rendered from the run registry.

``repro dashboard`` turns a :class:`~repro.store.runstore.RunStore` —
its ``metrics_history`` rows (sampled by
:class:`~repro.obs.snapshot.MetricsSnapshotter`) plus the recorded runs
— into one self-contained HTML file: stat tiles, SVG traffic/cache/
queue charts, per-problem latency quantiles, the recent-run table, and
a slowest-traces explorer with per-trace span waterfalls (fed by the
``trace_spans`` table :mod:`repro.obs.trace` persists).
No third-party dependencies, no external assets, no scripts: the file
is inert and viewable from disk.

Chart series are derived from *counter deltas* between consecutive
snapshots (requests/s, evaluations/s), so restarting the server (which
resets the in-process counters) shows up as a clamped-to-zero dip
rather than a negative spike.
"""

from __future__ import annotations

import html
import math
from pathlib import Path

__all__ = ["render_dashboard", "write_dashboard"]

#: Data-series and surface colors (light, dark) — series identity uses
#: one blue (single-series charts); text wears ink tokens, never the
#: series color.
_PALETTE = {
    "series": ("#2a78d6", "#3987e5"),
    "surface": ("#fcfcfb", "#1a1a19"),
    "ink": ("#0b0b0b", "#ffffff"),
    "secondary": ("#52514e", "#c3c2b7"),
    "muted": ("#898781", "#898781"),
    "grid": ("#e1e0d9", "#2c2c2a"),
    "baseline": ("#c3c2b7", "#383835"),
    "error": ("#c43d3d", "#e05c5c"),
}

_CHART_W = 560
_CHART_H = 150
_PAD_L = 46
_PAD_R = 10
_PAD_T = 8
_PAD_B = 20


def _series_total(metrics: dict[str, float], name: str) -> float:
    """Sum every series of one family in a flat sample.

    Samples key labelled series as ``name{a="b"}``; summing across the
    labels gives the family total (e.g. all routes, all backends).
    """
    prefix = name + "{"
    return float(
        sum(
            value
            for key, value in metrics.items()
            if key == name or key.startswith(prefix)
        )
    )


def _rate_series(
    snapshots, name: str
) -> list[tuple[float, float]]:
    """Per-second increase of a counter family between snapshots."""
    points = []
    previous = None
    for snap in snapshots:
        total = _series_total(snap.metrics, name)
        if previous is not None:
            prev_t, prev_total = previous
            dt = snap.snapshot_at - prev_t
            if dt > 0:
                # A server restart resets counters; clamp the delta so
                # the chart dips to zero instead of going negative.
                rate = max(0.0, total - prev_total) / dt
                points.append((snap.snapshot_at, rate))
        previous = (snap.snapshot_at, total)
    return points


def _gauge_series(snapshots, name: str) -> list[tuple[float, float]]:
    """A gauge family's summed value at each snapshot."""
    return [
        (snap.snapshot_at, _series_total(snap.metrics, name))
        for snap in snapshots
    ]


def _hit_rate_series(snapshots) -> list[tuple[float, float]]:
    """Cache hit rate over each inter-snapshot window (counter deltas)."""
    points = []
    previous = None
    for snap in snapshots:
        hits = _series_total(snap.metrics, "repro_cache_hits_total")
        misses = _series_total(snap.metrics, "repro_cache_misses_total")
        if previous is not None:
            d_hits = max(0.0, hits - previous[0])
            d_misses = max(0.0, misses - previous[1])
            lookups = d_hits + d_misses
            if lookups > 0:
                points.append((snap.snapshot_at, d_hits / lookups))
        previous = (hits, misses)
    return points


def _format_value(value: float) -> str:
    if value != value or math.isinf(value):  # NaN / inf guard
        return "–"
    if abs(value) >= 1_000_000:
        return f"{value / 1_000_000:.1f}M"
    if abs(value) >= 10_000:
        return f"{value / 1000:.1f}k"
    if value == int(value):
        return str(int(value))
    if abs(value) >= 100:
        return f"{value:.0f}"
    if abs(value) >= 1:
        return f"{value:.2f}"
    return f"{value:.3f}"


def _format_clock(epoch: float) -> str:
    import datetime

    stamp = datetime.datetime.fromtimestamp(epoch)
    return stamp.strftime("%H:%M:%S")


def _format_date(epoch: float) -> str:
    import datetime

    stamp = datetime.datetime.fromtimestamp(epoch)
    return stamp.strftime("%Y-%m-%d %H:%M")


def _svg_chart(
    points: list[tuple[float, float]],
    unit: str = "",
    y_max_floor: float = 0.0,
) -> str:
    """One single-series SVG line chart (2px line, hover tooltips).

    The series is unnamed inside the plot — the card title names it, so
    no legend is needed.  One y-axis, min/max gridline labels, native
    ``<title>`` tooltips on enlarged hover targets.
    """
    if len(points) < 2:
        return (
            '<div class="placeholder">not enough samples yet — '
            "serve with <code>--snapshot-every</code> and a store, then "
            "re-render</div>"
        )
    xs = [t for t, _ in points]
    ys = [v for _, v in points]
    x_min, x_max = min(xs), max(xs)
    y_min = 0.0
    y_max = max(max(ys), y_max_floor)
    if y_max <= y_min:
        y_max = y_min + 1.0
    x_span = (x_max - x_min) or 1.0
    plot_w = _CHART_W - _PAD_L - _PAD_R
    plot_h = _CHART_H - _PAD_T - _PAD_B

    def sx(t: float) -> float:
        return _PAD_L + (t - x_min) / x_span * plot_w

    def sy(v: float) -> float:
        return _PAD_T + (1.0 - (v - y_min) / (y_max - y_min)) * plot_h

    coords = [(sx(t), sy(v)) for t, v in points]
    polyline = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
    dots = "".join(
        f'<circle cx="{x:.1f}" cy="{y:.1f}" r="8" class="hit">'
        f"<title>{_format_clock(t)} — {_format_value(v)}{unit}</title>"
        f"</circle>"
        for (x, y), (t, v) in zip(coords, points)
    )
    baseline_y = sy(y_min)
    mid_y = sy((y_min + y_max) / 2)
    top_y = sy(y_max)
    return (
        f'<svg viewBox="0 0 {_CHART_W} {_CHART_H}" role="img" '
        f'preserveAspectRatio="none">'
        f'<line class="grid" x1="{_PAD_L}" y1="{top_y:.1f}" '
        f'x2="{_CHART_W - _PAD_R}" y2="{top_y:.1f}"/>'
        f'<line class="grid" x1="{_PAD_L}" y1="{mid_y:.1f}" '
        f'x2="{_CHART_W - _PAD_R}" y2="{mid_y:.1f}"/>'
        f'<line class="axis" x1="{_PAD_L}" y1="{baseline_y:.1f}" '
        f'x2="{_CHART_W - _PAD_R}" y2="{baseline_y:.1f}"/>'
        f'<text class="tick" x="{_PAD_L - 6}" y="{top_y + 4:.1f}" '
        f'text-anchor="end">{_format_value(y_max)}{unit}</text>'
        f'<text class="tick" x="{_PAD_L - 6}" y="{baseline_y + 4:.1f}" '
        f'text-anchor="end">{_format_value(y_min)}</text>'
        f'<text class="tick" x="{_PAD_L}" y="{_CHART_H - 6}">'
        f"{_format_clock(x_min)}</text>"
        f'<text class="tick" x="{_CHART_W - _PAD_R}" y="{_CHART_H - 6}" '
        f'text-anchor="end">{_format_clock(x_max)}</text>'
        f'<polyline class="series" points="{polyline}"/>'
        f"{dots}"
        f"</svg>"
    )


def _stat_tiles(snapshots, runs) -> str:
    latest = snapshots[-1].metrics if snapshots else {}
    hits = _series_total(latest, "repro_cache_hits_total")
    misses = _series_total(latest, "repro_cache_misses_total")
    lookups = hits + misses
    tiles = (
        ("HTTP requests", _series_total(latest, "repro_http_requests_total"), ""),
        ("Evaluations", _series_total(latest, "repro_evaluations_total"), ""),
        (
            "Cache hit rate",
            (hits / lookups * 100) if lookups else float("nan"),
            "%",
        ),
        (
            "Jobs done",
            _series_total(latest, 'repro_jobs_total{status="done"}'),
            "",
        ),
        ("Rejected", _series_total(latest, "repro_admission_rejected_total"), ""),
        ("Recorded runs", float(len(runs)), ""),
    )
    cells = "".join(
        f'<div class="tile"><div class="tile-value">'
        f"{_format_value(value)}{unit}</div>"
        f'<div class="tile-label">{html.escape(label)}</div></div>'
        for label, value, unit in tiles
    )
    return f'<div class="tiles">{cells}</div>'


def _quantile(sample: list[float], q: float) -> float:
    if not sample:
        return float("nan")
    ordered = sorted(sample)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def _latency_table(runs) -> str:
    """Per-problem campaign wall-time quantiles from recorded runs."""
    by_problem: dict[str, list[float]] = {}
    for record in runs:
        if record.status == "done":
            by_problem.setdefault(record.problem, []).append(
                record.wall_time_s
            )
    if not by_problem:
        return '<div class="placeholder">no finished runs recorded yet</div>'
    rows = "".join(
        f"<tr><td>{html.escape(problem)}</td>"
        f'<td class="num">{len(sample)}</td>'
        f'<td class="num">{_quantile(sample, 0.5):.2f}</td>'
        f'<td class="num">{_quantile(sample, 0.95):.2f}</td>'
        f'<td class="num">{_quantile(sample, 0.99):.2f}</td></tr>'
        for problem, sample in sorted(by_problem.items())
    )
    return (
        "<table><thead><tr><th>problem</th>"
        '<th class="num">runs</th><th class="num">p50 (s)</th>'
        '<th class="num">p95 (s)</th><th class="num">p99 (s)</th>'
        f"</tr></thead><tbody>{rows}</tbody></table>"
    )


def _runs_table(runs) -> str:
    if not runs:
        return '<div class="placeholder">no runs recorded yet</div>'
    rows = "".join(
        f"<tr><td><code>{html.escape(record.run_id)}</code></td>"
        f"<td>{html.escape(record.problem)}</td>"
        f"<td>{html.escape(record.status)}</td>"
        f"<td>{html.escape(record.strategy or '-')}</td>"
        f'<td class="num">{len(record.specs)}</td>'
        f'<td class="num">{record.front_size}</td>'
        f'<td class="num">{record.evaluations}</td>'
        f'<td class="num">{record.wall_time_s:.2f}</td>'
        f"<td>{_format_date(record.created_at)}</td></tr>"
        for record in runs
    )
    return (
        "<table><thead><tr><th>run</th><th>problem</th><th>status</th>"
        '<th>strategy</th>'
        '<th class="num">specs</th><th class="num">front</th>'
        '<th class="num">evals</th><th class="num">wall (s)</th>'
        f"<th>recorded</th></tr></thead><tbody>{rows}</tbody></table>"
    )


def _snapshot_table(snapshots, limit: int = 10) -> str:
    """Table view of the charted history (accessibility fallback)."""
    if not snapshots:
        return '<div class="placeholder">no metrics history yet</div>'
    recent = snapshots[-limit:]
    rows = "".join(
        f"<tr><td>{_format_date(snap.snapshot_at)}</td>"
        f"<td>{html.escape(snap.source)}</td>"
        f'<td class="num">'
        f'{_format_value(_series_total(snap.metrics, "repro_http_requests_total"))}'
        f"</td>"
        f'<td class="num">'
        f'{_format_value(_series_total(snap.metrics, "repro_evaluations_total"))}'
        f"</td>"
        f'<td class="num">'
        f'{_format_value(_series_total(snap.metrics, "repro_queue_depth"))}'
        f"</td></tr>"
        for snap in recent
    )
    return (
        "<table><thead><tr><th>sampled</th><th>source</th>"
        '<th class="num">requests</th><th class="num">evals</th>'
        '<th class="num">queue depth</th></tr></thead>'
        f"<tbody>{rows}</tbody></table>"
    )


#: Waterfall layout: per-span row height / bar height and the most
#: spans one trace card draws (deep GA traces stay readable).
_ROW_H = 18
_BAR_H = 12
_WATERFALL_SPAN_CAP = 48


def _format_ms(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000.0:.1f}ms"


def _traces_table(traces: list[dict]) -> str:
    """Slowest persisted traces, one row each."""
    if not traces:
        return (
            '<div class="placeholder">no traces recorded yet — serve '
            "with a store (tracing is on by default), then re-render</div>"
        )
    rows = "".join(
        f"<tr><td><code>{html.escape(t['trace_id'])}</code></td>"
        f"<td>{html.escape(t.get('name') or '')}</td>"
        f"<td>{html.escape(t.get('status') or 'ok')}</td>"
        f'<td class="num">{t.get("span_count", 0)}</td>'
        f'<td class="num">{_format_ms(t.get("duration_s") or 0.0)}</td>'
        f"<td>{html.escape(t.get('run_id') or '-')}</td>"
        f"<td>{_format_date(t.get('start_time') or 0.0)}</td></tr>"
        for t in traces
    )
    return (
        "<table><thead><tr><th>trace</th><th>root</th><th>status</th>"
        '<th class="num">spans</th><th class="num">duration</th>'
        f"<th>run</th><th>started</th></tr></thead><tbody>{rows}</tbody>"
        "</table>"
    )


def _trace_waterfall(spans: list[dict]) -> str:
    """One trace's spans as an SVG Gantt (offset + width = timing).

    Rows keep start-time order; labels indent by tree depth so the
    request → campaign → spec → generation nesting reads without
    connectors.  Error spans use the error color; every bar carries a
    native tooltip with name, duration, category, and thread.
    """
    if not spans:
        return '<div class="placeholder">trace has no recorded spans</div>'
    rows = sorted(spans, key=lambda s: (s["start_time"], s["span_id"]))
    clipped = max(0, len(rows) - _WATERFALL_SPAN_CAP)
    rows = rows[:_WATERFALL_SPAN_CAP]
    t0 = min(r["start_time"] for r in rows)
    t1 = max(r["start_time"] + max(r["duration_s"], 0.0) for r in rows)
    window = (t1 - t0) or 1e-9
    by_id = {r["span_id"]: r for r in rows}

    def depth_of(row: dict) -> int:
        depth, parent, seen = 0, row.get("parent_id"), set()
        while parent in by_id and parent not in seen:
            seen.add(parent)
            depth += 1
            parent = by_id[parent].get("parent_id")
        return depth

    plot_w = _CHART_W - _PAD_L - _PAD_R
    height = _PAD_T + len(rows) * _ROW_H + _PAD_B
    bars = []
    for index, row in enumerate(rows):
        x = _PAD_L + (row["start_time"] - t0) / window * plot_w
        w = max(1.5, max(row["duration_s"], 0.0) / window * plot_w)
        y = _PAD_T + index * _ROW_H + (_ROW_H - _BAR_H) / 2
        errored = row.get("status") == "error"
        label = f"{'· ' * depth_of(row)}{row.get('name', 'span')}"
        detail = (
            f"{row.get('name', 'span')} — "
            f"{_format_ms(max(row.get('duration_s', 0.0), 0.0))}"
            f" [{row.get('category') or 'app'}]"
            + (f" on {row['thread']}" if row.get("thread") else "")
            + (f" — {row['error']}" if row.get("error") else "")
        )
        # The label sits after short bars and before bars pinned to the
        # right edge, so text never paints over the bar itself.
        if x + w + 6 <= _CHART_W - _PAD_R - 30:
            label_x, anchor = x + w + 4, "start"
        else:
            label_x, anchor = x - 4, "end"
        bars.append(
            f'<rect class="bar{" error" if errored else ""}" '
            f'x="{x:.1f}" y="{y:.1f}" width="{w:.1f}" height="{_BAR_H}">'
            f"<title>{html.escape(detail)}</title></rect>"
            f'<text class="bar-label" x="{label_x:.1f}" '
            f'y="{y + _BAR_H - 2.5:.1f}" text-anchor="{anchor}">'
            f"{html.escape(label)}</text>"
        )
    axis_y = _PAD_T + len(rows) * _ROW_H + 2
    note = (
        f'<text class="tick" x="{_PAD_L}" y="{height - 6}">'
        f"+{clipped} spans not drawn</text>"
        if clipped
        else f'<text class="tick" x="{_PAD_L}" y="{height - 6}">0</text>'
    )
    end_label = (
        f'<text class="tick" x="{_CHART_W - _PAD_R}" y="{height - 6}" '
        f'text-anchor="end">{_format_ms(window)}</text>'
    )
    return (
        f'<svg viewBox="0 0 {_CHART_W} {height}" role="img">'
        f'<line class="axis" x1="{_PAD_L}" y1="{axis_y}" '
        f'x2="{_CHART_W - _PAD_R}" y2="{axis_y}"/>'
        f"{''.join(bars)}{note}{end_label}</svg>"
    )


def _traces_section(store, traces_limit: int) -> str:
    """Slowest-traces table plus waterfalls for the top three."""
    try:
        traces = store.trace_list(limit=200)
    except Exception:  # pre-trace registry or store without the table
        traces = []
    slowest = sorted(
        traces, key=lambda t: t.get("duration_s") or 0.0, reverse=True
    )[:traces_limit]
    parts = [_traces_table(slowest)]
    for summary in slowest[:3]:
        spans = store.trace_spans(summary["trace_id"])
        title = (
            f"{summary.get('name') or 'trace'} — "
            f"{_format_ms(summary.get('duration_s') or 0.0)} "
            f"({summary['trace_id']})"
        )
        parts.append(
            f'<div class="card"><h3>{html.escape(title)}</h3>'
            f"{_trace_waterfall(spans)}</div>"
        )
    return "".join(parts)


def _css() -> str:
    light = {name: pair[0] for name, pair in _PALETTE.items()}
    dark = {name: pair[1] for name, pair in _PALETTE.items()}

    def block(colors: dict[str, str]) -> str:
        return (
            f"--series:{colors['series']};--surface:{colors['surface']};"
            f"--ink:{colors['ink']};--secondary:{colors['secondary']};"
            f"--muted:{colors['muted']};--grid:{colors['grid']};"
            f"--baseline:{colors['baseline']};--error:{colors['error']};"
        )

    return f"""
:root {{ {block(light)} }}
@media (prefers-color-scheme: dark) {{ :root {{ {block(dark)} }} }}
[data-theme="light"] {{ {block(light)} }}
[data-theme="dark"] {{ {block(dark)} }}
* {{ box-sizing: border-box; }}
body {{
  margin: 0; padding: 24px; background: var(--surface); color: var(--ink);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}}
h1 {{ font-size: 20px; margin: 0 0 2px; }}
.subtitle {{ color: var(--secondary); margin: 0 0 20px; }}
h2 {{ font-size: 15px; margin: 26px 0 10px; }}
.tiles {{ display: flex; flex-wrap: wrap; gap: 12px; }}
.tile {{
  border: 1px solid var(--grid); border-radius: 8px;
  padding: 12px 16px; min-width: 128px;
}}
.tile-value {{ font-size: 22px; font-weight: 600; }}
.tile-label {{ color: var(--secondary); font-size: 12px; }}
.charts {{
  display: grid; gap: 16px;
  grid-template-columns: repeat(auto-fit, minmax(320px, 1fr));
}}
.card {{
  border: 1px solid var(--grid); border-radius: 8px; padding: 12px 14px;
}}
.card h3 {{
  font-size: 13px; margin: 0 0 8px; color: var(--secondary);
  font-weight: 600;
}}
svg {{ width: 100%; height: auto; display: block; }}
.series {{ fill: none; stroke: var(--series); stroke-width: 2; }}
.grid {{ stroke: var(--grid); stroke-width: 1; }}
.axis {{ stroke: var(--baseline); stroke-width: 1; }}
.tick {{ fill: var(--muted); font-size: 10px; }}
.hit {{ fill: transparent; }}
.hit:hover {{ fill: var(--series); fill-opacity: 0.25; }}
.bar {{ fill: var(--series); fill-opacity: 0.85; }}
.bar.error {{ fill: var(--error); }}
.bar:hover {{ fill-opacity: 1; }}
.bar-label {{ fill: var(--secondary); font-size: 10px; }}
table {{ border-collapse: collapse; width: 100%; }}
th, td {{
  text-align: left; padding: 6px 10px;
  border-bottom: 1px solid var(--grid);
}}
th {{ color: var(--secondary); font-weight: 600; font-size: 12px; }}
td.num, th.num {{
  text-align: right; font-variant-numeric: tabular-nums;
}}
code {{ font-size: 12px; }}
.placeholder {{
  color: var(--muted); border: 1px dashed var(--grid);
  border-radius: 8px; padding: 18px; text-align: center;
}}
footer {{ color: var(--muted); font-size: 12px; margin-top: 28px; }}
"""


def render_dashboard(
    store,
    title: str = "repro operations",
    history_limit: int = 500,
    runs_limit: int = 15,
    traces_limit: int = 8,
) -> str:
    """Render the operations dashboard as one self-contained HTML page.

    Args:
        store: a :class:`~repro.store.runstore.RunStore`.
        title: page heading.
        history_limit: most recent metrics snapshots charted.
        runs_limit: rows in the recent-runs table.
        traces_limit: rows in the slowest-traces table (the three
            slowest also get a span waterfall).
    """
    snapshots = store.metrics_history(limit=history_limit)
    runs = store.list_runs(limit=max(runs_limit, 200))
    charts = (
        ("Requests / s", _svg_chart(_rate_series(snapshots, "repro_http_requests_total"), "/s")),
        ("Evaluations / s", _svg_chart(_rate_series(snapshots, "repro_evaluations_total"), "/s")),
        (
            "Cache hit rate",
            _svg_chart(_hit_rate_series(snapshots), "", y_max_floor=1.0),
        ),
        (
            "Queue depth",
            _svg_chart(
                _gauge_series(snapshots, "repro_queue_depth"), "",
                y_max_floor=1.0,
            ),
        ),
    )
    cards = "".join(
        f'<div class="card"><h3>{html.escape(name)}</h3>{svg}</div>'
        for name, svg in charts
    )
    window = ""
    if snapshots:
        window = (
            f"{len(snapshots)} snapshots, "
            f"{_format_date(snapshots[0].snapshot_at)} – "
            f"{_format_date(snapshots[-1].snapshot_at)}"
        )
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{html.escape(title)}</title>
<style>{_css()}</style>
</head>
<body>
<h1>{html.escape(title)}</h1>
<p class="subtitle">{html.escape(window) or "no metrics history recorded"}</p>
{_stat_tiles(snapshots, runs)}
<h2>Traffic</h2>
<div class="charts">{cards}</div>
<h2>Campaign latency by problem</h2>
{_latency_table(runs)}
<h2>Recent runs</h2>
{_runs_table(runs[:runs_limit])}
<h2>Slowest traces</h2>
{_traces_section(store, traces_limit)}
<h2>Recent snapshots</h2>
{_snapshot_table(snapshots)}
<footer>rendered by <code>repro dashboard</code> from the run
registry; metrics are sampled by the serving process
(<code>repro serve --store … --snapshot-every …</code>).</footer>
</body>
</html>
"""


def write_dashboard(store, path: str | Path, **kwargs) -> Path:
    """Render and write the dashboard; returns the output path."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render_dashboard(store, **kwargs), encoding="utf-8")
    return out

"""Minimal SVG 1.1 line plots, no plotting dependency.

Renders polyline series with axes, ticks, an optional horizontal reference
rule, and an optional log-scale y axis. Output is deterministic: coordinates
are formatted with fixed precision so identical data produces identical
bytes.
"""

import math

WIDTH, HEIGHT = 720, 460
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72, 24, 44, 52

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def escape(text):
    """Escape &, < and > for SVG text. xml.sax.saxutils.escape makes the same
    bytes, but importing it loads urllib, http.client, ssl and email."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(x):
    return f"{x:.2f}"


def _nice_ticks(lo, hi, n=5):
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return [0.0, 1.0]
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    v = start
    while v <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return ticks or [lo, hi]


def _tick_label(v, logy):
    if logy:
        return f"1e{int(round(v))}"
    return f"{v:.6g}"


def line_plot(path, series, title="", xlabel="", ylabel="", logy=False, hline=None,
              hline_label=None):
    """Write a line plot to path.

    series: list of (label, xs, ys). With logy, non-positive y values are
    dropped from the drawing (they have no finite log position); hline is a
    horizontal reference value in data units.
    """
    pts_all = []
    for _, xs, ys in series:
        for x, y in zip(xs, ys):
            if not (math.isfinite(x) and math.isfinite(y)):
                continue
            if logy and y <= 0.0:
                continue
            pts_all.append((float(x), math.log10(y) if logy else float(y)))
    hval = None
    if hline is not None and math.isfinite(hline) and not (logy and hline <= 0.0):
        hval = math.log10(hline) if logy else float(hline)

    if pts_all:
        xlo = min(p[0] for p in pts_all)
        xhi = max(p[0] for p in pts_all)
        ylo = min(p[1] for p in pts_all)
        yhi = max(p[1] for p in pts_all)
    else:
        xlo, xhi, ylo, yhi = 0.0, 1.0, 0.0, 1.0
    if hval is not None:
        ylo, yhi = min(ylo, hval), max(yhi, hval)
    if xhi <= xlo:
        xhi = xlo + 1.0
    if yhi <= ylo:
        yhi = ylo + 1.0
    ypad = 0.05 * (yhi - ylo)
    ylo -= ypad
    yhi += ypad

    iw = WIDTH - MARGIN_L - MARGIN_R
    ih = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + iw * (x - xlo) / (xhi - xlo)

    def sy(y):
        return MARGIN_T + ih * (1.0 - (y - ylo) / (yhi - ylo))

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
               f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">')
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    if title:
        out.append(f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="15">{escape(title)}</text>')
    # axes box
    out.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{iw}" height="{ih}" '
               f'fill="none" stroke="#333" stroke-width="1"/>')

    if logy:
        yticks = [v for v in range(math.floor(ylo), math.ceil(yhi) + 1)]
        yticks = [float(v) for v in yticks if ylo <= v <= yhi] or _nice_ticks(ylo, yhi)
    else:
        yticks = _nice_ticks(ylo, yhi)
    for v in yticks:
        y = sy(v)
        out.append(f'<line x1="{MARGIN_L}" y1="{_fmt(y)}" x2="{MARGIN_L + iw}" '
                   f'y2="{_fmt(y)}" stroke="#ddd" stroke-width="1"/>')
        out.append(f'<text x="{MARGIN_L - 6}" y="{_fmt(y + 4)}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">'
                   f'{escape(_tick_label(v, logy))}</text>')
    for v in _nice_ticks(xlo, xhi):
        x = sx(v)
        out.append(f'<line x1="{_fmt(x)}" y1="{MARGIN_T + ih}" x2="{_fmt(x)}" '
                   f'y2="{MARGIN_T + ih + 4}" stroke="#333" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(x)}" y="{MARGIN_T + ih + 18}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{v:.6g}</text>')
    if xlabel:
        out.append(f'<text x="{MARGIN_L + iw / 2:.0f}" y="{HEIGHT - 12}" '
                   f'text-anchor="middle" font-family="sans-serif" font-size="12">'
                   f'{escape(xlabel)}</text>')
    if ylabel:
        cx, cy = 18, MARGIN_T + ih / 2
        out.append(f'<text x="{cx}" y="{cy:.0f}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="12" '
                   f'transform="rotate(-90 {cx} {cy:.0f})">{escape(ylabel)}</text>')

    if hval is not None:
        y = sy(hval)
        out.append(f'<line x1="{MARGIN_L}" y1="{_fmt(y)}" x2="{MARGIN_L + iw}" '
                   f'y2="{_fmt(y)}" stroke="#555" stroke-width="1" '
                   f'stroke-dasharray="6,4"/>')
        if hline_label:
            out.append(f'<text x="{MARGIN_L + iw - 4}" y="{_fmt(y - 5)}" '
                       f'text-anchor="end" font-family="sans-serif" font-size="11" '
                       f'fill="#555">{escape(hline_label)}</text>')

    for idx, (label, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        pts = []
        for x, y in zip(xs, ys):
            if not (math.isfinite(x) and math.isfinite(y)):
                continue
            if logy and y <= 0.0:
                continue
            yy = math.log10(y) if logy else y
            pts.append(f"{_fmt(sx(x))},{_fmt(sy(yy))}")
        if pts:
            out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                       f'points="{" ".join(pts)}"/>')
        ly = MARGIN_T + 16 + 15 * idx
        out.append(f'<line x1="{MARGIN_L + iw - 130}" y1="{ly - 4}" '
                   f'x2="{MARGIN_L + iw - 110}" y2="{ly - 4}" stroke="{color}" '
                   f'stroke-width="2"/>')
        out.append(f'<text x="{MARGIN_L + iw - 105}" y="{ly}" '
                   f'font-family="sans-serif" font-size="11">{escape(label)}</text>')

    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")

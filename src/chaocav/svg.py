"""Self-contained SVG charts: multi-series lines and filled contours.

No external assets, scripts or fonts; everything is plain shapes and
text so the files can be archived alongside the CSV output.
"""

from __future__ import annotations

import html
import math

import numpy as np

#: Fidelity level that render_contour_chart traces as an iso line.
ISO_LEVEL = 0.95

LINE_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf")

_PALETTE = (
    (0.00, (68, 1, 84)),
    (0.17, (70, 50, 126)),
    (0.33, (54, 92, 141)),
    (0.50, (39, 127, 142)),
    (0.67, (31, 161, 135)),
    (0.83, (74, 193, 109)),
    (1.00, (253, 231, 37)),
)


_KNOT_U = np.array([k[0] for k in _PALETTE])
_KNOT_RGB = np.array([k[1] for k in _PALETTE], dtype=float)


#: Two lowercase hex digits of each byte value, as ASCII codes.
_HEX = np.array([list(b"%02x" % i) for i in range(256)], dtype=np.uint8)


def _ascii(texts):
    """(N, width) ASCII codes of the texts, right-padded with 0 bytes."""
    return np.array(texts, dtype="S").view(np.uint8).reshape(len(texts), -1)


def _heat_rgb(u):
    """Palette colour of each value in u, clamped to [0, 1], as (N, 3) ints.

    Linear between knots, channels rounded half to even; a value on a
    knot takes the segment that ends there.
    """
    u = np.asarray(u, dtype=float)
    u = np.where(u > 0.0, u, 0.0)
    u = np.where(u < 1.0, u, 1.0)
    k = np.searchsorted(_KNOT_U[1:], u, side="left")
    w = (u - _KNOT_U[k]) / (_KNOT_U[k + 1] - _KNOT_U[k])
    c0 = _KNOT_RGB[k]
    return np.rint(c0 + w[:, None] * (_KNOT_RGB[k + 1] - c0)).astype(int)


def _nice_ticks(lo, hi):
    # About six round-number ticks covering [lo, hi].
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return [0.0, 1.0]
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next((c * mag for c in (1.0, 2.0, 2.5, 5.0, 10.0) if c * mag >= raw), 10.0 * mag)
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        if v + step == v:  # a span a few ulps wide: step is below half an ulp of v
            break
        v += step
    return ticks or [lo, hi]


def _fmt_tick(v):
    if v == int(v) and abs(v) < 1e6:
        return str(int(v))
    return f"{v:.4g}"


def _span(values):
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return 0.0, 1.0
    lo = float(finite.min())
    hi = float(finite.max())
    if hi <= lo:
        pad = 0.5 if lo == 0.0 else abs(lo) * 0.05
        return lo - pad, hi + pad
    return lo, hi


def escape(text):
    """Text with &, < and > replaced by XML entities; quotes stay as they are."""
    return html.escape(text, quote=False)


class _Frame:
    """Pixel mapping and shared chrome (axes, ticks, labels) for one chart."""

    def __init__(self, width, height, ml, mr, mt, mb, x_range, y_range):
        self.width = width
        self.height = height
        self.ml, self.mr, self.mt, self.mb = ml, mr, mt, mb
        self.pw = width - ml - mr
        self.ph = height - mt - mb
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range

    def px(self, x):
        return self.ml + (x - self.x0) / (self.x1 - self.x0) * self.pw

    def py(self, y):
        return self.mt + self.ph - (y - self.y0) / (self.y1 - self.y0) * self.ph

    def open_tag(self):
        return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
                f'height="{self.height}" viewBox="0 0 {self.width} {self.height}" '
                f'font-family="sans-serif">\n'
                f'<rect width="{self.width}" height="{self.height}" fill="white"/>\n')

    def chrome(self, title, xlabel, ylabel, grid=True):
        parts = []
        for tx in _nice_ticks(self.x0, self.x1):
            if not (self.x0 <= tx <= self.x1):
                continue
            x = self.px(tx)
            if grid:
                parts.append(f'<line x1="{x:.2f}" y1="{self.mt}" x2="{x:.2f}" '
                             f'y2="{self.mt + self.ph}" stroke="#dddddd" stroke-width="1"/>')
            parts.append(f'<text x="{x:.2f}" y="{self.mt + self.ph + 18}" font-size="12" '
                         f'text-anchor="middle">{_fmt_tick(tx)}</text>')
        for ty in _nice_ticks(self.y0, self.y1):
            if not (self.y0 <= ty <= self.y1):
                continue
            y = self.py(ty)
            if grid:
                parts.append(f'<line x1="{self.ml}" y1="{y:.2f}" x2="{self.ml + self.pw}" '
                             f'y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>')
            parts.append(f'<text x="{self.ml - 8}" y="{y + 4:.2f}" font-size="12" '
                         f'text-anchor="end">{_fmt_tick(ty)}</text>')
        parts.append(f'<rect x="{self.ml}" y="{self.mt}" width="{self.pw}" '
                     f'height="{self.ph}" fill="none" stroke="#333333" stroke-width="1"/>')
        if title:
            parts.append(f'<text x="{self.width / 2:.0f}" y="24" font-size="15" '
                         f'text-anchor="middle">{escape(title)}</text>')
        if xlabel:
            parts.append(f'<text x="{self.ml + self.pw / 2:.0f}" y="{self.height - 12}" '
                         f'font-size="13" text-anchor="middle">{escape(xlabel)}</text>')
        if ylabel:
            yc = self.mt + self.ph / 2
            parts.append(f'<text x="18" y="{yc:.0f}" font-size="13" text-anchor="middle" '
                         f'transform="rotate(-90 18 {yc:.0f})">{escape(ylabel)}</text>')
        return "\n".join(parts) + "\n"


def render_line_chart(series, title="", xlabel="", ylabel=""):
    """720 x 480 SVG string for labeled (x, y) series; NaN samples break the line."""
    if not series:
        raise ValueError("need at least one series")
    xs = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    frame = _Frame(720, 480, 72, 26, 44, 54, _span(xs), _span(ys))
    out = [frame.open_tag(), frame.chrome(title, xlabel, ylabel)]
    for k, (label, sx, sy) in enumerate(series):
        color = LINE_COLORS[k % len(LINE_COLORS)]
        sx = np.asarray(sx, dtype=float)
        sy = np.asarray(sy, dtype=float)
        good = np.isfinite(sx) & np.isfinite(sy)
        # Runs of finite samples: a lone point is a dot, a longer run a
        # polyline. One format string per series takes every point in a
        # single %.
        edges = np.flatnonzero(np.diff(good, prepend=False, append=False))
        parts = []
        for n in (edges[1::2] - edges[0::2]).tolist():
            if n == 1:
                parts.append(f'<circle cx="%.2f" cy="%.2f" r="2" fill="{color}"/>\n')
            else:
                parts.append('<polyline points="' + " ".join(["%.2f,%.2f"] * n)
                             + f'" fill="none" stroke="{color}" stroke-width="1.6"/>\n')
        points = np.column_stack([frame.px(sx[good]), frame.py(sy[good])])
        out.append("".join(parts) % tuple(points.ravel().tolist()))
        ly = frame.mt + 16 + 16 * k
        lx = frame.ml + frame.pw - 150
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="2"/>\n')
        out.append(f'<text x="{lx + 28}" y="{ly}" font-size="12">{escape(str(label))}</text>\n')
    out.append("</svg>\n")
    return "".join(out)


_MS_SEGMENTS = {
    1: ((3, 0),), 2: ((0, 1),), 3: ((3, 1),), 4: ((1, 2),),
    6: ((0, 2),), 7: ((3, 2),), 8: ((2, 3),), 9: ((0, 2),),
    11: ((1, 2),), 12: ((1, 3),), 13: ((0, 1),), 14: ((3, 0),),
}


def _iso_segments(x, y, z, level):
    # Marching squares on the node grid; ambiguous cells split by the
    # cell-center value. Only cells with four finite corners that the
    # level crosses are visited, in row-major order.
    quad = (z[:-1, :-1], z[:-1, 1:], z[1:, 1:], z[1:, :-1])
    finite = np.all(np.isfinite(quad), axis=0)
    masks = sum((c >= level).astype(int) << k for k, c in enumerate(quad))
    segs = []
    for i, j in zip(*np.nonzero(finite & (masks != 0) & (masks != 15))):
        v = (z[i, j], z[i, j + 1], z[i + 1, j + 1], z[i + 1, j])
        mask = int(masks[i, j])
        corners = ((x[j], y[i]), (x[j + 1], y[i]),
                   (x[j + 1], y[i + 1]), (x[j], y[i + 1]))

        def cross(edge):
            a, b = edge, (edge + 1) % 4
            va, vb = v[a], v[b]
            w = 0.5 if vb == va else (level - va) / (vb - va)
            return (corners[a][0] + w * (corners[b][0] - corners[a][0]),
                    corners[a][1] + w * (corners[b][1] - corners[a][1]))

        if mask in (5, 10):
            center_in = (sum(v) / 4.0) >= level
            if mask == 5:
                pairs = ((1, 0), (3, 2)) if center_in else ((3, 0), (1, 2))
            else:
                pairs = ((0, 3), (2, 1)) if center_in else ((0, 1), (2, 3))
        else:
            pairs = _MS_SEGMENTS[mask]
        for ea, eb in pairs:
            segs.append((cross(ea), cross(eb)))
    return segs


def render_contour_chart(x, y, z, title="", xlabel="", ylabel=""):
    """760 x 520 SVG filled contour of z[i, j] sampled at (y[i], x[j]), plus an iso line.

    Cells are painted with the mean of their corner values; the ISO_LEVEL
    line is overlaid with marching squares and a colorbar sits on the right.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if z.shape != (y.size, x.size):
        raise ValueError(f"z must have shape (len(y), len(x)) = {(y.size, x.size)}, got {z.shape}")
    if x.size < 2 or y.size < 2:
        raise ValueError("need at least a 2x2 grid")
    frame = _Frame(760, 520, 72, 96, 44, 54, (float(x[0]), float(x[-1])),
                   (float(y[0]), float(y[-1])))
    vlo, vhi = _span(z)
    out = [frame.open_tag()]
    # Each cell is painted with the mean of its finite corners, summed in
    # corner order as Python's sum() would.
    corners = (z[:-1, :-1], z[:-1, 1:], z[1:, :-1], z[1:, 1:])
    total = 0.0
    count = 0
    for c in corners:
        ok = np.isfinite(c)
        total = total + np.where(ok, c, 0.0)
        count = count + ok
    painted = count > 0
    mean = total[painted] / count[painted]
    rgb = _heat_rgb((mean - vlo) / (vhi - vlo))
    xa = frame.px(x[:-1])
    width_px = frame.px(x[1:]) - xa
    ya = frame.py(y[:-1])
    yb = frame.py(y[1:])
    top = np.where(ya >= yb, yb, ya)
    hgt = np.where(ya >= yb, ya - yb, yb - ya)
    # A cell's x and width text belong to its column and its y and height
    # text to its row, so each is formatted once. The cells' text is
    # gathered from those pieces as bytes, with no Python object per cell:
    # a string per cell left a long-running process's resident memory
    # about 1 MB higher.
    rows, cols = np.nonzero(painted)
    pieces = (_ascii(['<rect x="%.2f" y="' % v for v in xa.tolist()])[cols],
              _ascii(["%.2f" % v for v in top.tolist()])[rows],
              _ascii(['" width="%.2f" height="' % v for v in width_px.tolist()])[cols],
              _ascii(['%.2f" fill="#' % v for v in hgt.tolist()])[rows],
              _HEX[rgb].reshape(-1, 6),
              np.broadcast_to(np.frombuffer(b'"/>\n', dtype=np.uint8), (rows.size, 4)))
    out.append(np.concatenate(pieces, axis=1).tobytes().replace(b"\0", b"").decode("ascii"))
    for (xa, ya), (xb, yb) in _iso_segments(x, y, z, ISO_LEVEL):
        out.append(f'<line x1="{frame.px(xa):.2f}" y1="{frame.py(ya):.2f}" '
                   f'x2="{frame.px(xb):.2f}" y2="{frame.py(yb):.2f}" '
                   f'stroke="white" stroke-width="1.5"/>\n')
    out.append(frame.chrome(title, xlabel, ylabel, grid=False))
    bar_x = frame.ml + frame.pw + 24
    steps = 32
    bar_rgb = _heat_rgb(np.arange(steps) / steps + 0.5 / steps)
    for k, (r, g, b) in enumerate(bar_rgb.tolist()):
        top = frame.mt + frame.ph * (1.0 - (k + 1) / steps)
        out.append(f'<rect x="{bar_x}" y="{top:.2f}" width="16" '
                   f'height="{frame.ph / steps + 0.5:.2f}" fill="#{r:02x}{g:02x}{b:02x}"/>\n')
    out.append(f'<rect x="{bar_x}" y="{frame.mt}" width="16" height="{frame.ph}" '
               f'fill="none" stroke="#333333" stroke-width="1"/>\n')
    out.append(f'<text x="{bar_x + 22}" y="{frame.mt + frame.ph + 4}" '
               f'font-size="11">{_fmt_tick(vlo)}</text>\n')
    out.append(f'<text x="{bar_x + 22}" y="{frame.mt + 10}" font-size="11">{_fmt_tick(vhi)}</text>\n')
    if vlo < ISO_LEVEL < vhi:
        ly = frame.mt + frame.ph * (1.0 - (ISO_LEVEL - vlo) / (vhi - vlo))
        out.append(f'<line x1="{bar_x}" y1="{ly:.2f}" x2="{bar_x + 16}" y2="{ly:.2f}" '
                   f'stroke="white" stroke-width="2"/>\n')
        out.append(f'<text x="{bar_x + 22}" y="{ly + 4:.2f}" '
                   f'font-size="11">{_fmt_tick(ISO_LEVEL)}</text>\n')
    out.append("</svg>\n")
    return "".join(out)

"""Minimal self-contained SVG line charts.

Produces a single <svg> document with no external references: background,
axes with tick labels, one polyline per series, and a legend.  Intended for
quick inspection of sweep output, not for publication polish.
"""

from __future__ import annotations

import html
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

_WIDTH = 720
_HEIGHT = 480
_MARGIN_LEFT = 72
_MARGIN_RIGHT = 18
_MARGIN_TOP = 30
_MARGIN_BOTTOM = 56

#: The narrowest extent an axis maps as it is.  Near 1e-306 its pixel scale
#: overflows and near 1e-323 its tick step rounds to 0; narrower is flat.
_NARROWEST = 1e-300

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
)


@dataclass(frozen=True)
class ChartSeries:
    "One labelled line: parallel x and y sequences of equal length >= 2."

    label: str
    x: Tuple[float, ...]
    y: Tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "y", tuple(float(v) for v in self.y))
        if len(self.x) != len(self.y):
            raise ValueError(
                f"series {self.label!r}: x and y lengths differ "
                f"({len(self.x)} vs {len(self.y)})"
            )
        if len(self.x) < 2:
            raise ValueError(f"series {self.label!r} needs at least two points")
        for v in self.x + self.y:
            if not math.isfinite(v):
                raise ValueError(f"series {self.label!r} contains non-finite values")


def _nice_step(raw: float) -> float:
    "Round a raw tick interval up to a 1/2/5 multiple of a power of ten."
    exponent = math.floor(math.log10(raw))
    base = 10.0**exponent
    for mult in (1.0, 2.0, 5.0):
        if raw <= mult * base:
            return mult * base
    return 10.0 * base


def _linear_ticks(lo: float, hi: float, target: int = 6) -> List[float]:
    if not hi - lo >= _NARROWEST:
        return [lo]
    step = _nice_step((hi - lo) / max(target - 1, 1))
    first = math.ceil(lo / step)
    last = math.floor(hi / step)
    return [i * step for i in range(first, last + 1)]


def _log_ticks(lo: float, hi: float) -> List[float]:
    "Decade ticks within [lo, hi]; endpoint fallback when fewer than two fit."
    first = math.ceil(math.log10(lo) - 1e-12)
    last = math.floor(math.log10(hi) + 1e-12)
    ticks = [10.0**k for k in range(first, last + 1)]
    if len(ticks) < 2:
        return [lo, hi] if hi > lo else [lo]
    return ticks


def _mapper(lo: float, hi: float, pix_lo: float, pix_hi: float, log: bool):
    "The affine map from data coordinates to the pixel plot box."
    if log:
        lo, hi = math.log10(lo), math.log10(hi)
    if not hi - lo >= _NARROWEST:
        # Flat extent, or too narrow to map: pad so the line sits mid-box.
        pad = max(abs(lo) * 0.05, 0.5)
        lo, hi = lo - pad, hi + pad
    scale = (pix_hi - pix_lo) / (hi - lo)

    def to_pixel(value: float) -> float:
        return pix_lo + ((math.log10(value) if log else value) - lo) * scale

    return to_pixel


def _text(x, y, size: int, body: str, anchor: str = "", transform: str = "") -> str:
    "An SVG text element; ``x`` and ``y`` come formatted."
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    transform = f' transform="{transform}"' if transform else ""
    return (
        f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
        f'font-size="{size}"{transform}>{html.escape(body, quote=False)}</text>'
    )


def _line(x1, y1, x2, y2, stroke: str = "#dddddd", width: str = "1") -> str:
    "An SVG line element; the coordinates come formatted."
    return (
        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
        f'stroke="{stroke}" stroke-width="{width}"/>'
    )


def render_line_chart(
    series: Sequence[ChartSeries],
    x_label: str,
    y_label: str,
    title: str = "",
    log_x: bool = False,
) -> str:
    """Render the series as a complete SVG document string.

    With ``log_x`` every x value must be positive.  The y axis is always
    linear.  Output is deterministic for identical inputs.
    """
    if not series:
        raise ValueError("at least one series is required")
    if log_x:
        for s in series:
            if min(s.x) <= 0:
                raise ValueError(
                    f"series {s.label!r} has non-positive x; log axis impossible"
                )

    x_lo = min(min(s.x) for s in series)
    x_hi = max(max(s.x) for s in series)
    y_lo = min(min(s.y) for s in series)
    y_hi = max(max(s.y) for s in series)
    if y_hi > y_lo:
        pad = 0.04 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

    box_left = _MARGIN_LEFT
    box_right = _WIDTH - _MARGIN_RIGHT
    box_top = _MARGIN_TOP
    box_bottom = _HEIGHT - _MARGIN_BOTTOM
    map_x = _mapper(x_lo, x_hi, box_left, box_right, log_x)
    map_y = _mapper(y_lo, y_hi, box_bottom, box_top, False)

    parts: List[str] = []
    parts.append(
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    parts.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    if title:
        parts.append(_text(f"{_WIDTH / 2:.1f}", 19, 14, title, "middle"))

    x_ticks = _log_ticks(x_lo, x_hi) if log_x else _linear_ticks(x_lo, x_hi)
    for t in x_ticks:
        px = f"{map_x(t):.2f}"
        parts.append(_line(px, box_top, px, box_bottom))
        parts.append(_text(px, box_bottom + 18, 11, f"{t:g}", "middle"))
    for t in _linear_ticks(y_lo, y_hi):
        py = map_y(t)
        parts.append(_line(box_left, f"{py:.2f}", box_right, f"{py:.2f}"))
        parts.append(_text(box_left - 6, f"{py + 4:.2f}", 11, f"{t:g}", "end"))

    parts.append(
        f'<rect x="{box_left}" y="{box_top}" width="{box_right - box_left}" '
        f'height="{box_bottom - box_top}" fill="none" stroke="black" '
        'stroke-width="1"/>'
    )
    x_mid = f"{(box_left + box_right) / 2:.1f}"
    parts.append(_text(x_mid, _HEIGHT - 12, 12, x_label, "middle"))
    y_mid = f"{(box_top + box_bottom) / 2:.1f}"
    parts.append(
        _text(16, y_mid, 12, y_label, "middle", f"rotate(-90 16 {y_mid})")
    )

    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(
            f"{map_x(xv):.2f},{map_y(yv):.2f}" for xv, yv in zip(s.x, s.y)
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            'stroke-width="1.8"/>'
        )

    legend_x = box_left + 12
    legend_y = box_top + 10
    for i, s in enumerate(series):
        y = legend_y + 18 * i
        parts.append(
            _line(legend_x, y, legend_x + 26, y, _PALETTE[i % len(_PALETTE)], "1.8")
        )
        parts.append(_text(legend_x + 32, y + 4, 11, s.label))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"

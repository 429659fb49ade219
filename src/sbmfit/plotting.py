"""Minimal self-contained SVG line plots for sweep summaries.

Mean with a +/- one standard error bar per grid point, one polyline per
objective. Output bytes are deterministic for deterministic input.
"""

from .errors import ParameterError

_WIDTH, _HEIGHT = 640, 420
_MARGIN = 56
_COLORS = {"ml": "#1f77b4", "icl": "#d62728"}


def _scale(value, lo, hi, out_lo, out_hi):
    if hi <= lo:
        return 0.5 * (out_lo + out_hi)
    return out_lo + (value - lo) / (hi - lo) * (out_hi - out_lo)


def _fmt(x):
    return f"{x:.6g}"


def sweep_plot_svg(summary, x_label, title=""):
    """Render summary rows (SummaryRow objects) into an SVG string."""
    if not summary:
        raise ParameterError("nothing to plot")
    xs = sorted({row.grid for row in summary})
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, 1.0

    def px(x):
        return _scale(x, x_lo, x_hi, _MARGIN, _WIDTH - _MARGIN)

    def py(y):
        return _scale(y, y_lo, y_hi, _HEIGHT - _MARGIN, _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = py(frac)
        parts.append(
            f'<text x="{_MARGIN - 8}" y="{_fmt(y + 4)}" font-size="11" '
            f'text-anchor="end">{_fmt(frac)}</text>'
        )
        parts.append(
            f'<line x1="{_MARGIN - 4}" y1="{_fmt(y)}" x2="{_MARGIN}" y2="{_fmt(y)}" stroke="black"/>'
        )
    for x in xs:
        xp = px(x)
        parts.append(
            f'<text x="{_fmt(xp)}" y="{_HEIGHT - _MARGIN + 18}" font-size="11" '
            f'text-anchor="middle">{_fmt(x)}</text>'
        )
        parts.append(
            f'<line x1="{_fmt(xp)}" y1="{_HEIGHT - _MARGIN}" x2="{_fmt(xp)}" '
            f'y2="{_HEIGHT - _MARGIN + 4}" stroke="black"/>'
        )
    parts.append(
        f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 12}" font-size="13" '
        f'text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{_HEIGHT // 2}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {_HEIGHT // 2})">mean NMI</text>'
    )
    if title:
        parts.append(
            f'<text x="{_WIDTH // 2}" y="24" font-size="14" text-anchor="middle">{title}</text>'
        )

    by_obj = {}
    for row in summary:
        by_obj.setdefault(row.objective, []).append(row)
    for oi, objective in enumerate(sorted(by_obj)):
        rows = sorted(by_obj[objective], key=lambda r: r.grid)
        color = _COLORS.get(objective, "#2ca02c")
        points = " ".join(f"{_fmt(px(r.grid))},{_fmt(py(r.mean_nmi))}" for r in rows)
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        for r in rows:
            xp, yp = px(r.grid), py(r.mean_nmi)
            y1, y2 = py(min(1.0, r.mean_nmi + r.se_nmi)), py(max(0.0, r.mean_nmi - r.se_nmi))
            parts.append(
                f'<line x1="{_fmt(xp)}" y1="{_fmt(y1)}" x2="{_fmt(xp)}" y2="{_fmt(y2)}" '
                f'stroke="{color}"/>'
            )
            parts.append(f'<circle cx="{_fmt(xp)}" cy="{_fmt(yp)}" r="2.5" fill="{color}"/>')
        ly = _MARGIN + 16 * oi
        parts.append(
            f'<line x1="{_WIDTH - _MARGIN - 90}" y1="{ly}" x2="{_WIDTH - _MARGIN - 70}" '
            f'y2="{ly}" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_WIDTH - _MARGIN - 64}" y="{ly + 4}" font-size="12">{objective}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

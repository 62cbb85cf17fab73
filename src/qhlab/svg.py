"""Standalone SVG emission for domains, decompositions, and curves.

Figures are built from named layers; every layer becomes one ``<g>`` group so
viewers can toggle families independently.  The file carries a reproducibility
comment (package version, fixture, resolution, seed) so a figure can be
regenerated from its header alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from xml.sax.saxutils import escape

import numpy as np

from .decomposition import CoreTentacleDecomposition, rectangle_cover
from .grid import GridDomain
from .whitney import WhitneyDecomposition

# distinguishable fills for dyadic levels (cycled)
LEVEL_COLORS = (
    "#1b9e77", "#d95f02", "#7570b3", "#e7298a",
    "#66a61e", "#e6ab02", "#a6761d", "#666666",
)
PIXELS = 720  # a figure's width or height, whichever is longer
GEODESIC_STROKE = "#d62728"


@dataclass
class SvgLayer:
    name: str
    elements: list[str] = dfield(default_factory=list)

    def rect(self, x: float, y: float, w: float, h: float, *,
             fill: str = "none", stroke: str = "none",
             stroke_width: float = 0.002, opacity: float = 1.0) -> None:
        self.elements.append(
            f'<rect x="{x:.6g}" y="{y:.6g}" width="{w:.6g}" height="{h:.6g}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="{stroke_width:.6g}" '
            f'opacity="{opacity:.3g}"/>'
        )

    def polyline(self, points: np.ndarray, *, stroke: str = "#000000"
                 ) -> None:
        pts = " ".join(f"{x:.6g},{y:.6g}" for x, y in np.asarray(points))
        self.elements.append(
            f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="0.004" stroke-linejoin="round"/>'
        )

    def circle(self, x: float, y: float, r: float, *,
               fill: str = "#000000") -> None:
        self.elements.append(
            f'<circle cx="{x:.6g}" cy="{y:.6g}" r="{r:.6g}" fill="{fill}"/>'
        )


def emit_svg(layers: list[SvgLayer], path, extent: tuple[float, float],
             header: dict | None = None) -> None:
    """Write a standalone SVG file; an empty layer list yields a valid
    (blank) document.  ``extent`` is the physical (width, height)."""
    w, h = extent
    scale = PIXELS / max(w, h, 1e-12)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{w * scale:.0f}" height="{h * scale:.0f}" '
        f'viewBox="0 0 {w:.6g} {h:.6g}">',
    ]
    if header:
        meta = " ".join(f"{k}={escape(str(v))}" for k, v in sorted(header.items()))
        lines.append(f"<!-- reproducibility: {meta} -->")
    for layer in layers:
        lines.append(f'<g id="{escape(layer.name)}">')
        lines.extend("  " + el for el in layer.elements)
        lines.append("</g>")
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _cover_layer(name: str, cell_sets: list[np.ndarray],
                 shape: tuple[int, int], h: float, **style) -> SvgLayer:
    """The ``rectangle_cover`` of each (n, 2) cell set of a bitmap of the
    given shape, set by set, at grid spacing h."""
    layer = SvgLayer(name)
    cover = rectangle_cover(cell_sets, shape)
    for i0, j0, ni, nj in zip(*(a.tolist() for a in cover[1:])):
        layer.rect(i0 * h, j0 * h, ni * h, nj * h, **style)
    return layer


def domain_layers(domain: GridDomain) -> list[SvgLayer]:
    """Interior fill plus the base point marker."""
    fill = _cover_layer("interior", [np.argwhere(domain.interior)],
                        domain.shape, domain.h, fill="#dddddd")
    marker = SvgLayer("base_point")
    marker.circle((domain.x0[0] + 0.5) * domain.h,
                  (domain.x0[1] + 0.5) * domain.h, 2 * domain.h,
                  fill="#d62728")
    return [fill, marker]


def whitney_layers(dec: WhitneyDecomposition) -> list[SvgLayer]:
    """Cube outlines colored by dyadic level; flagged cells in their own
    layer."""
    by_level: dict[int, SvgLayer] = {}
    flagged = SvgLayer("flagged")
    q = dec.cubes
    for (x0, y0), l, side, flag in zip((q.corner * dec.domain.h).tolist(),
                                       q.l.tolist(), q.side.tolist(),
                                       q.flagged.tolist()):
        if flag:
            flagged.rect(x0, y0, l, l, fill="#f4a582", opacity=0.8)
            continue
        level = side.bit_length() - 1
        layer = by_level.setdefault(level, SvgLayer(f"level_{level}"))
        layer.rect(x0, y0, l, l,
                   stroke=LEVEL_COLORS[level % len(LEVEL_COLORS)])
    return [by_level[k] for k in sorted(by_level)] + [flagged]


def decomposition_layers(ct: CoreTentacleDecomposition) -> list[SvgLayer]:
    """Core, band cubes, haloes, thick/thin components, tentacle outlines."""
    dec, h, shape = ct.dec, ct.domain.h, ct.domain.shape
    core = _cover_layer("core", [np.argwhere(ct.core_mask)], shape, h,
                        fill="#c6dbef")

    band = SvgLayer("band")
    for (x0, y0), l in zip((dec.cubes.corner[ct.P] * h).tolist(),
                           dec.cubes.l[ct.P].tolist()):
        band.rect(x0, y0, l, l, fill="#2171b5", opacity=0.5, stroke="#08306b")

    haloes = _cover_layer("haloes", [ct.halo[i] for i in ct.P], shape, h,
                          fill="#9ecae1", opacity=0.35)
    thick = _cover_layer(
        "components_thick",
        [np.argwhere(ct.component_mask(lab)) for lab in ct.U_ids], shape, h,
        fill="#a1d99b", opacity=0.5)
    thin = _cover_layer(
        "components_thin",
        [np.argwhere(ct.component_mask(lab)) for lab in ct.V_ids], shape, h,
        fill="#fdae6b", opacity=0.6)
    tentacles = _cover_layer(
        "tentacles", [np.argwhere(ct.tentacle_mask(g)) for g in ct.groups],
        shape, h, stroke="#d62728", stroke_width=0.003)
    return [core, haloes, band, thick, thin, tentacles]


def geodesic_layer(geodesics) -> SvgLayer:
    layer = SvgLayer("geodesics")
    for g in geodesics:
        layer.polyline(g.points, stroke=GEODESIC_STROKE)
    return layer


def triangle_layer(qh, cells: tuple) -> SvgLayer:
    """Geodesic triangle overlay (the thin-triangles argmax witness)."""
    layer = SvgLayer("delta_triangle")
    a, b, c = cells
    for x, y in ((a, b), (a, c), (b, c)):
        layer.polyline(qh.geodesic(x, y).points, stroke="#756bb1")
    for x in cells:
        layer.circle((x[0] + 0.5) * qh.domain.h, (x[1] + 0.5) * qh.domain.h,
                     1.5 * qh.domain.h, fill="#54278f")
    return layer


def curve_layers(xs, ys_by_name: dict, extent: tuple[float, float]
                 ) -> list[SvgLayer]:
    """Log-scale decay curves normalized into the given physical extent."""
    w, h = extent
    xs = np.asarray(xs, dtype=float)
    layers = [SvgLayer("axes")]
    layers[0].rect(0, 0, w, h, stroke="#999999", stroke_width=0.004)
    finite = [np.log10(np.maximum(np.asarray(v, dtype=float), 1e-300))
              for v in ys_by_name.values() if len(v)]
    if not finite or len(xs) < 2:
        return layers
    lo = min(v.min() for v in finite)
    hi = max(v.max() for v in finite)
    span = max(hi - lo, 1e-9)
    for idx, (name, vals) in enumerate(sorted(ys_by_name.items())):
        if not len(vals):
            continue
        vv = np.log10(np.maximum(np.asarray(vals, dtype=float), 1e-300))
        px = (xs - xs.min()) / max(xs.max() - xs.min(), 1e-9) * w
        py = h - (vv - lo) / span * h
        layer = SvgLayer(f"curve_{name}")
        layer.polyline(np.column_stack([px, py]),
                       stroke=LEVEL_COLORS[idx % len(LEVEL_COLORS)])
        layers.append(layer)
    return layers

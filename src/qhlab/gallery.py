"""Analytic fixture generators, all living in the unit bounding box [0,1]^2.

Every generator rasterizes an analytic region by testing cell centers, so a
fixture refines consistently under h -> h/2.  Slit/wall widths are physical
constants (not cell counts) for the same reason; punctured lattices are the
deliberate exception (single-cell punctures are the point of that control).
"""

from __future__ import annotations

import numpy as np

from .grid import GridDomain

DEFAULT_H = 1.0 / 128


def _centers(h: float) -> tuple[np.ndarray, np.ndarray, int]:
    n = int(round(1.0 / h))
    c = (np.arange(n) + 0.5) * h
    px, py = np.meshgrid(c, c, indexing="ij")
    return px, py, n


def _build(mask: np.ndarray, h: float, x0_point, name: str) -> GridDomain:
    raw = np.floor(np.asarray(x0_point) / h).astype(int)
    return GridDomain(mask, h, (int(raw[0]), int(raw[1])), name=name, trim=True)


def disk(h: float = DEFAULT_H, radius: float = 0.47, center=(0.5, 0.5)) -> GridDomain:
    px, py, _ = _centers(h)
    mask = (px - center[0]) ** 2 + (py - center[1]) ** 2 < radius**2
    return _build(mask, h, center, "disk")


def square(h: float = DEFAULT_H, margin: float = 0.06) -> GridDomain:
    px, py, _ = _centers(h)
    mask = (px > margin) & (px < 1 - margin) & (py > margin) & (py < 1 - margin)
    return _build(mask, h, (0.5, 0.5), "square")


def slit_disk(
    h: float = DEFAULT_H,
    radius: float = 0.47,
    center=(0.5, 0.5),
    slit_width: float = 0.012,
) -> GridDomain:
    """Disk minus the horizontal slit from the center to the right rim.

    The slit has fixed physical width; below the resolution where a cell
    center falls inside it the slit is widened to one cell so the fixture
    never silently degenerates to a plain disk.
    """
    slit_width = max(slit_width, 1.001 * h)
    px, py, _ = _centers(h)
    mask = (px - center[0]) ** 2 + (py - center[1]) ** 2 < radius**2
    slit = (px >= center[0]) & (np.abs(py - center[1]) <= slit_width / 2)
    mask &= ~slit
    return _build(mask, h, (center[0] - radius / 2, center[1]), "slit_disk")


def spiral(
    h: float = DEFAULT_H,
    turns: float = 2.25,
    wall_width: float = 0.016,
    margin: float = 0.06,
) -> GridDomain:
    """Square chamber with an archimedean spiral wall winding around the center."""
    px, py, _ = _centers(h)
    mask = (px > margin) & (px < 1 - margin) & (py > margin) & (py < 1 - margin)
    theta = np.linspace(0.0, 2 * np.pi * turns, max(64, int(16 * turns / h * 0.5)))
    r0, r1 = 0.10, 0.40
    rr = r0 + (r1 - r0) * theta / theta[-1]
    wx, wy = 0.5 + rr * np.cos(theta), 0.5 + rr * np.sin(theta)
    pts = np.column_stack([px.ravel(), py.ravel()])
    # mark cells within wall_width/2 of the sampled spiral curve; the query
    # searches only below a bound just above that radius (the bound is
    # strict), and farther cells read inf
    from scipy.spatial import cKDTree

    tree = cKDTree(np.column_stack([wx, wy]))
    half = wall_width / 2
    dist, _ = tree.query(pts, k=1,
                         distance_upper_bound=np.nextafter(half, np.inf))
    wall = dist <= half
    mask &= ~wall.reshape(px.shape)
    return _build(mask, h, (0.5, 0.5), "spiral")


def dumbbell(h: float = DEFAULT_H, neck_width: float = 0.06) -> GridDomain:
    px, py, _ = _centers(h)
    left = (px > 0.06) & (px < 0.42) & (py > 0.28) & (py < 0.72)
    right = (px > 0.58) & (px < 0.94) & (py > 0.28) & (py < 0.72)
    neck = (
        (px >= 0.40)
        & (px <= 0.60)
        & (np.abs(py - 0.5) < neck_width / 2)
    )
    return _build(left | right | neck, h, (0.24, 0.5), "dumbbell")


def comb(
    h: float = DEFAULT_H,
    teeth: int = 6,
    tooth_width: float = 0.016,
    margin: float = 0.06,
    depth: float = 0.64,
) -> GridDomain:
    """Square with evenly spaced slits reaching down from the top edge."""
    px, py, _ = _centers(h)
    mask = (px > margin) & (px < 1 - margin) & (py > margin) & (py < 1 - margin)
    xs = margin + (np.arange(1, teeth + 1) / (teeth + 1)) * (1 - 2 * margin)
    for x in xs:
        slit = (np.abs(px - x) <= tooth_width / 2) & (py >= 1 - margin - depth)
        mask &= ~slit
    return _build(mask, h, (0.5, margin + 0.5 * (1 - 2 * margin - depth)), "comb")


def punctured_square(
    h: float = DEFAULT_H, spacing: float = 0.125, margin: float = 0.06
) -> GridDomain:
    """Square minus the single cell nearest each point of a square lattice."""
    px, py, n = _centers(h)
    mask = (px > margin) & (px < 1 - margin) & (py > margin) & (py < 1 - margin)
    ticks = np.arange(margin + spacing, 1 - margin - spacing / 2, spacing)
    for gx in ticks:
        for gy in ticks:
            i, j = int(gx / h), int(gy / h)
            if 0 <= i < n and 0 <= j < n:
                mask[i, j] = False
    x0 = (ticks[0] + spacing / 2, ticks[0] + spacing / 2)
    return _build(mask, h, x0, f"punctured_square_{spacing:g}")


GALLERY = {
    "disk": disk,
    "square": square,
    "slit_disk": slit_disk,
    "spiral": spiral,
    "dumbbell": dumbbell,
    "comb": comb,
    "punctured_square": punctured_square,
}


def make(name: str, h: float = DEFAULT_H, **params) -> GridDomain:
    if name not in GALLERY:
        raise KeyError(f"unknown fixture {name!r}; choose from {sorted(GALLERY)}")
    return GALLERY[name](h=h, **params)

"""Geometry of the SVG layers: mask-derived layers draw their masks."""

import re

import numpy as np
import pytest

from qhlab import gallery
from qhlab.decomposition import build_core_tentacle
from qhlab.qh import QhMetric
from qhlab.svg import decomposition_layers, domain_layers
from qhlab.whitney import whitney_decompose

_RECT = re.compile(r'<rect x="([^"]+)" y="([^"]+)" width="([^"]+)" '
                   r'height="([^"]+)"')


def _drawn_counts(layer, shape, h) -> np.ndarray:
    """How many of the layer's rectangles cover each grid cell."""
    counts = np.zeros(shape, dtype=int)
    for el in layer.elements:
        x, y, w, v = (float(c) / h for c in _RECT.match(el).groups())
        i0, j0, ni, nj = (int(round(c)) for c in (x, y, w, v))
        assert np.allclose((i0, j0, ni, nj), (x, y, w, v), atol=1e-4)
        assert ni > 0 and nj > 0, layer.name
        counts[i0:i0 + ni, j0:j0 + nj] += 1
    return counts


@pytest.mark.parametrize("name, h, m", [("disk", 1 / 32, 6),
                                        ("dumbbell", 1 / 64, 7)])
def test_mask_layers_draw_each_mask_cell_once(name, h, m):
    """Rasterized back onto the grid, each mask layer's rectangles cover
    every cell of each of its masks once and no other cell (overlapping
    haloes cover a cell once per halo holding it)."""
    dom = gallery.make(name, h)
    ct = build_core_tentacle(whitney_decompose(dom), QhMetric(dom), m)
    halo_counts = np.zeros(dom.shape, dtype=int)
    for q in ct.P:
        halo_counts[ct.halo[q][:, 0], ct.halo[q][:, 1]] += 1
    masks = {
        "interior": [dom.interior],
        "core": [ct.core_mask],
        "components_thick": [ct.component_mask(lab) for lab in ct.U_ids],
        "components_thin": [ct.component_mask(lab) for lab in ct.V_ids],
        "tentacles": [ct.tentacle_mask(g) for g in ct.groups],
    }
    want = {layer: sum((mask.astype(int) for mask in sets),
                       np.zeros(dom.shape, dtype=int))
            for layer, sets in masks.items()}
    want["haloes"] = halo_counts
    layers = {layer.name: layer
              for layer in domain_layers(dom) + decomposition_layers(ct)}
    for layer_name, counts in want.items():
        got = _drawn_counts(layers[layer_name], dom.shape, h)
        assert np.array_equal(got, counts), layer_name
    if name == "dumbbell":  # every mask layer is exercised
        assert min(c.sum() for c in want.values()) > 0

"""Geometry of the SVG layers: mask-derived layers draw their masks."""

import re

import pytest

from qhlab import gallery
from qhlab.decomposition import build_core_tentacle
from qhlab.qh import QhMetric
from qhlab.svg import decomposition_layers, domain_layers
from qhlab.whitney import whitney_decompose

_SIZE = re.compile(r' width="([^"]+)" height="([^"]+)"')


def _drawn_area(layer) -> float:
    sizes = [tuple(map(float, _SIZE.search(el).groups()))
             for el in layer.elements if el.startswith("<rect")]
    assert all(w > 0 and h > 0 for w, h in sizes), layer.name
    return sum(w * h for w, h in sizes)


@pytest.mark.parametrize("name, h, m", [("disk", 1 / 32, 6),
                                        ("dumbbell", 1 / 64, 7)])
def test_mask_layers_draw_their_mask_area(name, h, m):
    dom = gallery.make(name, h)
    ct = build_core_tentacle(whitney_decompose(dom), QhMetric(dom), m)
    labels = ct.comp_labels
    cells = {
        "interior": dom.interior.sum(),
        "core": ct.core_mask.sum(),
        "haloes": sum(len(ct.halo[q]) for q in ct.P),
        "components_thick": sum((labels == lab).sum() for lab in ct.U_ids),
        "components_thin": sum((labels == lab).sum() for lab in ct.V_ids),
        "tentacles": sum(ct.tentacle_mask(g).sum() for g in ct.groups),
    }
    layers = {layer.name: layer
              for layer in domain_layers(dom) + decomposition_layers(ct)}
    for layer_name, n in cells.items():
        assert _drawn_area(layers[layer_name]) == pytest.approx(
            n * h * h, rel=1e-5), layer_name
    if name == "dumbbell":  # every mask layer is exercised
        assert min(cells.values()) > 0

"""Tests for the analytic fixture generators."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from qhlab import gallery


def _spiral_reference(h, turns=2.25, wall_width=0.016, margin=0.06):
    """The spiral fixture rasterized with an unbounded nearest-point query:
    the distance from every cell centre to the sampled wall curve."""
    px, py, _ = gallery._centers(h)
    mask = (px > margin) & (px < 1 - margin) & (py > margin) & (py < 1 - margin)
    theta = np.linspace(0.0, 2 * np.pi * turns, max(64, int(16 * turns / h * 0.5)))
    rr = 0.10 + 0.30 * theta / theta[-1]
    curve = np.column_stack([0.5 + rr * np.cos(theta), 0.5 + rr * np.sin(theta)])
    dist, _ = cKDTree(curve).query(np.column_stack([px.ravel(), py.ravel()]))
    mask &= ~(dist <= wall_width / 2).reshape(px.shape)
    return gallery._build(mask, h, (0.5, 0.5), "spiral")


@pytest.mark.parametrize("h, params", [
    (1 / 64, {}), (1 / 128, {}), (1 / 256, {}), (1 / 512, {}),
    (1 / 256, {"wall_width": 0.023, "turns": 1.75}),
])
def test_spiral_interior_equals_unbounded_query(h, params):
    dom = gallery.spiral(h, **params)
    ref = _spiral_reference(h, **params)
    assert dom.x0 == ref.x0
    assert np.array_equal(dom.interior, ref.interior)

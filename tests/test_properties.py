"""Tests for the hyperbolicity/uniformity property checkers."""

import numpy as np
import pytest

import qhlab.qh
from qhlab import gallery, grid, properties
from qhlab.properties import (
    MODES,
    check_ball_separation,
    check_gehring_hayman,
    check_geodesic_tail_diameter,
    check_local_gehring_hayman,
    check_radially_hyperbolic,
    check_uniformity,
    midpoint_john_check,
    pair_geodesics,
    sample_pairs,
)
from qhlab.qh import QhMetric, sample_nodes
from qhlab.uniformize import (build_deformation, check_bilipschitz,
                              check_deformed_uniformity)


@pytest.fixture(scope="module")
def disk_qh():
    return QhMetric(gallery.disk(1 / 128))


@pytest.fixture(scope="module")
def slit_qh():
    return QhMetric(gallery.slit_disk(1 / 128))


def test_ball_separation_disk_minimal_c(disk_qh):
    pairs = sample_pairs(disk_qh.domain, 6, seed=3)
    geos = pair_geodesics(disk_qh, pairs)
    rep = check_ball_separation(disk_qh, geos, z_per_geodesic=2)
    assert rep.passed
    assert 0 < rep.constant < 64
    # at that c every sample separates (or is vacuous)
    rep2 = check_ball_separation(disk_qh, geos, c=rep.constant * 1.05,
                                 z_per_geodesic=2)
    assert rep2.passed


def test_ball_separation_fails_below_minimal(disk_qh):
    pairs = sample_pairs(disk_qh.domain, 6, seed=3)
    geos = pair_geodesics(disk_qh, pairs)
    rep = check_ball_separation(disk_qh, geos, z_per_geodesic=2)
    # well below the minimal constant, some midpoint ball must fail to
    # separate a long geodesic's endpoints
    small = check_ball_separation(disk_qh, geos, c=rep.constant / 8,
                                  z_per_geodesic=2)
    states = {s["state"] for s in small.samples}
    assert "connected" in states or all(s == "skip" for s in states)


def test_ball_separation_skips_the_balls_holding_an_endpoint(disk_qh):
    """Without c, the sampled z whose ball holds an endpoint at the
    smallest c tested are exactly those skipped at that c, one for one."""
    pairs = sample_pairs(disk_qh.domain, 10, seed=31)
    geos = pair_geodesics(disk_qh, pairs)
    rep = check_ball_separation(disk_qh, geos)
    at_lo = check_ball_separation(disk_qh, geos, c=0.05)
    assert len(rep.samples) == len(at_lo.samples)
    skipped = [(s["geodesic"], s["z_index"]) for s in rep.samples
               if s.get("state") == "skip"]
    assert skipped == [(s["geodesic"], s["z_index"]) for s in at_lo.samples
                       if s["state"] == "skip"]
    assert 0 < len(skipped) < len(rep.samples)
    assert rep.constant == max(s["minimal_c"] for s in rep.samples
                               if "minimal_c" in s) > 0.05


def test_gehring_hayman_constants_finite_and_stable():
    consts = {"length": [], "diameter": []}
    for h in (1 / 128, 1 / 256):
        qh = QhMetric(gallery.slit_disk(h))
        pairs = sample_pairs(qh.domain, 12, seed=7)
        for mode in consts:
            rep = check_gehring_hayman(qh, pairs, mode=mode)
            assert np.isfinite(rep.constant) and rep.constant >= 1.0
            consts[mode].append(rep.constant)
    for mode, (c0, c1) in consts.items():
        assert abs(c0 - c1) / c1 < 0.10, mode


def test_local_gehring_hayman_filters(slit_qh):
    pairs = sample_pairs(slit_qh.domain, 20, seed=11)
    rep = check_local_gehring_hayman(slit_qh, pairs, c=4.0, R=2.0,
                                     mode="diameter")
    assert rep.extra["qualifying_pairs"] <= len(pairs)
    # every qualifying ratio is also a global ratio, so local <= global
    glob = check_gehring_hayman(slit_qh, pairs, mode="diameter")
    assert rep.constant <= glob.constant + 1e-12
    alt = check_local_gehring_hayman(slit_qh, pairs, c=4.0, R=2.0,
                                     mode="diameter", alternate=True)
    assert alt.extra["qualifying_pairs"] >= 0


def _count_lambda_delta(monkeypatch) -> dict:
    """Count the calls of intrinsic_distance (lambda) and
    intrinsic_diameter_distance (delta) made from the checkers' modules
    (not the call of lambda inside delta)."""
    calls = {"lambda": 0, "delta": 0}
    for key, name in (("lambda", "intrinsic_distance"),
                      ("delta", "intrinsic_diameter_distance")):
        for module in (properties, qhlab.qh):
            if not hasattr(module, name):
                continue

            def counted(*args, _key=key, _original=getattr(module, name),
                        **kwargs):
                calls[_key] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return calls


def test_local_gehring_hayman_evaluates_each_pair_once(slit_qh, monkeypatch):
    pairs = sample_pairs(slit_qh.domain, 20, seed=11)
    n = len({p for p in pairs if p[0] != p[1]})
    assert n == len(pairs)  # n distinct pairs of distinct cells
    calls = _count_lambda_delta(monkeypatch)
    check_local_gehring_hayman(slit_qh, pairs, c=4.0, R=2.0, mode="diameter")
    assert calls == {"lambda": 0, "delta": n}
    for alternate in (False, True):
        calls.update(dict.fromkeys(calls, 0))
        check_local_gehring_hayman(slit_qh, pairs, c=4.0, R=2.0,
                                   mode="length", alternate=alternate)
        assert calls == {"lambda": n, "delta": 0}


@pytest.mark.parametrize("fixture", ["disk", "dumbbell"])
def test_radially_hyperbolic_evaluates_delta_once_per_sub_arc(fixture,
                                                              monkeypatch):
    """One delta per sampled radial sub-arc, and one lambda and one delta
    per non-vacuous union (the disk has none, the dumbbell some)."""
    qh = QhMetric(gallery.make(fixture, 1 / 128))
    tree = qh.radial_tree()
    sub_arcs = sum(len(tree.path_nodes(int(v))) >= 4
                   for v in sample_nodes(qh.domain, 10, 17)
                   if int(v) != tree.root)
    calls = _count_lambda_delta(monkeypatch)
    rep = check_radially_hyperbolic(qh, c0=10.0, c=8.0, R=3.0,
                                    n_samples=10, seed=17)
    unions = sum("held" in s for s in rep.samples)
    assert sub_arcs > 0
    assert calls == {"lambda": unions, "delta": sub_arcs + unions}


def test_radially_hyperbolic_dumbbell_union_outcomes():
    qh = QhMetric(gallery.dumbbell(1 / 128))
    rep = check_radially_hyperbolic(qh, c0=10.0, c=8.0, R=3.0,
                                    n_samples=10, seed=17)
    unions = [s for s in rep.samples
              if s["kind"] == "union" and not s.get("vacuous")]
    assert unions
    for s in unions:
        assert set(s["held"]) <= set(MODES)
        assert s["applicable"] or not s["held"]
        assert s["ok"] == ((not s["applicable"]) or bool(s["held"]))


def _checker_outputs(name: str) -> str:
    qh = QhMetric(gallery.make(name, 1 / 128))
    pairs = sample_pairs(qh.domain, 6, seed=31)
    geos = pair_geodesics(qh, pairs)
    deformed = build_deformation(qh, 0.2)
    out = [check_ball_separation(qh, geos),
           check_ball_separation(qh, geos, c=1.0),
           *(check_gehring_hayman(qh, pairs, mode) for mode in MODES),
           check_geodesic_tail_diameter(qh, pairs),
           check_radially_hyperbolic(qh, c0=10.0, c=8.0, R=3.0,
                                     n_samples=10, seed=17),
           check_deformed_uniformity(deformed, pairs),
           check_bilipschitz(deformed, pairs)]
    return repr([r.as_dict() for r in out]
                + [midpoint_john_check(qh, pairs, 2.0)])


@pytest.mark.parametrize("name", ["disk", "dumbbell"])
def test_bounded_searches_change_no_checker_output(name, monkeypatch):
    """Every checker's samples equal those of unbounded searches."""
    got = _checker_outputs(name)
    engine = grid._DijkstraCache
    field, min_from_set = engine.field, engine.min_from_set
    monkeypatch.setattr(engine, "field", lambda self, src, dst, bound=np.inf:
                        field(self, src, dst))
    monkeypatch.setattr(engine, "min_from_set",
                        lambda self, nodes, limit=np.inf:
                        min_from_set(self, nodes))
    assert _checker_outputs(name) == got


def test_equal_cell_pairs_change_no_checker_output():
    """Pairs of one cell, interleaved into ``pairs``, are dropped by every
    pair-taking checker and by pair_geodesics."""
    qh = QhMetric(gallery.dumbbell(1 / 64))
    deformed = build_deformation(qh, 0.2)
    pairs = sample_pairs(qh.domain, 5, seed=3)
    padded = [p for x, y in pairs for p in ((x, x), (x, y), (y, y))]
    checkers = [
        *(lambda ps, m=mode: check_gehring_hayman(qh, ps, m)
          for mode in MODES),
        # R at which some of the pairs qualify and some do not
        *(lambda ps, m=mode, alt=alt, R=R: check_local_gehring_hayman(
            qh, ps, c=4.0, R=R, mode=m, alternate=alt)
          for mode in MODES for alt, R in ((False, 3.0), (True, 20.0))),
        lambda ps: check_uniformity(qh, ps),
        lambda ps: check_geodesic_tail_diameter(qh, ps),
        lambda ps: check_deformed_uniformity(deformed, ps),
        lambda ps: check_bilipschitz(deformed, ps),
    ]
    for checker in checkers:
        want = checker(pairs).as_dict()
        assert want["n_samples"] > 0
        assert checker(padded).as_dict() == want
    assert midpoint_john_check(qh, padded, 2.0) == \
        midpoint_john_check(qh, pairs, 2.0)
    assert [g.as_dict() for g in pair_geodesics(qh, padded)] == \
        [g.as_dict() for g in pair_geodesics(qh, pairs)]


def test_uniformity_disk_modest_constants(disk_qh):
    pairs = sample_pairs(disk_qh.domain, 15, seed=13)
    rep = check_uniformity(disk_qh, pairs)
    # quasihyperbolic geodesics in a disk are uniform with small constants
    assert 1.0 <= rep.extra["A1"] < 3.0
    assert rep.extra["A2"] < 30.0
    assert rep.constant == max(rep.extra["A1"], rep.extra["A2"])


def test_uniformity_comb_larger_than_disk(disk_qh):
    comb = QhMetric(gallery.comb(1 / 128))
    pd = sample_pairs(disk_qh.domain, 15, seed=13)
    pc = sample_pairs(comb.domain, 15, seed=13)
    a1_disk = check_uniformity(disk_qh, pd).extra["A1"]
    a1_comb = check_uniformity(comb, pc).extra["A1"]
    assert a1_comb > a1_disk  # detours around teeth stretch geodesics


def test_radially_hyperbolic_disk(disk_qh):
    rep = check_radially_hyperbolic(disk_qh, c0=10.0, c=8.0, R=3.0,
                                    n_samples=10, seed=17)
    assert rep.passed
    assert rep.extra["separation_passed"]


def test_geodesic_tail_diameter_disk(disk_qh):
    pairs = sample_pairs(disk_qh.domain, 8, seed=19)
    rep = check_geodesic_tail_diameter(disk_qh, pairs)
    assert rep.passed
    assert rep.constant <= 16.0
    # the per-M records are monotone: once passing, stays passing
    oks = [s["ok"] for s in rep.samples]
    assert oks == sorted(oks)


def test_midpoint_john_bound(disk_qh):
    pairs = sample_pairs(disk_qh.domain, 10, seed=23)
    A = check_uniformity(disk_qh, pairs).extra["doubly_john_A"]
    rows = midpoint_john_check(disk_qh, pairs, A)
    assert rows and all(ok for _, _, ok in rows)


def test_report_serializes(disk_qh):
    import json

    pairs = sample_pairs(disk_qh.domain, 4, seed=29)
    rep = check_gehring_hayman(disk_qh, pairs, mode="length")
    blob = json.dumps(rep.as_dict())
    assert "gehring_hayman_length" in blob

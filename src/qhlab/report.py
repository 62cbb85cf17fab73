"""Configuration-driven experiment runner and JSON/CSV/SVG emitters.

A run executes the pipeline (domain -> whitney -> metric -> properties ->
decomposition -> approximation) for one fixture, writes every artifact under
the output directory, and finishes with ``manifest.json`` listing all emitted
files with their sha256 content hashes plus any invariant failures (with the
seed needed to reproduce them).  Numeric outputs are deterministic given
(config, seed); only the SVG header carries a timestamp.
"""

from __future__ import annotations

import configparser
import csv
import datetime
import hashlib
import io
import json
import time
from dataclasses import dataclass, field, fields as dfields
from importlib import metadata
from pathlib import Path

import numpy as np

from . import gallery, svg
from .approx import error_decay
from .decomposition import (
    build_levels,
    verify_bounded_overlap,
    verify_cover,
    verify_remark_inclusion,
    verify_tiling,
)
from .fixtures import singular_fixture
from .grid import GridDomain
from .poly import norm_equivalence_check
from .properties import (
    check_ball_separation,
    check_gehring_hayman,
    check_uniformity,
    pair_geodesics,
    sample_pairs,
)
from .qh import QhMetric, estimate_delta
from .uniformize import build_deformation, check_bilipschitz, \
    check_deformed_uniformity
from .whitney import whitney_decompose

try:
    VERSION = metadata.version("qhlab")
except metadata.PackageNotFoundError:  # editable checkout without metadata
    VERSION = "dev"


class UsageError(ValueError):
    """Invalid configuration or command-line input (exit code 2)."""


def _int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(",") if t)


def _setting(default, section: str, parse):
    """An ``ExperimentConfig`` field with its config-file section and the
    parser of its text form (file value or command-line flag)."""
    return field(default=default,
                 metadata={"section": section, "parse": parse})


@dataclass
class ExperimentConfig:
    """Flat key-value experiment description; each field is the key of its
    section in a config file and the flag ``--<field>`` (``_`` as ``-``)."""

    fixture: str = _setting("disk", "domain", str)
    h: float = _setting(1.0 / 128, "domain", float)
    c0: float = _setting(10.0, "constants", float)
    epsilon: float = _setting(0.2, "constants", float)
    m_list: tuple[int, ...] = _setting((6, 7, 8), "approximation", _int_tuple)
    k: int = _setting(1, "approximation", int)
    p: float = _setting(2.0, "approximation", float)
    n_pairs: int = _setting(40, "sampling", int)
    n_triangles: int = _setting(30, "sampling", int)
    seed: int = _setting(0, "sampling", int)
    outdir: str = _setting("out", "output", str)

    def validate(self) -> None:
        if self.fixture not in gallery.GALLERY:
            raise UsageError(
                f"fixture: unknown name {self.fixture!r} "
                f"(choose from {sorted(gallery.GALLERY)})")
        checks = [
            ("h", 1e-4 < self.h <= 1 / 16),
            ("c0", self.c0 >= 10),
            ("epsilon", 0 < self.epsilon < 1),
            ("m_list", len(self.m_list) > 0
             and all(1 <= m <= 12 for m in self.m_list)),
            ("k", self.k in (1, 2, 3)),
            ("p", 1 <= self.p < np.inf),
            ("n_pairs", self.n_pairs > 0),
            ("n_triangles", self.n_triangles > 0),
            ("seed", self.seed >= 0),
        ]
        for name, ok in checks:
            if not ok:
                raise UsageError(f"{name}: value {getattr(self, name)!r} "
                                 "out of the documented range")

    # -- serialization (flat key-value text with sections) -------------------

    @classmethod
    def parse(cls, name: str, text: str):
        """The value of field ``name`` written as ``text``; a malformed
        text is a ``UsageError`` naming the field."""
        try:
            return cls.__dataclass_fields__[name].metadata["parse"](text)
        except ValueError as exc:
            raise UsageError(f"{name}: {exc}") from exc

    def to_text(self) -> str:
        cp = configparser.ConfigParser()
        for f in dfields(self):
            val = getattr(self, f.name)
            if isinstance(val, tuple):
                val = ",".join(str(int(m)) for m in val)
            section = f.metadata["section"]
            if not cp.has_section(section):
                cp.add_section(section)
            cp[section][f.name] = str(val)
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    @classmethod
    def from_text(cls, text: str, source: str = "<config>") -> "ExperimentConfig":
        """Parse ``to_text`` output; a malformed text, an unknown section or
        key, or a value of the wrong type is a ``UsageError`` naming
        ``source`` and the section and key."""
        cp = configparser.ConfigParser()
        try:
            cp.read_string(text, source)
        except configparser.Error as exc:
            raise UsageError(f"{source}: {exc}") from exc
        sections: dict[str, list[str]] = {}
        for f in dfields(cls):
            sections.setdefault(f.metadata["section"], []).append(f.name)
        kwargs = {}
        for section in cp.sections():
            if section not in sections:
                raise UsageError(f"{source}: unknown section [{section}] "
                                 f"(choose from {list(sections)})")
            for name, raw in cp[section].items():
                if name not in sections[section]:
                    raise UsageError(
                        f"{source}: [{section}] unknown key {name!r} "
                        f"(choose from {sections[section]})")
                try:
                    kwargs[name] = cls.parse(name, raw)
                except UsageError as exc:
                    raise UsageError(f"{source}: [{section}] {exc}") from exc
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise UsageError(f"{path}: cannot read config file "
                             f"({exc.strerror or exc})") from exc
        return cls.from_text(text, str(path))

    def as_dict(self) -> dict:
        return {k: (list(v) if isinstance(v, tuple) else v)
                for k, v in self.__dict__.items()}


class Emitter:
    """Serialized artifact writer collecting the manifest."""

    def __init__(self, outdir, config: ExperimentConfig):
        self.root = Path(outdir)
        self.root.mkdir(parents=True, exist_ok=True)
        self.config = config
        self.files: dict[str, str] = {}
        self.failures: list[dict] = []

    def _register(self, name: str) -> None:
        digest = hashlib.sha256((self.root / name).read_bytes()).hexdigest()
        self.files[name] = digest

    def write_json(self, name: str, payload) -> None:
        with open(self.root / name, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True, default=_tolist)
            fh.write("\n")
        self._register(name)

    def write_csv(self, name: str, header: list[str], rows: list[list]) -> None:
        with open(self.root / name, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        self._register(name)

    def write_svg(self, name: str, layers, extent, header=None) -> None:
        meta = {"version": VERSION, "fixture": self.config.fixture,
                "h": self.config.h, "seed": self.config.seed,
                "timestamp": datetime.datetime.now(datetime.timezone.utc)
                .isoformat()}
        meta.update(header or {})
        svg.emit_svg(layers, self.root / name, extent, meta)
        self._register(name)

    def note_report(self, rep) -> None:
        if rep.passed is False:
            self.failures.append({"name": rep.name, "seed": rep.seed,
                                  "constant": rep.constant})

    def finish(self) -> int:
        manifest = {
            "version": VERSION,
            "config": self.config.as_dict(),
            "files": self.files,
            "failures": self.failures,
        }
        with open(self.root / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 1 if self.failures else 0


def _tolist(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


# -- pipeline stages ---------------------------------------------------------

def stage_gallery(cfg: ExperimentConfig, em: Emitter, dom: GridDomain,
                  extent: tuple[float, float]) -> None:
    em.write_json("domain.json", {
        "name": dom.name, "h": dom.h, "shape": list(dom.shape),
        "interior_cells": int(dom.interior.sum()),
        "x0": list(dom.x0),
        "max_boundary_distance": float(dom.dist.max()),
    })
    em.write_svg("domain.svg", svg.domain_layers(dom), extent)


def stage_metrics(cfg: ExperimentConfig, em: Emitter, dom: GridDomain,
                  qh: QhMetric, pairs, extent: tuple[float, float]) -> None:
    geos = pair_geodesics(qh, pairs)
    em.write_json("geodesics.json", [g.as_dict() for g in geos])
    delta = estimate_delta(qh, cfg.n_triangles, cfg.seed)
    em.write_json("delta.json", {
        "value": delta.value, "triangles": delta.triangles,
        "seed": delta.seed, "argmax": delta.argmax,
        "per_triangle": delta.per_triangle,
    })
    layers = svg.domain_layers(dom) + [svg.geodesic_layer(geos)]
    if delta.argmax is not None:
        layers.append(svg.triangle_layer(qh, delta.argmax))
    em.write_svg("geodesics.svg", layers, extent,
                 {"delta": f"{delta.value:.6g}"})


def stage_properties(cfg: ExperimentConfig, em: Emitter, dom: GridDomain,
                     qh: QhMetric, pairs) -> None:
    geos = pair_geodesics(qh, pairs[: max(4, cfg.n_pairs // 4)])
    reports = [
        check_ball_separation(qh, geos, seed=cfg.seed),
        check_gehring_hayman(qh, pairs, "length", seed=cfg.seed),
        check_gehring_hayman(qh, pairs, "diameter", seed=cfg.seed),
        check_uniformity(qh, pairs, seed=cfg.seed),
    ]
    metric = build_deformation(qh, cfg.epsilon)
    reports.append(check_deformed_uniformity(metric, pairs, seed=cfg.seed))
    reports.append(check_bilipschitz(metric, pairs, seed=cfg.seed))
    em.write_json("properties.json", [r.as_dict() for r in reports])
    rows = [[r.name, f"{r.constant:.6g}", len(r.samples), r.seed, dom.h]
            for r in reports]
    em.write_csv("properties.csv",
                 ["property", "constant", "samples", "seed", "resolution"],
                 rows)
    for r in reports:
        em.note_report(r)


def stage_decompose(cfg: ExperimentConfig, em: Emitter, dom: GridDomain,
                    dec, levels, extent: tuple[float, float]) -> None:
    em.write_svg("whitney.svg", svg.whitney_layers(dec), extent)
    rows = []
    for m, ct in levels:
        if isinstance(ct, str):
            rows.append([m, "skipped", ct, "", ""])
            continue
        overlap = verify_bounded_overlap(ct)
        cover = verify_cover(ct)
        tiling = verify_tiling(ct)
        remark = verify_remark_inclusion(ct)
        em.note_report(overlap)
        if not tiling:
            em.failures.append({"name": f"tiling_m{m}", "seed": cfg.seed})
        em.write_json(f"decomposition_m{m}.json", {
            "indices": ct.as_dict(),
            "bounded_overlap": overlap.as_dict(),
            "cover": cover.as_dict(),
            "tiling": tiling,
            "remark_inclusion": remark,
        })
        em.write_svg(f"decomposition_m{m}.svg",
                     svg.decomposition_layers(ct), extent, {"m": m})
        rows.append([m, "ok", f"{overlap.constant:.6g}",
                     len(ct.P), len(ct.groups)])
    em.write_csv("decomposition.csv",
                 ["m", "status", "max_overlap_or_reason", "band_cubes",
                  "groups"], rows)


def stage_approx(cfg: ExperimentConfig, em: Emitter, dom: GridDomain,
                 dec, levels) -> None:
    field = singular_fixture(dom, cfg.k, cfg.p, order=cfg.k)
    rep = error_decay(field, dom, cfg.k, cfg.p, list(cfg.m_list), dec=dec,
                      levels=levels)
    em.note_report(rep)
    em.write_json("error_decay.json", rep.as_dict())
    rows = []
    for r in rep.samples:
        if "skipped" in r:
            rows.append([r["m"], "", "", "", r["skipped"]])
        else:
            sup = max(r["sup_norms"].values())
            rows.append([r["m"], f"{r['error']:.8g}", f"{r['tail']:.8g}",
                         f"{sup:.8g}", ""])
    em.write_csv("error_decay.csv",
                 ["m", "error", "tail", "max_sup_norm", "skipped"], rows)
    levels = rep.extra["levels"]
    if len(levels) >= 2:
        layers = svg.curve_layers(
            levels,
            {"error": rep.extra["errors"],
             "tail": [r["tail"] for r in rep.samples if "error" in r]},
            (1.0, 0.6))
        em.write_svg("error_decay.svg", layers, (1.0, 0.6),
                     {"k": cfg.k, "p": cfg.p})
    eq = norm_equivalence_check(dec, cfg.k, cfg.p, seed=cfg.seed)
    em.note_report(eq)
    em.write_json("norm_equivalence.json", eq.as_dict())


_STAGES = {
    "gallery": ("gallery",),
    "metrics": ("gallery", "metrics"),
    "properties": ("gallery", "properties"),
    "decompose": ("gallery", "decompose"),
    "approx": ("gallery", "approx"),
    "report": ("gallery", "metrics", "properties", "decompose", "approx"),
}


def run(cfg: ExperimentConfig, stages: str = "report") -> int:
    """Execute the pipeline; returns 0 (ok) or 1 (invariant failure)."""
    cfg.validate()
    if stages not in _STAGES:
        raise UsageError(f"stages: unknown stage set {stages!r}")
    wanted = _STAGES[stages]
    em = Emitter(cfg.outdir, cfg)
    t0 = time.monotonic()
    dom = gallery.make(cfg.fixture, h=cfg.h)
    extent = (dom.shape[0] * dom.h, dom.shape[1] * dom.h)
    qh = dec = levels = pairs = None
    if set(wanted) - {"gallery"}:
        qh = QhMetric(dom)
    if "metrics" in wanted or "properties" in wanted:
        pairs = sample_pairs(dom, cfg.n_pairs, cfg.seed)
    if "decompose" in wanted or "approx" in wanted:
        dec = whitney_decompose(dom)
        levels = list(build_levels(dec, qh, cfg.m_list, cfg.c0))
    stage_gallery(cfg, em, dom, extent)
    if "metrics" in wanted:
        stage_metrics(cfg, em, dom, qh, pairs, extent)
    if "properties" in wanted:
        stage_properties(cfg, em, dom, qh, pairs)
    if "decompose" in wanted:
        stage_decompose(cfg, em, dom, dec, levels, extent)
    if "approx" in wanted:
        stage_approx(cfg, em, dom, dec, levels)
    status = em.finish()
    elapsed = time.monotonic() - t0
    print(f"{cfg.fixture}: {len(em.files)} artifacts in {cfg.outdir} "
          f"({elapsed:.1f}s), exit {status}")
    return status

"""Regeneration of the paper's 14 concept figures as ASCII drawings.

The paper contains no data plots; Figures 1–14 illustrate the geometric
constructions.  Each ``figure_text(k)`` builds the construction on a
deterministic fixture scene and renders it, so the repository reproduces
the *content* of every figure (the exact hand-drawn coordinates are not
published).  ``benchmarks/bench_figures.py`` and
``examples/render_figures.py`` write all of them out.
"""

from __future__ import annotations

import numpy as np

from repro.core.allpairs import ParallelEngine
from repro.core.separator import staircase_separator
from repro.core.tracing import TraceForests
from repro.geometry.envelope import envelope
from repro.geometry.frontier import max_staircase_of_rects
from repro.geometry.polygon import rect_polygon
from repro.geometry.primitives import Rect, bbox_of_rects
from repro.geometry.visibility import boundary_points
from repro.monge.matrix import is_monge
from repro.pram import PRAM
from repro.viz.ascii import Canvas, render_scene
from repro.workloads.fixtures import paper_figure_scene, ring_of_rects, two_clusters

ALL_FIGURES = tuple(range(1, 15))


def _canvas_for(rects, margin=4, width=72, height=26) -> Canvas:
    xlo, ylo, xhi, yhi = bbox_of_rects(rects)
    return Canvas((xlo - margin, ylo - margin, xhi + margin, yhi + margin), width, height)


def fig1() -> str:
    rects = paper_figure_scene(1)
    c = _canvas_for(rects)
    for r in rects:
        c.rect(r)
    c.staircase(max_staircase_of_rects(rects, "NE"), hch="=")
    c.staircase(max_staircase_of_rects(rects, "SW"), hch="~")
    return c.render("Fig. 1  MAX_NE(R') (=) and MAX_SW(R') (~) frontier staircases")


def fig2() -> str:
    rects = two_clusters()
    env = envelope(rects)
    c = _canvas_for(rects)
    for r in rects:
        c.rect(r)
    c.polyline(env.vertices_loop() + [env.vertices_loop()[0]], hch="·", vch="·")
    tag = "degenerate (hull does not exist)" if env.is_degenerate else "hull"
    return c.render(f"Fig. 2  Env(R') for two diagonal clusters — {tag}")


def fig3() -> str:
    rects = paper_figure_scene(3)
    env = envelope(rects)
    bset = boundary_points(env, rects)
    c = _canvas_for(rects)
    loop = env.vertices_loop()
    c.polyline(loop + [loop[0]], hch="-", vch="|")
    for r in rects:
        c.rect(r)
    for p in bset.points:
        c.put(p, "o")
    return c.render(f"Fig. 3  B(Q): {len(bset)} boundary points (o) of the envelope")


def fig4() -> str:
    """Monge vs non-Monge path-length matrices (Fig. 4(a)/(b))."""
    rects = paper_figure_scene(4)
    idx = ParallelEngine(rects, [], PRAM(), leaf_size=8).build()
    # (a) two opposite frontier chains (Lemma 1 orderings): Monge
    nw = [p for p in max_staircase_of_rects(rects, "NW").pts if idx.has_point(p)][:4]
    se = [p for p in max_staircase_of_rects(rects, "SE").pts if idx.has_point(p)][:4]
    a = np.array([[idx.length(p, q) for q in se] for p in nw], dtype=float)
    # (b) an interleaved ordering of the same points: generally not Monge
    shuffled = se[::-1]
    b = np.array([[idx.length(p, q) for q in shuffled] for p in nw], dtype=float)
    lines = [
        "Fig. 4  Monge (a) and non-Monge (b) path-length matrices",
        f"(a) NW-chain × SE-chain, boundary order  -> is_monge = {is_monge(a)}",
        *("    " + "  ".join(f"{v:5.0f}" for v in row) for row in a),
        f"(b) same points, reversed column order   -> is_monge = {is_monge(b)}",
        *("    " + "  ".join(f"{v:5.0f}" for v in row) for row in b),
    ]
    return "\n".join(lines)


def fig5() -> str:
    rects = paper_figure_scene(5)
    forests = TraceForests(rects, PRAM())
    p = (20, 0)
    ne = forests.trace(p, "NE", PRAM())
    ws = forests.trace(p, "WS", PRAM())
    c = _canvas_for(rects)
    for r in rects:
        c.rect(r)
    c.polyline(ne.points, hch="=", vch="!")
    c.polyline(ws.points, hch="~", vch=":")
    c.label(p, "p")
    return c.render("Fig. 5  NE(p) (=/!) and WS(p) (~/:) traced paths")


def fig6() -> str:
    rects = paper_figure_scene(6)
    sep = staircase_separator(rects, PRAM())
    c = _canvas_for(rects)
    for i, r in enumerate(rects):
        c.rect(r, fill="A" if i in sep.upper else "B")
    c.staircase(sep.staircase, hch="=", vch="|")
    c.label(sep.origin, "p")
    return c.render(
        f"Fig. 6  Staircase separator via branch {sep.branch!r}: "
        f"{len(sep.upper)} above (A) / {len(sep.lower)} below (B)"
    )


def fig7() -> str:
    rects = paper_figure_scene(7)
    env = envelope(rects)
    bset = boundary_points(env, rects)
    c = _canvas_for(rects)
    loop = env.vertices_loop()
    c.polyline(loop + [loop[0]], hch="-", vch="|")
    for r in rects:
        c.rect(r)
    for i, p in enumerate(bset.points[:26]):
        c.put(p, chr(ord("a") + (i % 26)))
    gaps = len(bset.points)
    return c.render(
        f"Fig. 7  Horiz/Vert arrays: {gaps} B(Q) points split Bound(Q) into "
        f"{gaps} gaps (labelled)"
    )


def fig8() -> str:
    rects = paper_figure_scene(8)
    env = envelope(rects)
    forests = TraceForests(rects, PRAM())
    origin = max(env.vertices_loop(), key=lambda p: p[1])
    ext = forests.trace(origin, "ES", PRAM())
    c = _canvas_for(rects)
    loop = env.vertices_loop()
    c.polyline(loop + [loop[0]], hch="-", vch="|")
    for r in rects:
        c.rect(r)
    c.polyline(ext.points, hch="=", vch="!")
    c.label(origin, "c0")
    return c.render("Fig. 8  Staircase extension: chain C (=) grafted onto Bound(Q)")


def fig9() -> str:
    rects = paper_figure_scene(9)
    sep = staircase_separator(rects, PRAM())
    upper = [rects[i] for i in sep.upper]
    lower = [rects[i] for i in sep.lower]
    c = _canvas_for(rects)
    if upper:
        e1 = envelope(upper)
        c.polyline(e1.vertices_loop() + [e1.vertices_loop()[0]], hch="·", vch="·")
    if lower:
        e2 = envelope(lower)
        c.polyline(e2.vertices_loop() + [e2.vertices_loop()[0]], hch="·", vch="·")
    for i, r in enumerate(rects):
        c.rect(r, fill="L" if i in sep.upper else "R")
    c.staircase(sep.staircase, hch="=", vch="|")
    return c.render(
        "Fig. 9  Theorem 3 conquer: Q_left (L), Q_right (R), Middle on Sep (=)"
    )


def fig10() -> str:
    rects = paper_figure_scene(10)
    sep = staircase_separator(rects, PRAM())
    c = _canvas_for(rects)
    for i, r in enumerate(rects):
        c.rect(r, fill="U" if i in sep.upper else "W")
    c.staircase(sep.staircase, hch="=", vch="|")
    return c.render(
        "Fig. 10  U/U' points live on the upper (U) side chains, W/W' on the"
        " lower (W); Sep (=) carries both"
    )


def fig11() -> str:
    rects = paper_figure_scene(11)
    env = envelope(rects[:3])
    c = _canvas_for(rects)
    loop = env.vertices_loop()
    c.polyline(loop + [loop[0]], hch="-", vch="|")
    for r in rects:
        c.rect(r)
    xlo, ylo, xhi, yhi = env.bbox
    c.label((xlo, (ylo + yhi) // 2), "l")
    c.label((xhi, (ylo + yhi) // 2), "r")
    c.label(((xlo + xhi) // 2, yhi), "t")
    c.label(((xlo + xhi) // 2, ylo), "b")
    return c.render(
        "Fig. 11  Bridging (Lemma 14): B(Q_v) partitioned at l, r, t, b"
    )


def fig12() -> str:
    rects = paper_figure_scene(12)
    inner = rects[:2]
    env_in = envelope(inner)
    env_out = envelope(rects)
    c = _canvas_for(rects)
    lo = env_out.vertices_loop()
    li = env_in.vertices_loop()
    c.polyline(lo + [lo[0]], hch="-", vch="|")
    c.polyline(li + [li[0]], hch="·", vch="·")
    for r in rects:
        c.rect(r)
    return c.render("Fig. 12  Lemma 15: Q_v (·) properly inside Q_w (-)")


def fig13() -> str:
    rects = paper_figure_scene(13)
    pram = PRAM()
    engine = ParallelEngine(rects, [], pram, leaf_size=2)
    engine.build()
    s = engine.stats
    lines = [
        "Fig. 13  Flows over the recursion tree (Modes 1 and 2 of §6.3).",
        "Our engine replaces the flow pipeline with interface accumulation",
        "(repro.core.allpairs); the recursion profile the flows would traverse:",
        f"    nodes={s.nodes}  leaves={s.leaves}  "
        f"max |T_v|={s.max_tracked}  max |S_v|={s.max_interface}",
        "    tracked points per depth: "
        + ", ".join(f"d{d}:{c}" for d, c in sorted(s.per_level_points.items())),
        "A flow from node v visits exactly the nodes w with |R_w| >= |R_v|,",
        "entering in Mode 1 when |R_parent(v)| <= |R_w| and Mode 2 otherwise.",
    ]
    return "\n".join(lines)


def fig14() -> str:
    rects = ring_of_rects()
    xlo, ylo, xhi, yhi = bbox_of_rects(rects)
    poly = rect_polygon(xlo - 8, ylo - 8, xhi + 8, yhi + 8)
    c = Canvas((xlo - 10, ylo - 10, xhi + 10, yhi + 10), 72, 26)
    loop = poly.vertices_loop()
    c.polyline(loop + [loop[0]], hch="-", vch="|")
    for r in rects:
        c.rect(r)
    c.vline(xlo, ylo - 10, yhi + 10, ":")
    c.vline(xhi, ylo - 10, yhi + 10, ":")
    c.hline(ylo, xlo - 10, xhi + 10, "·")
    c.hline(yhi, xlo - 10, xhi + 10, "·")
    c.label((xlo + 2, yhi + 9), "top chunk")
    c.label((xhi + 1, yhi + 9), "NE")
    c.label((xhi + 1, (ylo + yhi) // 2), "east")
    return c.render(
        "Fig. 14  §7 chunk partition of Bound(P) by the 4 extreme lines of Env(R)"
    )


_FIGS = {
    1: fig1, 2: fig2, 3: fig3, 4: fig4, 5: fig5, 6: fig6, 7: fig7,
    8: fig8, 9: fig9, 10: fig10, 11: fig11, 12: fig12, 13: fig13, 14: fig14,
}


def figure_text(which: int) -> str:
    """Render figure ``which`` (1–14) as text."""
    try:
        fn = _FIGS[which]
    except KeyError:
        raise ValueError(f"no figure {which}; valid: 1..14") from None
    return fn()


def render_all() -> dict[int, str]:
    return {k: figure_text(k) for k in ALL_FIGURES}

"""The adjacency graphs of real K3 involutions and real cubic fourfolds.

Edges are identified with (origin, element-class) pairs; endpoints are
resolved by the (r, d, type) key arithmetic, never by manipulating rank-22
involution matrices.  Both graphs come from one rule, an edge per catalog
vertex and class with an element of square -2 (K3) or 6 (K4), so the one edge
swap between them is derived: in K4, [3S] reaches the key ``IRR_KEY`` that no
catalog vertex has (the sentinel vertex ``irr``) and nothing reaches [8S]_I.
The builder checks the derived swap against the paper's statement ``IRREGULAR``.

This module holds what ``build`` and ``export`` run: the builders and the two
export formats.  The checks that only ``verify`` runs on the built graphs live
in ``graph_checks``, and the module ``__getattr__`` at the end resolves their
names here too.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .lattice import (
    GramLattice, _Record, _set, _two_elementary, from_summands, lattices_equivalent, rescale,
    signature,
)
from .catalog import K3_KEYS, Catalog, CatalogError, ElementClass, VertexKey, exists_class

IRR_ID = "irr"
# The key of the irregular K4 vertex, which Nikulin's theorem leaves out of K3_KEYS
IRR_KEY = VertexKey(14, 8, "I")

# Per graph, the (origin, class, terminal) of the one edge swapped between K3
# and K4, as the paper states it; the builders derive it and check it here.
IRREGULAR: Dict[str, Tuple[str, ElementClass, str]] = {
    "k3": ("[7S]", ElementClass.WU, "[8S]_I"),
    "k4": ("[3S]", ElementClass.WU, IRR_ID),
}


class StructuralError(RuntimeError):
    """A built graph violates one of its structural guarantees."""


class EdgeLabel(_Record, frozen=True):
    __slots__ = ("origin", "cls", "square")  # square: -2 for K3 edges, 6 for K4 edges


class GraphEdge(_Record, frozen=True):
    __slots__ = ("src", "dst", "label")


class _EdgeIndex:
    # A base class's slots are not record fields, so a graph's equality, hash
    # and repr still read only its three fields.
    __slots__ = ("_out", "_in", "_first")


class DeformationGraph(_Record, _EdgeIndex, frozen=True):
    __slots__ = ("kind", "vertex_ids", "edges")  # kind: "k3" | "k4"

    def __init__(self, *args, **kwargs) -> None:
        _Record.__init__(self, *args, **kwargs)
        # each vertex's out- and in-edges, and the first edge of each (source,
        # class), in edge order, so a lookup scans no edges
        out: Dict[str, List[GraphEdge]] = {}
        into: Dict[str, List[GraphEdge]] = {}
        first: Dict[Tuple[str, ElementClass], GraphEdge] = {}
        for e in self.edges:
            out.setdefault(e.src, []).append(e)
            into.setdefault(e.dst, []).append(e)
            first.setdefault((e.src, e.label.cls), e)
        _set(self, "_out", {vid: tuple(es) for vid, es in out.items()})
        _set(self, "_in", {vid: tuple(es) for vid, es in into.items()})
        _set(self, "_first", first)

    def out_edges(self, vid: str) -> Tuple[GraphEdge, ...]:
        return self._out.get(vid, ())

    def in_edges(self, vid: str) -> Tuple[GraphEdge, ...]:
        return self._in.get(vid, ())

    def edge(self, src: str, cls: ElementClass) -> Optional[GraphEdge]:
        return self._first.get((src, cls))

    def is_connected(self) -> bool:
        if not self.vertex_ids:
            return True
        adj: Dict[str, List[str]] = {v: [] for v in self.vertex_ids}
        for e in self.edges:
            adj[e.src].append(e.dst)
            adj[e.dst].append(e.src)
        seen = {self.vertex_ids[0]}
        stack = [self.vertex_ids[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertex_ids)


class K4VertexData(_Record, frozen=True):
    __slots__ = ("key", "mminus", "source")  # source: the corresponding K3 vertex id, or "irr"


# The lattice identification of the irregular K4 vertex: -M_- = U(2) + 3D4.
IRR_MINUS_SUMMANDS: Tuple[str, ...] = ("U(2)", "D4", "D4", "D4")

def terminal_key(origin: VertexKey, cls: ElementClass) -> VertexKey:
    """Endpoint key of an edge: r grows by 1, d moves by the class, Wu lands on type I."""
    r, d, _ = origin
    if cls is ElementClass.ODD:
        return VertexKey(r + 1, d + 1, "II")
    if cls is ElementClass.WU:
        return VertexKey(r + 1, d - 1, "I")
    return VertexKey(r + 1, d - 1, "II")


def _vertex_key(vid: str, catalog: Catalog) -> VertexKey:
    """The key of a graph vertex: ``IRR_KEY`` for ``irr``, else its catalog key."""
    return IRR_KEY if vid == IRR_ID else catalog.by_id(vid).key


def _graph_violations(g: DeformationGraph, catalog: Catalog) -> List[str]:
    """Every structural guarantee the graph breaks: per edge in edge order, then
    the irregular vertex, then connectivity."""
    ids = set(g.vertex_ids)
    keyed = set(catalog.ids()) | {IRR_ID}
    out: List[str] = []
    pairs = set()
    origins = set()
    for e in g.edges:
        if e.src not in ids or e.dst not in ids:
            out.append(f"edge {e.src}->{e.dst} leaves the vertex set")
        if e.src == e.dst:
            out.append(f"graph-loop at {e.src}")
        if frozenset((e.src, e.dst)) in pairs:
            out.append(f"multiple edges between {e.src} and {e.dst}")
        pairs.add(frozenset((e.src, e.dst)))
        if (e.src, e.label.cls) in origins:
            out.append(f"second {e.label.cls.value} edge from {e.src}")
        origins.add((e.src, e.label.cls))
        if e.src in keyed and e.dst in keyed:
            key = terminal_key(_vertex_key(e.src, catalog), e.label.cls)
            if _vertex_key(e.dst, catalog) != key:
                out.append(f"edge {e.src}->{e.dst} does not end at key {tuple(key)}")
    origin, cls, irr = IRREGULAR[g.kind]
    irr_in = [(e.src, e.label.cls, e.dst) for e in g.in_edges(irr)]
    if irr_in != [(origin, cls, irr)]:
        out.append(f"in-edges of {irr} are {irr_in}, expected only {origin} -{cls.value}->")
    if g.out_edges(irr):
        out.append(f"{irr} has out-edges")
    if all(e.src in ids and e.dst in ids for e in g.edges) and not g.is_connected():
        out.append("graph is not connected")
    return out


def _build_graph(catalog: Catalog, kind: str) -> DeformationGraph:
    """One edge per catalog vertex and class with an element of square 8n - 2,
    n = 0 for k3 and 1 for k4, ending at ``terminal_key``.  The vertices are the
    catalog ids some edge touches, in catalog order, then ``irr`` if reached;
    they must be the catalog ids with this graph's irregular terminal in
    ``IRREGULAR`` and without the other graph's."""
    n = 0 if kind == "k3" else 1
    edges: List[GraphEdge] = []
    for v in catalog:
        for cls in ElementClass:
            if not exists_class(v, n, cls):
                continue
            key = terminal_key(v.key, cls)
            try:
                dst = catalog.lookup(key).vid
            except CatalogError:  # any key but IRR_KEY is reported as leaving the vertex set
                dst = IRR_ID if key == IRR_KEY else f"missing key {tuple(key)}"
            edges.append(GraphEdge(v.vid, dst, EdgeLabel(v.key, cls, 8 * n - 2)))
    touched = {vid for e in edges for vid in (e.src, e.dst)}
    vertex_ids = tuple(vid for vid in catalog.ids() + (IRR_ID,) if vid in touched)
    stated = set(catalog.ids()) - {t for _, _, t in IRREGULAR.values()} | {IRREGULAR[kind][2]}
    derived = set(vertex_ids)
    if derived != stated:
        raise StructuralError(
            f"{kind}: the derived vertices differ from the swap in IRREGULAR: "
            f"extra {sorted(derived - stated)}, missing {sorted(stated - derived)}"
        )
    g = DeformationGraph(kind, vertex_ids, tuple(edges))
    problems = _graph_violations(g, catalog)
    if problems:
        raise StructuralError(f"{kind}: {problems[0]}")
    return g


def build_k3_graph(catalog: Catalog) -> DeformationGraph:
    """All 75 vertices; one edge per (vertex, class) with a square -2 element."""
    return _build_graph(catalog, "k3")


def build_k4_graph(catalog: Catalog) -> Tuple[DeformationGraph, Dict[str, K4VertexData]]:
    """Square-6 edges; the vertices come out as the K3 ids but [8S]_I, then ``irr``."""
    g = _build_graph(catalog, "k4")
    neg = from_summands(IRR_MINUS_SUMMANDS, "U(2)+3D4")
    _validate_irr(neg, catalog)
    plus = {vid: neg if vid == IRR_ID else catalog.by_id(vid).lplus for vid in g.vertex_ids}
    return g, {vid: K4VertexData(vid, rescale(l, -1), vid) for vid, l in plus.items()}


def _validate_irr(neg: GramLattice, catalog: Catalog) -> None:
    """The lattice facts that identify -M_- of the irregular K4 vertex."""
    if IRR_KEY in K3_KEYS:
        raise StructuralError(f"irr: {tuple(IRR_KEY)} must not be a K3 key")
    if signature(neg) != (1, IRR_KEY.r - 1):
        raise StructuralError(f"irr: -M_- must have signature (1, {IRR_KEY.r - 1})")
    dg = _two_elementary(neg.gram)
    if dg is None or dg.rank != IRR_KEY.d:
        raise StructuralError(f"irr: -M_- must have 2-periodic discriminant of rank {IRR_KEY.d}")
    if ("II" if dg._delta else "I") != IRR_KEY.vtype:
        raise StructuralError(f"irr: -M_- must carry a discriminant form of type {IRR_KEY.vtype}")
    for v in catalog:
        verdict = lattices_equivalent(neg, v.lplus)
        if verdict != "no":
            raise StructuralError(f"irr: -M_- vs L+({v.vid}) is {verdict!r}, expected 'no'")


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def graph_json_dict(g: DeformationGraph, catalog: Catalog) -> dict:
    vertices = []
    for vid in g.vertex_ids:
        r, d, vtype = _vertex_key(vid, catalog)
        vertices.append({"id": vid, "r": r, "d": d, "type": vtype})
    edges = [
        {"from": e.src, "to": e.dst, "class": e.label.cls.value} for e in g.edges
    ]
    return {"schema": "k4graph/1", "kind": g.kind, "vertices": vertices, "edges": edges}


_EDGE_STYLE = {
    ElementClass.ODD: "solid",
    ElementClass.WU: "bold",
    ElementClass.EVEN_NON_WU: "dashed",
}


def graph_dot(g: DeformationGraph, catalog: Catalog) -> str:
    lines = [f"digraph {g.kind} {{"]
    for vid in g.vertex_ids:
        label = "K4-irr" if vid == IRR_ID else vid.replace("[", "").replace("]", "")
        boxed = _vertex_key(vid, catalog).vtype == "I"
        shape = "shape=box, style=filled" if boxed else "shape=circle"
        lines.append(f'  "{vid}" [label="{label}", {shape}];')
    for e in g.edges:
        lines.append(f'  "{e.src}" -> "{e.dst}" [style={_EDGE_STYLE[e.label.cls]}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def __getattr__(name: str):
    """The verify checks live in ``graph_checks``; their names, and the names
    they were built from, still resolve here (PEP 562), so code that reads
    ``graphs.verify_flip_cycle`` executes that module only then."""
    if not name.startswith("__"):
        from . import graph_checks

        checks = vars(graph_checks)
        if name in checks:
            return checks[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""The checks that ``k4graph verify`` runs on the built K3 and K4 graphs.

The regular subgraphs and the isomorphism F between them, the flip pairs and
their flip cycles, the basic cycles, the K4 eigenlattice synthesis, and the
eigenlattice bookkeeping along every K3 edge.  Only ``verify`` and the library
run them, so they live apart from the graph builders of ``graphs``, which
``build`` and ``export`` execute; ``graphs`` still resolves each name here
(``from k4graph.graphs import verify_flip_cycle`` works).
"""

from __future__ import annotations

from itertools import chain, islice
from operator import mul
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .lattice import (
    GramLattice, LatticeError, LatticeVector, STANDARD_GRAMS, _Record, _complement, _set,
    _two_elementary, direct_sum, from_summands, gram_apply, inner, is_even,
    lattices_equivalent, make_standard, norm, rescale, signature, twist,
)
from .finite_forms import _smith
from .catalog import Catalog, ElementClass, K3Vertex, exists_class
from .elements import _search, classify_element
from .graphs import IRREGULAR, DeformationGraph, GraphEdge, StructuralError, terminal_key

# ---------------------------------------------------------------------------
# regular subgraphs and the graph isomorphism F
# ---------------------------------------------------------------------------

class FReport(_Record):
    __slots__ = ("vertices", "edges", "bijective", "mismatches")
    _defaults = {"mismatches": []}

    @property
    def ok(self) -> bool:
        return self.bijective and not self.mismatches


def _edge_triples(g: DeformationGraph) -> Set[Tuple[str, ElementClass, str]]:
    return {(e.src, e.label.cls, e.dst) for e in g.edges}


def _regular_part(g: DeformationGraph) -> Tuple[Set[str], Set[Tuple[str, ElementClass, str]]]:
    irr = IRREGULAR[g.kind][2]
    edges = {t for t in _edge_triples(g) if irr not in (t[0], t[2])}
    return set(g.vertex_ids) - {irr}, edges


def regular_subgraphs_and_F(k3: DeformationGraph, k4: DeformationGraph) -> FReport:
    """Drop the irregular vertex and edge on each side; F is the key identity.

    Verifies that F is a bijection on the 74 regular vertices and on all
    regular edges, preserving orientation and class.
    """
    k3_vertices, k3_star = _regular_part(k3)
    k4_vertices, k4_star = _regular_part(k4)
    mismatches: List[str] = []
    if k3_vertices != k4_vertices:
        extra3 = sorted(k3_vertices - k4_vertices)
        extra4 = sorted(k4_vertices - k3_vertices)
        mismatches.append(f"vertex sets differ: k3-only {extra3}, k4-only {extra4}")
    for item in sorted(k3_star - k4_star, key=str):
        mismatches.append(f"k3 edge without k4 correspondent: {item}")
    for item in sorted(k4_star - k3_star, key=str):
        mismatches.append(f"k4 edge without k3 correspondent: {item}")
    bij = not mismatches and len(k3_star) == len(k4_star)
    return FReport(len(k3_vertices), len(k3_star), bij, mismatches)


def k4_equals_k3_after_swap(k3: DeformationGraph, k4: DeformationGraph) -> bool:
    """K4 is K3 minus its irregular edge and vertex plus the K4 irregular edge."""
    k3_e, k4_e = _edge_triples(k3), _edge_triples(k4)
    removed, added = IRREGULAR["k3"], IRREGULAR["k4"]
    return (
        k3_e - {removed} == k4_e - {added}
        and removed in k3_e
        and added in k4_e
        and set(k4.vertex_ids) == (set(k3.vertex_ids) - {removed[2]}) | {added[2]}
    )


# ---------------------------------------------------------------------------
# flips and flip cycles
# ---------------------------------------------------------------------------

class FlipTriple(_Record, frozen=True):
    """An orthogonal pair h, v in L-(c) with h^2 = 6, v^2 = -2."""

    __slots__ = ("h", "v")

    def __init__(self, h: LatticeVector, v: LatticeVector) -> None:
        if h.ambient.gram != v.ambient.gram:
            raise LatticeError("flip pair must share one ambient lattice")
        rows = [(c, row) for c, row in zip(h.coords, h.ambient.gram) if c]  # h's support, once
        if (hh := sum([c * sum(map(mul, row, h.coords)) for c, row in rows])) != 6:
            raise LatticeError(f"h^2 = {hh} != 6")
        if (vv := norm(v)) != -2:
            raise LatticeError(f"v^2 = {vv} != -2")
        if sum([c * sum(map(mul, row, v.coords)) for c, row in rows]):
            raise LatticeError("h and v are not orthogonal")
        _set(self, "h", h)
        _set(self, "v", v)

    @property
    def ambient(self) -> GramLattice:
        return self.h.ambient


def flip(t: FlipTriple) -> FlipTriple:
    """The flip involution (h, v) -> (2h - 3v, h - 2v) in the same ambient."""
    h2 = t.h.scale(2) - t.v.scale(3)
    v2 = t.h - t.v.scale(2)
    return FlipTriple(h2, v2)


def find_flip_triple(v: K3Vertex, bound: int = 3, limit: int = 40) -> Optional[FlipTriple]:
    """Bounded search for an orthogonal (h, v) pair in L-(c), or None.

    h and v are drawn lazily: a new v only when none drawn so far pairs with h.
    This is the search reference; ``verify`` uses ``construct_flip_triple``.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    l = v.lminus
    drawn: List[Tuple[LatticeVector, List[int]]] = []  # each w with G·w
    def draw():
        for w in islice(_search(l, -2, None, bound), limit):
            drawn.append((w, gram_apply(l, w.coords)))
            yield drawn[-1]
    fresh = draw()  # one generator for every h, so each w is drawn once
    for h in islice(_search(l, 6, None, bound), limit):
        for w, gw in chain(drawn, fresh):
            if sum(map(mul, h.coords, gw)) == 0:
                return FlipTriple(h, w)
    return None


# Per standard block, small witnesses as (square, coords): v is the root of
# one block, and h takes at most one part per block, from _FLIP_PERP (the
# parts orthogonal to the root) in v's block and from _FLIP_PARTS elsewhere.
_FLIP_ROOT: Dict[str, Tuple[int, ...]] = {"<-2>": (1,), "U": (1, -1)}
_FLIP_PARTS = {
    "<2>": ((2, (1,)), (8, (2,))), "<-2>": ((-2, (1,)),), "E8(2)": (),
    "U": ((2, (1, 1)), (4, (1, 2)), (6, (1, 3))), "U(2)": ((4, (1, 1)), (8, (1, 2))),
}
_FLIP_PERP = {"<-2>": (), "U": ((2, (1, 1)),)}
for _name in ("D4", "E7", "E8"):  # nodes 1 and 2 are two leaves at the branch node
    _pad = (0,) * (len(STANDARD_GRAMS[_name]) - 3)
    _FLIP_ROOT[_name] = (0, 1, 0) + _pad
    _FLIP_PARTS[_name] = ((-2, (0, 1, 0) + _pad),)
    _FLIP_PERP[_name] = ((-2, (0, 0, 1) + _pad),)


def construct_flip_triple(v: K3Vertex) -> Optional[FlipTriple]:
    """The flip pair of L-(c) built from per-block witnesses, with no search.

    v is the root of the first block that has one and from which h, one part
    per block, reaches a square of 6.  None when no root block does;
    ``verification.suite_graphs`` proves that no pair exists there.
    """
    names, l, v_off = v.lminus_summands, v.lminus, 0
    for at, name in enumerate(names):
        if name in _FLIP_ROOT:
            reach, off = {0: ()}, 0  # square of h so far -> its (offset, coords) parts
            for i, other in enumerate(names):
                for s, parts in list(reach.items()):
                    for sq, x in (_FLIP_PERP if i == at else _FLIP_PARTS)[other]:
                        if s + sq not in reach:
                            reach[s + sq] = parts + ((off, x),)
                off += len(STANDARD_GRAMS[other])
                if 6 in reach:
                    h, root = [0] * l.rank, _FLIP_ROOT[name]
                    for o, x in reach[6]:
                        h[o:o + len(x)] = x
                    w = (0,) * v_off + root + (0,) * (l.rank - v_off - len(root))
                    return FlipTriple(LatticeVector(tuple(h), l), LatticeVector(w, l))
        v_off += len(STANDARD_GRAMS[name])
    return None


class FlipCycleReport(_Record):
    __slots__ = ("origin", "identities", "detail")

    @property
    def ok(self) -> bool:
        return all(self.identities) and len(self.identities) == 4


def verify_flip_cycle(
    c: K3Vertex, t: FlipTriple, k4: DeformationGraph, catalog: Catalog
) -> FlipCycleReport:
    """Check the four endpoint identities of the quadrilateral spanned by (c, h, v).

    The cycle runs over the K4 edges labelled by h and 2h-3v at c and by the
    push-forwards of those classes at the two K3 neighbours c_v and c_{v2}.
    """
    if t.ambient.gram != c.lminus.gram:
        raise LatticeError("flip triple does not live in L-(c)")
    h1, v1 = t.h, t.v
    flipped = flip(t)
    h2, v2 = flipped.h, flipped.v
    detail: List[str] = []
    identities: List[bool] = []

    cls_h1 = classify_element(c.lminus, h1)
    cls_h2 = classify_element(c.lminus, h2)
    cls_v1 = classify_element(c.lminus, v1)
    cls_v2 = classify_element(c.lminus, v2)

    def k4_edge(src: str, cls: ElementClass) -> Optional[GraphEdge]:
        e = k4.edge(src, cls)
        if e is None:
            detail.append(f"missing K4 edge ({src}, {cls.value})")
        return e

    # identity 1: w[c,h1] = w[c,h2]; both edges emanate from [c]
    e1 = k4_edge(c.vid, cls_h1)
    e2 = k4_edge(c.vid, cls_h2)
    identities.append(e1 is not None and e2 is not None and e1.src == e2.src == c.vid)

    # the two K3 neighbours c_{v1}, c_{v2}
    cv1 = catalog.lookup(terminal_key(c.key, cls_v1))
    cv2 = catalog.lookup(terminal_key(c.key, cls_v2))

    # push h1 into L-(c_{v1}) = v1-perp and h2 into L-(c_{v2}) = v2-perp
    # (h_i is orthogonal to v_i, so its coordinates there are (V^-1·h_i)[1:])
    def pushed_class(v: LatticeVector, h: LatticeVector) -> ElementClass:
        sub, vinv = _complement(c.lminus, v)
        return classify_element(sub, sub.vector(sum(map(mul, r, h.coords)) for r in vinv[1:]))

    cls_h1_sub = pushed_class(v1, h1)
    cls_h2_sub = pushed_class(v2, h2)

    # identity 2: w_(+)[c,h1] = w[c_{v2},h2]
    e_cv2 = k4_edge(cv2.vid, cls_h2_sub)
    identities.append(e1 is not None and e_cv2 is not None and e1.dst == e_cv2.src == cv2.vid)

    # identity 3: w_(+)[c,h2] = w[c_{v1},h1]
    e_cv1 = k4_edge(cv1.vid, cls_h1_sub)
    identities.append(e2 is not None and e_cv1 is not None and e2.dst == e_cv1.src == cv1.vid)

    # identity 4: w_(+)[c_{v1},h1] = w_(+)[c_{v2},h2]
    identities.append(
        e_cv1 is not None and e_cv2 is not None and e_cv1.dst == e_cv2.dst
    )
    return FlipCycleReport(c.vid, identities, detail)


# ---------------------------------------------------------------------------
# basic cycles
# ---------------------------------------------------------------------------

class BasicCycle(_Record):
    # edges_pos are traversed forwards, edges_neg backwards
    __slots__ = ("origin", "even_cls", "edges_pos", "edges_neg", "regular")


class BasicCycleReport(_Record):
    # cycle_rank is |E| - |V| + 1 of the K3 graph
    __slots__ = ("cycles", "all_regular", "cycle_rank", "incidence_rank", "incidence_divisors")

    @property
    def count_matches_rank(self) -> bool:
        return len(self.cycles) == self.cycle_rank

    @property
    def full_rank(self) -> bool:
        return self.incidence_rank == len(self.cycles)


def basic_cycles_regular(k3: DeformationGraph, catalog: Catalog) -> BasicCycleReport:
    """Enumerate the basic cycles (odd + even edge pairs) and test regularity.

    A basic cycle at [c] uses the odd edge and one even-class edge [c,v2];
    it is regular when the even terminal admits an odd element of square 6.
    The two parallel paths are chased through the graph, so the report also
    certifies that they land on one common vertex.
    """
    cycles: List[BasicCycle] = []
    all_regular = True
    for vid in k3.vertex_ids:
        odd_edge = k3.edge(vid, ElementClass.ODD)
        if odd_edge is None:
            continue
        for even_cls in (ElementClass.WU, ElementClass.EVEN_NON_WU):
            even_edge = k3.edge(vid, even_cls)
            if even_edge is None:
                continue
            cv1 = odd_edge.dst  # terminal of the odd edge
            cv2 = even_edge.dst
            # path 1: odd edge, then the even class (never Wu downstairs)
            second1 = k3.edge(cv1, ElementClass.EVEN_NON_WU)
            # path 2: even edge, then odd
            second2 = k3.edge(cv2, ElementClass.ODD)
            if second1 is None or second2 is None or second1.dst != second2.dst:
                raise StructuralError(
                    f"basic cycle at {vid} via {even_cls.value} does not close"
                )
            regular = exists_class(catalog.by_id(cv2), 1, ElementClass.ODD)
            all_regular = all_regular and regular
            cycles.append(
                BasicCycle(
                    vid,
                    even_cls,
                    ((vid, ElementClass.ODD), (cv1, ElementClass.EVEN_NON_WU)),
                    ((vid, even_cls), (cv2, ElementClass.ODD)),
                    regular,
                )
            )
    edge_index = {(e.src, e.label.cls): i for i, e in enumerate(k3.edges)}
    rows = []
    for cyc in cycles:
        row = [0] * len(k3.edges)
        for key in cyc.edges_pos:
            row[edge_index[key]] += 1
        for key in cyc.edges_neg:
            row[edge_index[key]] -= 1
        rows.append(row)
    divisors = _snf_divisors(rows)
    cycle_rank = len(k3.edges) - len(k3.vertex_ids) + 1
    # the rank over Q is the number of nonzero Smith invariant factors
    return BasicCycleReport(cycles, all_regular, cycle_rank, len(divisors), divisors)


def _snf_divisors(rows: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """The nonzero Smith invariant factors, read from the divisors alone; they
    are the transpose's, whose Vᵀ is as wide as ``rows`` is long (52, not 126)."""
    if not rows:
        return ()
    return tuple([d for d in _smith(list(zip(*rows)), False)[0] if d])


# ---------------------------------------------------------------------------
# K4 eigenlattice synthesis
# ---------------------------------------------------------------------------

def synthesize_k4_plus(c: K3Vertex, h: LatticeVector) -> GramLattice:
    """The positive K4 eigenlattice M_+ = t_w((-L_-) + Z) with w = h + 2e.

    M_+ is returned on this basis: the standard blocks of -L_- that h misses,
    in L_-'s order, then those it touches, then e.  The twist changes only
    the rows and columns that Gw meets, so the missed blocks stay diagonal and
    the eliminations answer them from the block memo.

    Checks all postconditions: w^2 = -2 before twisting, M_+ odd with
    signature (rank L_-, 1), discriminant rank d, and H = h + 3e of square 3
    orthogonal to w.
    """
    if h.ambient.gram != c.lminus.gram:
        raise LatticeError("h must live in L-(c)")
    if norm(h) != 6:
        raise LatticeError(f"h^2 = {norm(h)} != 6")
    blocks, off = [], 0
    for name in c.lminus_summands:
        part = h.coords[off : off + len(STANDARD_GRAMS[name])]
        blocks.append((any(part), name, part))
        off += len(part)
    blocks.sort(key=lambda b: b[0])  # stable: missed, then touched, each in L_-'s order
    coords = [x for _, _, part in blocks for x in part]  # h on the reordered blocks
    ambient = direct_sum(rescale(from_summands([b[1] for b in blocks]), -1), make_standard("<1>"))
    w = ambient.vector(coords + [2])
    big_h = ambient.vector(coords + [3])
    if norm(w) != -2:
        raise StructuralError(f"{c.vid}: w^2 = {norm(w)} != -2")
    if norm(big_h) != 3 or inner(w, big_h) != 0:
        raise StructuralError(f"{c.vid}: H^2 = 3 and w._|_.H postcondition failed")
    mplus = twist(ambient, w)
    if is_even(mplus):
        raise StructuralError(f"{c.vid}: M_+ must be odd")
    expect_sig = (c.lminus.rank, 1)
    if signature(mplus) != expect_sig:
        raise StructuralError(
            f"{c.vid}: signature(M_+) = {signature(mplus)} != {expect_sig}"
        )
    dg = _two_elementary(mplus.gram)
    if dg is None:
        raise StructuralError(f"{c.vid}: discr M_+ is not 2-elementary")
    if dg.rank != c.d:
        raise StructuralError(
            f"{c.vid}: rank(discr M_+) = {dg.rank} != d = {c.d}"
        )
    return GramLattice._bind(mplus.rank, mplus.gram, f"M+{c.vid}", None)


# ---------------------------------------------------------------------------
# per-edge lattice checks
# ---------------------------------------------------------------------------

class StructuralReport(_Record):
    __slots__ = ("verified", "undecidable", "failures")
    _defaults = {"undecidable": [], "failures": []}

    @property
    def ok(self) -> bool:
        return not self.failures


def structural_checks(k3: DeformationGraph, catalog: Catalog) -> StructuralReport:
    """Eigenlattice bookkeeping along every K3 edge.

    Odd edges satisfy L+(origin) + <-2> = L+(terminal); even edges satisfy
    L-(terminal) + <-2> = L-(origin), both up to the finite-form oracle.
    """
    rep = StructuralReport(0)
    minus2 = make_standard("<-2>")
    for e in k3.edges:
        o = catalog.by_id(e.src)
        t = catalog.by_id(e.dst)
        if e.label.cls is ElementClass.ODD:
            verdict = lattices_equivalent(direct_sum(o.lplus, minus2), t.lplus)
            desc = f"odd edge {e.src}->{e.dst}: L+(o)+<-2> vs L+(t)"
        else:
            verdict = lattices_equivalent(direct_sum(t.lminus, minus2), o.lminus)
            desc = f"{e.label.cls.value} edge {e.src}->{e.dst}: L-(t)+<-2> vs L-(o)"
        if verdict == "yes":
            rep.verified += 1
        elif verdict == "undecidable":
            rep.undecidable.append(desc)
        else:
            rep.failures.append(desc)
    return rep

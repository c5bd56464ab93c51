"""The 75-entry catalog of real K3-involution classes.

The two principal-series tables and the exceptional table are transcribed
below as structured constants, one line per source row, so the data can be
audited against the lattice listing directly.  ``build_catalog`` instantiates
them, pairs eigenlattices by topological type, and validates every entry
invariant before returning.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .lattice import GramLattice, _Record, _set, from_summands, is_even, signature
from .finite_forms import _two_elementary


class CatalogError(ValueError):
    """Raised when catalog data violates a structural invariant."""


# Principal series, positive eigenlattice; one row per sphere count q.
# Row format: q -> (number of <2> summands, non-diagonal blocks); the
# <-2> multiplicity t runs over every value keeping p = pmax - t >= 0.
PRINCIPAL_LPLUS: Dict[int, Tuple[int, Tuple[str, ...]]] = {
    0: (1, ()),
    1: (0, ("U",)),
    2: (0, ("U", "D4")),
    3: (1, ("E7",)),
    4: (1, ("E8",)),
    5: (0, ("U", "E8")),
    6: (0, ("U", "D4", "E8")),
    7: (1, ("E7", "E8")),
    8: (1, ("E8", "E8")),
    9: (0, ("U", "E8", "E8")),
}
# largest p occurring in the row keyed by q
PRINCIPAL_LPLUS_PMAX: Dict[int, int] = {
    0: 10, 1: 10, 2: 7, 3: 6, 4: 6, 5: 6, 6: 3, 7: 2, 8: 2, 9: 2,
}

# Principal series, negative eigenlattice; one row per genus p.
PRINCIPAL_LMINUS: Dict[int, Tuple[int, Tuple[str, ...]]] = {
    0: (2, ()),
    1: (1, ("U",)),
    2: (0, ("U", "U")),
    3: (0, ("U", "U", "D4")),
    4: (2, ("E8",)),
    5: (1, ("U", "E8")),
    6: (0, ("U", "U", "E8")),
    7: (0, ("U", "U", "D4", "E8")),
    8: (2, ("E8", "E8")),
    9: (1, ("U", "E8", "E8")),
    10: (0, ("U", "U", "E8", "E8")),
}
# largest q occurring in the row keyed by p
PRINCIPAL_LMINUS_QMAX: Dict[int, int] = {
    0: 9, 1: 9, 2: 9, 3: 6, 4: 5, 5: 5, 6: 5, 7: 2, 8: 1, 9: 1, 10: 1,
}

# Exceptional entries: (p, q, with _I subscript) or a named topological type.
# The [S9]_I positive eigenlattice is U(2): the source listing shows "2U",
# which breaks rank(L+)+rank(L-)=22 and sigma_+(L+)=1, so it is corrected.
EXCEPTIONAL: Tuple[Tuple[str, Optional[Tuple[int, int]], Tuple[str, ...], Tuple[str, ...]], ...] = (
    ("[8S]_I", (0, 7), ("U", "D4", "D4", "E8"), ("U(2)", "U(2)")),
    ("[S1+8S]_I", (1, 8), ("U(2)", "E8", "E8"), ("U", "U(2)")),
    ("[S1+4S]_I", (1, 4), ("U", "D4", "D4", "D4"), ("U(2)", "U(2)", "D4")),
    ("[S2+5S]_I", (2, 5), ("U(2)", "D4", "E8"), ("U", "U(2)", "D4")),
    ("[S3+2S]_I", (3, 2), ("U(2)", "D4", "D4"), ("U", "U(2)", "D4", "D4")),
    ("[S4+3S]_I", (4, 3), ("U", "D4", "D4"), ("U", "U", "D4", "D4")),
    ("[S5+4S]_I", (5, 4), ("U(2)", "E8"), ("U", "U(2)", "E8")),
    ("[S6+S]_I", (6, 1), ("U(2)", "D4"), ("U", "U(2)", "D4", "E8")),
    ("[S9]_I", (9, 0), ("U(2)",), ("U", "U(2)", "E8", "E8")),
    ("[2S1]", None, ("U", "E8(2)"), ("U", "U", "E8(2)")),
    ("[empty]", None, ("U(2)", "E8(2)"), ("U", "U(2)", "E8(2)")),
)


class TopType(_Record, frozen=True):
    """Topological type of the real locus: S_p + qS, a pair of tori, or empty."""

    __slots__ = ("kind", "p", "q", "subscript_I")

    def __init__(
        self, kind: str, p: Optional[int] = None, q: Optional[int] = None,
        subscript_I: bool = False,
    ) -> None:
        if kind == "spheres":
            if p is None or q is None or p < 0 or q < 0:
                raise CatalogError("S_p + qS types need p >= 0 and q >= 0")
        elif kind not in ("two_tori", "empty"):
            raise CatalogError(f"unknown topological kind {kind!r}")
        _set(self, "kind", kind)
        _set(self, "p", p)
        _set(self, "q", q)
        _set(self, "subscript_I", subscript_I)


class VertexKey(NamedTuple):
    r: int
    d: int
    vtype: str  # "I" | "II"


class K3Vertex(_Record, frozen=True):
    """One catalog entry: a real K3-involution class with its eigenlattices."""

    __slots__ = ("vid", "top", "lplus", "lminus", "r", "d", "vtype")

    def __init__(
        self, vid: str, top: TopType, lplus: GramLattice, lminus: GramLattice,
        r: int, d: int, vtype: str,
    ) -> None:
        _set(self, "vid", vid)
        _set(self, "top", top)
        _set(self, "lplus", lplus)
        _set(self, "lminus", lminus)
        _set(self, "r", r)
        _set(self, "d", d)
        _set(self, "vtype", vtype)

    @property
    def key(self) -> VertexKey:
        return VertexKey(self.r, self.d, self.vtype)

    @property
    def lplus_summands(self) -> Tuple[str, ...]:
        assert self.lplus.summands is not None
        return self.lplus.summands

    @property
    def lminus_summands(self) -> Tuple[str, ...]:
        assert self.lminus.summands is not None
        return self.lminus.summands

    @property
    def diag_s(self) -> int:
        """The number of <2> summands of L-."""
        return self.lminus_summands.count("<2>")

    @property
    def diag_t(self) -> int:
        """The number of <-2> summands of L-."""
        return self.lminus_summands.count("<-2>")

    @property
    def kS_flag(self) -> bool:
        """L- is diagonal: the kS family."""
        return self.diag_s + self.diag_t == len(self.lminus_summands)


def _vertex_id(p: int, q: int, subscript_i: bool) -> str:
    if p == 0:
        base = f"[{q + 1}S]"
    elif q == 0:
        base = f"[S{p}]"
    elif q == 1:
        base = f"[S{p}+S]"
    else:
        base = f"[S{p}+{q}S]"
    return base + ("_I" if subscript_i else "")


def _diag_names(s: int, t: int) -> Tuple[str, ...]:
    return ("<2>",) * s + ("<-2>",) * t


def _principal_summands(p: int, q: int) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """(L+ blocks, L- blocks) for the principal vertex S_p + qS."""
    s_plus, nondiag_plus = PRINCIPAL_LPLUS[q]
    t_plus = PRINCIPAL_LPLUS_PMAX[q] - p
    s_minus, nondiag_minus = PRINCIPAL_LMINUS[p]
    t_minus = PRINCIPAL_LMINUS_QMAX[p] - q
    if t_plus < 0 or t_minus < 0:
        raise CatalogError(f"(p, q) = ({p}, {q}) is outside the principal series")
    return _diag_names(s_plus, t_plus) + nondiag_plus, _diag_names(s_minus, t_minus) + nondiag_minus


class Catalog(Sequence[K3Vertex]):
    """Immutable catalog of the 75 vertices with key and id lookup."""

    def __init__(self, vertices: Sequence[K3Vertex]):
        self._vertices = tuple(vertices)
        self._by_key = {v.key: v for v in self._vertices}
        self._by_id = {v.vid: v for v in self._vertices}
        if len(self._by_key) != len(self._vertices):
            raise CatalogError("vertex keys are not unique")

    def __len__(self) -> int:
        return len(self._vertices)

    def __iter__(self) -> Iterator[K3Vertex]:
        return iter(self._vertices)

    def __getitem__(self, i):
        return self._vertices[i]

    def lookup(self, key: VertexKey) -> K3Vertex:
        try:
            return self._by_key[VertexKey(*key)]
        except KeyError:
            raise CatalogError(f"no such vertex with key {tuple(key)}") from None

    def by_id(self, vid: str) -> K3Vertex:
        try:
            return self._by_id[vid]
        except KeyError:
            raise CatalogError(f"no such vertex id {vid!r}") from None

    def ids(self) -> Tuple[str, ...]:
        return tuple(v.vid for v in self._vertices)


def _make_vertex(
    vid: str,
    top: TopType,
    plus_names: Tuple[str, ...],
    minus_names: Tuple[str, ...],
) -> K3Vertex:
    lplus = from_summands(plus_names, label=f"L+{vid}")
    lminus = from_summands(minus_names, label=f"L-{vid}")
    disc_plus = _two_elementary(lplus.gram)
    disc_minus = _two_elementary(lminus.gram)
    if disc_plus is None or disc_minus is None:
        raise CatalogError(f"catalog entry {vid}: discriminant groups must be 2-periodic")
    vt = "I" if disc_minus._delta == 0 else "II"
    return K3Vertex(vid, top, lplus, lminus, lplus.rank, disc_plus.rank, vt)


def _validate_vertex(v: K3Vertex) -> List[str]:
    """Every per-vertex invariant the entry violates, in a fixed order.

    The vertex came from ``_make_vertex``, which already needed both
    eigenlattices non-degenerate with 2-periodic discriminants, so every
    check here can be evaluated.
    """
    out: List[str] = []
    if v.lplus.rank + v.lminus.rank != 22:
        out.append(f"rank(L+) + rank(L-) = {v.lplus.rank + v.lminus.rank} != 22")
    if not is_even(v.lplus) or not is_even(v.lminus):
        out.append("eigenlattices must be even")
    sp = signature(v.lplus)
    sm = signature(v.lminus)
    if sp[0] != 1:
        out.append(f"sigma_+(L+) = {sp[0]} != 1")
    if sm[0] != 2:
        out.append(f"sigma_+(L-) = {sm[0]} != 2")
    if v.r != v.lplus.rank:
        out.append("r does not equal rank(L+)")
    dg_plus = _two_elementary(v.lplus.gram)
    dg_minus = _two_elementary(v.lminus.gram)
    if v.d != dg_plus.rank or v.d != dg_minus.rank:
        out.append(
            f"discriminant ranks disagree: d={v.d}, L+ gives {dg_plus.rank}, L- gives {dg_minus.rank}"
        )
    vt = "I" if dg_minus._delta == 0 else "II"
    if v.vtype != vt:
        out.append("parity of discr(L-) disagrees with vertex type")
    if v.top.kind == "spheres" and not v.top.subscript_I:
        # principal series: type I exactly when the diagonal component vanishes,
        # and the (r, d) coordinate formulas hold
        if (v.vtype == "I") != (v.diag_s == 0 and v.diag_t == 0):
            out.append("type I must coincide with s = t = 0 on the principal series")
        p, q = v.top.p, v.top.q
        if v.r != 11 - p + q:
            out.append(f"r = {v.r} != 11 - p + q = {11 - p + q}")
        if v.d != 11 - p - q:
            out.append(f"d = {v.d} != 11 - p - q = {11 - p - q}")
    return out


def build_catalog() -> Catalog:
    """Instantiate and validate all 75 vertices from the three tables."""
    vertices: list[K3Vertex] = []
    seen_pq = set()
    # principal series, enumerated by the negative-eigenlattice table rows
    for p in sorted(PRINCIPAL_LMINUS):
        for q in range(PRINCIPAL_LMINUS_QMAX[p], -1, -1):
            top = TopType("spheres", p, q, False)
            vid = _vertex_id(p, q, False)
            vertices.append(_make_vertex(vid, top, *_principal_summands(p, q)))
            seen_pq.add((p, q))
    principal_count = len(vertices)
    if principal_count != 64:
        raise CatalogError(f"principal series has {principal_count} entries, expected 64")
    # cross-check: the positive-eigenlattice table instantiates the same (p, q) set
    from_plus = {
        (p, q)
        for q in PRINCIPAL_LPLUS
        for p in range(PRINCIPAL_LPLUS_PMAX[q], -1, -1)
    }
    if from_plus != seen_pq:
        raise CatalogError("table rows for L+ and L- instantiate different vertex sets")
    for vid, pq, plus_names, minus_names in EXCEPTIONAL:
        if pq is not None:
            top = TopType("spheres", pq[0], pq[1], True)
        elif vid == "[2S1]":
            top = TopType("two_tori")
        else:
            top = TopType("empty")
        vertices.append(_make_vertex(vid, top, plus_names, minus_names))
    if len(vertices) != 75:
        raise CatalogError(f"catalog has {len(vertices)} entries, expected 75")
    for v in vertices:
        problems = _validate_vertex(v)
        if problems:
            raise CatalogError(f"catalog entry {v.vid}: {problems[0]}")
    kS_ids = {v.vid for v in vertices if v.kS_flag}
    expected_kS = {f"[{k}S]" for k in range(1, 11)}
    if kS_ids != expected_kS:
        raise CatalogError(f"kS family mismatch: {sorted(kS_ids)}")
    return Catalog(vertices)

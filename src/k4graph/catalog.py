"""The 75-entry catalog of real K3-involution classes.

A class is fixed by its key (r, d, type).  ``K3_KEYS`` is the key set that
Nikulin's existence theorem allows, folded from the stated per-block table
``BLOCK_INVARIANTS``: the rows of <2>, <-2>, U(2) and D4, whose discriminant
forms generate every form on (Z/2)^a, give the (σ mod 8, δ) that each
discriminant rank a reaches, with σ mod 8 as the Brown invariant (Milgram).
``_place`` reads each key's id and topological type off the key.  Only the
eigenlattices are transcribed, in two principal-series tables and the
exceptional table, one line per source row.  ``build_catalog`` instantiates
the rows and checks that their lattices give each key of ``K3_KEYS`` once, at
its placed id, among every entry invariant.  Each row's signatures,
discriminant rank d and type are folded once from its block names by
``_block_invariants``, by the direct-sum rule over the same table, so a short
command runs no lattice kernel and never executes ``lattice``.  ``verify``'s
lattice suite recomputes every row of the table, its forms suite checks
Brown = σ mod 8 on each even row, and its catalog suite checks the fold on
the whole Grams.

The class-existence rule sits next to the key theorem ``_exists``, because
the graph builders read it and nothing else of ``elements``.  x^2 mod 16 and
the class of x add up block by block over an orthogonal sum (Nikulin's
discriminant-form calculus): x is odd if a block part is odd, Wu if every
block part is Wu, and even-non-Wu otherwise.  So the (square, class) pairs a
catalog eigenlattice reaches are folded from the one per-block table
``SQUARES``, held as one 16-bit mask of residues per class: a block residue a
adds to a whole mask as a rotation by a.  ``exists_class`` is a bit test of
the fold, which decides the edge sets of both graphs from the lattice alone:
a negative answer is a proof; a positive one is backed by the explicit
witness of ``elements.construct_witness``.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from .gram import MEMO_SIZE, Invariants, _Record, _set, from_summands, is_even


class CatalogError(ValueError):
    """Raised when catalog data violates a structural invariant."""


_NOT_2_PERIODIC = "discriminant groups must be 2-periodic"


# Principal series, positive eigenlattice; one row per sphere count q.
# Row format: q -> (number of <2> summands, non-diagonal blocks); the
# <-2> multiplicity is pmax - p, where pmax is the largest p placed with q.
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

# Principal series, negative eigenlattice; one row per genus p; the <-2>
# multiplicity is qmax - q, where qmax is the largest q placed with p.
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
# Exceptional entries: the _I entries and the two named topological types.
# The [S9]_I positive eigenlattice is U(2): the source listing shows "2U",
# which breaks rank(L+)+rank(L-)=22 and sigma_+(L+)=1, so it is corrected.
EXCEPTIONAL: Tuple[Tuple[str, Tuple[str, ...], Tuple[str, ...]], ...] = (
    ("[8S]_I", ("U", "D4", "D4", "E8"), ("U(2)", "U(2)")),
    ("[S1+8S]_I", ("U(2)", "E8", "E8"), ("U", "U(2)")),
    ("[S1+4S]_I", ("U", "D4", "D4", "D4"), ("U(2)", "U(2)", "D4")),
    ("[S2+5S]_I", ("U(2)", "D4", "E8"), ("U", "U(2)", "D4")),
    ("[S3+2S]_I", ("U(2)", "D4", "D4"), ("U", "U(2)", "D4", "D4")),
    ("[S4+3S]_I", ("U", "D4", "D4"), ("U", "U", "D4", "D4")),
    ("[S5+4S]_I", ("U(2)", "E8"), ("U", "U(2)", "E8")),
    ("[S6+S]_I", ("U(2)", "D4"), ("U", "U(2)", "D4", "E8")),
    ("[S9]_I", ("U(2)",), ("U", "U(2)", "E8", "E8")),
    ("[2S1]", ("U", "E8(2)"), ("U", "U", "E8(2)")),
    ("[empty]", ("U(2)", "E8(2)"), ("U", "U(2)", "E8(2)")),
)


class TopType(_Record, frozen=True):
    """Topological type of the real locus: S_p + qS, a pair of tori, or empty."""

    __slots__ = ("kind", "p", "q", "subscript_I")

    def __init__(
        self, kind: str, p: Optional[int] = None, q: Optional[int] = None, subscript_I: bool = False
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


# (signature, rank a of L*/L, parity δ) of each standard block, or None for a
# block whose L*/L is not 2-elementary, which the catalog rows and the key set
# are folded from; ``verify``'s lattice suite recomputes every row with the
# kernels, with Smith |det| = 2^a
BLOCK_INVARIANTS: Dict[str, Optional[Invariants]] = {
    "<1>": ((1, 0), 0, 0),
    "<2>": ((1, 0), 1, 1),
    "<-2>": ((0, 1), 1, 1),
    "U": ((1, 1), 0, 0),
    "U(2)": ((1, 1), 2, 0),
    "D4": ((0, 4), 2, 0),
    "E7": ((0, 7), 1, 1),
    "E8": ((0, 8), 0, 0),
    "E8(2)": ((0, 8), 8, 0),
}


# The (σ mod 8, δ) of the forms on (Z/2)^a, a <= 22: each is a sum of the
# discriminant forms of <2>, <-2>, U(2) and D4 (Nikulin 1979, §1.8); Brown adds
# up their σ mod 8 (Milgram's formula), a adds, and δ is the largest
_GENERATORS = [row for row in map(BLOCK_INVARIANTS.get, ("<2>", "<-2>", "U(2)", "D4")) if row]
_FORMS: List[Set[Tuple[int, int]]] = [{(0, 0)}]
for _a in range(1, 23):
    _FORMS.append({
        ((s + p - n) % 8, max(d, delta))
        for (p, n), rank, delta in _GENERATORS if 0 < rank <= _a for s, d in _FORMS[_a - rank]
    })


def _exists(t_plus: int, t_minus: int, a: int, delta: int) -> bool:
    """An even 2-elementary lattice of signature (t_plus, t_minus), discriminant
    (Z/2)^a and parity delta exists (Nikulin 1979, Thm 3.6.2), for a <= 22."""
    r, sigma = t_plus + t_minus, (t_plus - t_minus) % 8
    # a = r makes L = M(2) with M unimodular; δ = 0 makes M even, so σ = 0 mod 8
    return a <= r and (sigma, delta) in _FORMS[a] and (delta or a != r or sigma == 0)


# Every key: L+ of signature (1, r - 1) and L- of signature (2, 20 - r) with
# the same discriminant rank d and parity delta; type I is delta = 0.
K3_KEYS = frozenset(
    VertexKey(r, d, vtype)
    for r in range(1, 21)
    for d in range(r + 1)
    for vtype, delta in (("I", 0), ("II", 1))
    if _exists(1, r - 1, d, delta) and _exists(2, 20 - r, d, delta)
)


def _place(key: VertexKey) -> Tuple[str, TopType]:
    """The id and topological type of the class with this key.

    X_R = S_p + qS has Euler characteristic 2r - 20 (Lefschetz) and F2-Betti
    sum 24 - 2d (Smith), so p = (22 - r - d)/2 and q = (r - d)/2.  The _I
    subscript marks a type I key whose type II twin is also a key.  Two type I
    keys are other real loci: (10, 8) is a pair of tori, (10, 10) is empty.
    """
    r, d, vtype = key
    if vtype == "I" and r == 10 and d in (8, 10):
        return ("[2S1]", TopType("two_tori")) if d == 8 else ("[empty]", TopType("empty"))
    p, q = (22 - r - d) // 2, (r - d) // 2
    sub = vtype == "I" and (r, d, "II") in K3_KEYS
    if p == 0:  # S_0 + qS is (q + 1)S
        vid = f"[{q + 1}S]"
    else:
        vid = f"[S{p}]" if q == 0 else f"[S{p}+{q if q > 1 else ''}S]"
    return vid + ("_I" if sub else ""), TopType("spheres", p, q, sub)


# The id and topological type of every key, placed once per process.
PLACEMENT: Dict[VertexKey, Tuple[str, TopType]] = {key: _place(key) for key in sorted(K3_KEYS)}


# ---------------------------------------------------------------------------
# element classes and the class-existence rule
# ---------------------------------------------------------------------------

class ElementClass(enum.Enum):
    ODD = "odd"
    WU = "wu"
    EVEN_NON_WU = "even-non-wu"


_O, _W, _N = ElementClass.ODD, ElementClass.WU, ElementClass.EVEN_NON_WU
_ODD_EVERYWHERE = frozenset((r, _O) for r in range(0, 16, 2))

# (x^2 mod 16, class of x) over all x of each standard block, with the class
# read in the block: odd iff G·x is not 0 mod 2, Wu iff x = wu_parities mod 2
# (``elements._wu_parities``).  An even x is 2y with y in L*, so its pair
# depends only on x mod 4L; in an even block an odd x reaches its whole class
# mod 4 (x + 2ku with x·u odd adds 0, 4, 8, 12).  tests/test_elements.py
# recomputes every entry
SQUARES = {
    "<1>": frozenset({(0, _W), (4, _W), (1, _O), (9, _O)}),
    "<2>": frozenset({(0, _N), (2, _W), (8, _N)}),
    "<-2>": frozenset({(0, _N), (8, _N), (14, _W)}),
    "U": frozenset({(0, _W), (8, _W)}) | _ODD_EVERYWHERE,
    "U(2)": frozenset({(0, _N), (0, _W), (4, _N), (8, _N), (12, _N)}),
    "D4": frozenset({(0, _W), (4, _N), (8, _W), (12, _N), (2, _O), (6, _O), (10, _O), (14, _O)}),
    "E7": frozenset({(0, _N), (2, _W), (8, _N), (10, _W)}) | _ODD_EVERYWHERE,
    "E8": frozenset({(0, _W), (8, _W)}) | _ODD_EVERYWHERE,
    "E8(2)": frozenset({(0, _N), (0, _W), (4, _N), (8, _N), (12, _N)}),
}


def _block_invariants(names: Sequence[str]) -> Optional[Invariants]:
    """The invariants of a sum of standard blocks, or None if a block is not
    2-elementary: over an orthogonal sum the signatures and the ranks a add,
    and δ is the largest of the blocks' (Nikulin 1979, §1)."""
    rows = [BLOCK_INVARIANTS[name] for name in names]
    if None in rows:
        return None
    sigs, ranks, deltas = zip(((0, 0), 0, 0), *rows)
    return tuple(map(sum, zip(*sigs))), sum(ranks), max(deltas)


def _join(a: ElementClass, b: ElementClass) -> ElementClass:
    """The class of x + y for x and y in orthogonal summands."""
    if a is _O or b is _O:
        return _O
    return _W if a is _W and b is _W else _N


# a class's position in the residue-mask tuples of ``_reach`` and of
# ``elements._fits``, and for each class c the positions of _join(c, d) for d
# in that order
_INDEX = {cls: i for i, cls in enumerate(ElementClass)}
_JOINS = {c: tuple([_INDEX[_join(c, d)] for d in ElementClass]) for c in ElementClass}


@lru_cache(maxsize=MEMO_SIZE)
def _reach(names: Tuple[str, ...]) -> Tuple[int, ...]:
    """Per class, in ``ElementClass`` order, the 16-bit mask with bit r set iff
    some x of that class in a sum of standard blocks has x^2 = r mod 16."""
    if not names:
        return tuple([int(cls is _W) for cls in ElementClass])  # x = 0 only
    rest = _reach(names[1:])
    out = [0, 0, 0]
    for a, c in SQUARES[names[0]]:
        for k, mask in zip(_JOINS[c], rest):  # every residue of rest, plus a
            out[k] |= (mask << a | mask >> (16 - a)) & 0xFFFF
    return tuple(out)


def _check_class(cls: ElementClass) -> None:
    if not isinstance(cls, ElementClass):
        raise ValueError(f"unknown class {cls!r}")


def exists_class(v: K3Vertex, n: int, cls: ElementClass) -> bool:
    """Does L-(c) contain an element of square 8n-2 in the given class?

    Yes iff the blocks of L-(c) reach (8n-2 mod 16, cls) in ``SQUARES``.
    "No" is a proof; "yes" is confirmed by ``elements.construct_witness``.
    """
    if n not in (0, 1):
        raise ValueError("n must be 0 or 1")
    _check_class(cls)
    return bool(_reach(v.lminus_summands)[_INDEX[cls]] >> (8 * n - 2) % 16 & 1)


class Catalog(Sequence[K3Vertex]):
    """Immutable catalog of the 75 vertices with key and id lookup."""

    def __init__(self, vertices: Sequence[K3Vertex]):
        self._vertices = tuple(vertices)
        self._by_key = {v.key: v for v in self._vertices}
        self._by_id = {v.vid: v for v in self._vertices}

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


def _validate_vertex(
    v: K3Vertex, invariants: Tuple[Optional[Invariants], Optional[Invariants]]
) -> List[str]:
    """Every per-vertex invariant the entry violates, in a fixed order.

    ``invariants`` holds those of L+ and L-: ``build_catalog`` passes its
    rows' block folds, and ``verify``'s catalog suite those of the whole
    Grams.  An eigenlattice whose discriminant group is not 2-elementary is
    the one violation reported, since the other checks read its invariants.
    """
    plus, minus = invariants
    if plus is None or minus is None:
        return [_NOT_2_PERIODIC]
    (sp, a_plus, _), (sm, a_minus, delta) = plus, minus
    out: List[str] = []
    if v.lplus.rank + v.lminus.rank != 22:
        out.append(f"rank(L+) + rank(L-) = {v.lplus.rank + v.lminus.rank} != 22")
    if not is_even(v.lplus) or not is_even(v.lminus):
        out.append("eigenlattices must be even")
    if sp[0] != 1:
        out.append(f"sigma_+(L+) = {sp[0]} != 1")
    if sm[0] != 2:
        out.append(f"sigma_+(L-) = {sm[0]} != 2")
    if v.r != v.lplus.rank:
        out.append("r does not equal rank(L+)")
    if v.d != a_plus or v.d != a_minus:
        out.append(f"discriminant ranks disagree: d={v.d}, L+ gives {a_plus}, L- gives {a_minus}")
    if v.vtype != ("I" if delta == 0 else "II"):
        out.append("parity of discr(L-) disagrees with vertex type")
    placed = PLACEMENT.get(v.key)
    if placed is None:
        out.append(f"key {tuple(v.key)} is not a K3 key by Nikulin's existence theorem")
    elif placed != (v.vid, v.top):
        out.append(f"key {tuple(v.key)} places {placed[0]} {placed[1]!r}")
    return out


def _make_vertex(
    vid: str, top: Optional[TopType], plus_names: Tuple[str, ...], minus_names: Tuple[str, ...]
) -> K3Vertex:
    """The validated entry of a table row, with d and the type folded from its
    blocks once, for the entry and its validation alike."""
    try:
        folds = plus, minus = _block_invariants(plus_names), _block_invariants(minus_names)
    except KeyError as exc:
        raise CatalogError(f"catalog entry {vid}: unknown block {exc.args[0]!r}") from None
    if plus is None or minus is None:
        raise CatalogError(f"catalog entry {vid}: {_NOT_2_PERIODIC}")
    lplus = from_summands(plus_names, label=f"L+{vid}")
    lminus = from_summands(minus_names, label=f"L-{vid}")
    v = K3Vertex(vid, top, lplus, lminus, lplus.rank, plus[1], "I" if minus[2] == 0 else "II")
    problems = _validate_vertex(v, folds)
    if problems:
        raise CatalogError(f"catalog entry {vid}: {problems[0]}")
    return v


def build_catalog() -> Catalog:
    """Instantiate and validate the entries of the three tables.

    The principal series is the placed keys that are neither _I nor a named
    type, and each table row's <-2> multiplicity is read off that set.  Every
    entry takes the topological type placed at its id and must have the key
    placed there; the entries' keys must be ``K3_KEYS``, each once."""
    tops = dict(PLACEMENT.values())
    cells = {
        (top.p, top.q): vid for vid, top in tops.items()
        if top.kind == "spheres" and not top.subscript_I
    }
    ordered = sorted(cells)  # by p, then q: the last value kept per key is the largest
    pmax = {q: p for p, q in ordered}
    qmax = {p: q for p, q in ordered}
    rows: List[Tuple[str, Tuple[str, ...], Tuple[str, ...]]] = []
    # principal series in the order of the negative-eigenlattice table rows
    for p, q in sorted(cells, key=lambda pq: (pq[0], -pq[1])):
        try:
            s_plus, plus = PRINCIPAL_LPLUS[q]
            s_minus, minus = PRINCIPAL_LMINUS[p]
        except KeyError:
            raise CatalogError(f"catalog cell (p, q) = ({p}, {q}) of {cells[p, q]} has no "
                               "principal table row") from None
        rows.append((cells[p, q], ("<2>",) * s_plus + ("<-2>",) * (pmax[q] - p) + plus,
                     ("<2>",) * s_minus + ("<-2>",) * (qmax[p] - q) + minus))
    # an id that no key is placed at gets no type, and fails validation
    vertices = [
        _make_vertex(vid, tops.get(vid), plus_names, minus_names)
        for vid, plus_names, minus_names in rows + list(EXCEPTIONAL)
    ]
    missing = K3_KEYS.difference(v.key for v in vertices)
    if missing or len(vertices) != len(K3_KEYS):
        raise CatalogError(f"entries do not cover the K3 keys once each; missing {sorted(missing)}")
    kS_ids = {v.vid for v in vertices if v.kS_flag}
    if kS_ids != {f"[{k}S]" for k in range(1, 11)}:
        raise CatalogError(f"kS family mismatch: {sorted(kS_ids)}")
    return Catalog(vertices)

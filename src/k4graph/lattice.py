"""Exact integer lattices: Gram matrices, standard constructors, and core operations.

Everything here is arbitrary-precision integer arithmetic; there are no
rationals and no floating point.  Signatures come from fraction-free
(Bareiss) symmetric elimination on the upper triangle, whose exact divisions
keep every entry a minor of the input, so no gcd pass is needed; its last
pivot is det G, so one elimination, ``_elimination``, gives both the inertia
and the determinant that ``_two_elementary`` reads.  An orthogonal complement
comes from a gcd sweep of G·v by unimodular column operations, each applied
to the Gram as a congruence, so its Gram is read off the swept Gram with no
matrix product; ``_complement`` returns the inverse of the sweep with it, the
coordinates in it that ``graph_checks.verify_flip_cycle`` reads.
Characteristic vectors and the GF(2) kernels of discriminant groups come from
``gf2_solve``, the one GF(2) solver of the package, which XORs in place rows
packed mod 2 by ``_parities``.  ``_diagonal`` assembles every direct sum in
one pass, and ``_elimination`` and ``_two_elementary`` read a Gram's diagonal
blocks, split once by the ``_split`` memo, one at a time through their memos,
so the catalog's sums of standard blocks are answered, exactly as whole
Grams, from the nine blocks' memo entries.

The 2-elementary kernel lives here too, because the catalog, the element
classes and the graph checks read it and nothing else of the finite forms:
``_two_elementary`` gives L*/L as a ``DiscriminantGroup`` from one GF(2)
elimination, ``bilinear_table`` its discriminant bilinear form mod 2, and
``lattices_equivalent`` compares (signature, a, δ).  Those invariants have one
home: ``_invariants`` reads them off a whole Gram, and ``_block_invariants``
folds them over a sum of standard blocks by Nikulin's direct-sum rule, the
signatures and a add and δ is the largest.  ``finite_forms`` builds the
quadratic forms, the Smith route and the Brown invariant on top of them.

``inertia`` (and so ``signature``) is memoized: it reads ``_elimination``, a
``functools.lru_cache`` keyed by the Gram tuple alone (labels and summands do
not change the answer) and bounded at ``MEMO_SIZE`` entries, and so is
``_two_elementary``.  This is sound because a Gram is a tuple of tuples of
ints and the results are tuples or frozen records of them, so neither the
key nor the shared result can be mutated; errors are not cached.
"""
from __future__ import annotations

import re
from functools import lru_cache
from itertools import compress, repeat
from math import prod
from operator import and_, index, mul, neg, rshift
from typing import Iterable, List, Optional, Sequence, Tuple

Gram = Tuple[Tuple[int, ...], ...]
_ONES = repeat(1)  # map(and_, row, _ONES) reads a row mod 2; endless, so safe to share

# Entries per memo (the Gram-keyed ones, the per-form Brown invariant and
# the block tables): one verify run eliminates 480 distinct Grams, diagonal
# blocks included, one entry each for the inertia and the det, and reads 466
# discriminant groups, so 1024 holds them all; they add 0.6 MB to its peak RSS.
MEMO_SIZE = 1024


class LatticeError(ValueError):
    """Raised for ill-formed lattices, vectors, or unsatisfiable preconditions."""


def _ints(values: Iterable[int]) -> Tuple[int, ...]:
    """Exact integers by ``operator.index``: any integer type passes, and a
    float, a rational or a string raises rather than being rounded or parsed."""
    values = tuple(values)
    try:
        return tuple(map(index, values))
    except TypeError:
        for x in values:
            if not hasattr(x, "__index__"):
                raise LatticeError(f"expected an exact integer, got {type(x).__name__}") from None
        raise


def _freeze(rows: Iterable[Iterable[int]]) -> Gram:
    return tuple([_ints(row) for row in rows])


class _Record:
    """A dataclass-style record over a subclass's ``__slots__``, its fields.

    ``__init__`` binds them by position, then by keyword, then from the class's
    ``_defaults`` (a list default is copied per instance); a missing, unexpected
    or repeated field, or too many positional arguments, raises ``TypeError``.
    A record that validates its arguments, or is built thousands of times per
    process, has its own ``__init__``.  Equality and the repr read the fields.
    A record is unhashable, like a dataclass with ``eq``, unless its class is
    declared with ``frozen=True``: then it hashes the tuple of its fields and
    refuses assignment, so fields are set through ``_set``.  Copies and pickles
    are rebuilt through ``__init__``; ``_bind`` alone skips it.
    """

    __slots__ = ()
    __hash__ = None
    _defaults: dict = {}

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{self.__class__.__name__} takes {len(names)} fields, got {len(args)}")
        for name, value in zip(names, args):
            _set(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
                if value.__class__ is list:
                    value = value.copy()
            else:
                raise TypeError(f"{self.__class__.__name__} is missing field {name!r}")
            _set(self, name, value)
        for name in kwargs:
            what = "repeated" if name in names else "unexpected"
            raise TypeError(f"{self.__class__.__name__} got {what} field {name!r}")

    @classmethod
    def _bind(cls, *values):
        """A record whose fields are these values, in order, set without
        ``__init__``: for builders whose output holds by construction."""
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            _set(self, name, value)
        return self

    def __init_subclass__(cls, frozen: bool = False) -> None:
        if frozen:
            cls.__hash__ = _Record._hash
            cls.__setattr__ = cls.__delattr__ = _Record._refuse

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def _hash(self) -> int:
        return hash(self._values())

    def _refuse(self, name: str, *value) -> None:
        raise AttributeError(f"{self.__class__.__name__} is frozen: cannot set or delete {name!r}")


_set = object.__setattr__


class GramLattice(_Record, frozen=True):
    """A finite-rank integer symmetric bilinear form given by its Gram matrix.

    ``summands`` optionally records the ordered standard-block decomposition
    ("<2>", "U", "E8", ...) when the lattice was assembled from named pieces;
    bounded vector searches exploit it, everything else ignores it.
    The constructor, so ``from_rows`` and ``from_json`` too, checks the rank,
    the shape and the symmetry; tuple rows must already hold exact ints, other
    rows are frozen as by ``from_rows``, the checked path.  Builders whose Gram
    is symmetric by construction from a checked one ``_bind`` it, checking
    nothing: ``from_summands``, ``direct_sum_all``, ``rescale``, ``twist``,
    ``_complement`` and ``synthesize_k4_plus``.
    """

    __slots__ = ("rank", "gram", "label", "summands")

    def __init__(
        self, rank: int, gram: Gram, label: str = "", summands: Optional[Tuple[str, ...]] = None
    ) -> None:
        if rank < 0:
            raise LatticeError("rank must be non-negative")
        if len(gram) != rank or set(map(len, gram)) - {rank}:
            raise LatticeError("gram matrix shape does not match rank")
        if tuple(zip(*gram)) != gram:  # the transpose is built in C; walk only on a miss
            gram = _freeze(gram)  # every non-tuple row misses
            for i in range(rank):
                for j in range(i + 1, rank):
                    if gram[i][j] != gram[j][i]:
                        raise LatticeError(f"gram matrix is not symmetric at ({i},{j})")
        _set(self, "rank", rank)
        _set(self, "gram", gram)
        _set(self, "label", label)
        _set(self, "summands", summands)

    @classmethod
    def empty(cls) -> "GramLattice":
        return cls(0, (), "0", ())

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Iterable[int]],
        label: str = "",
        summands: Optional[Tuple[str, ...]] = None,
    ) -> "GramLattice":
        gram = _freeze(rows)
        return cls(len(gram), gram, label, summands)

    def vector(self, coords: Iterable[int]) -> "LatticeVector":
        return LatticeVector(_ints(coords), self)

    def basis_vector(self, i: int) -> "LatticeVector":
        coords = [0] * self.rank
        coords[i] = 1
        return self.vector(coords)

    def to_json(self) -> str:
        import json  # only a process that serializes pays for the import

        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "rank": self.rank,
            "gram": [[_json_int(x) for x in row] for row in self.gram],
        }

    @classmethod
    def from_json(cls, text: str) -> "GramLattice":
        """Inverse of ``to_json``; malformed input raises ``LatticeError``."""
        obj = _json_object(text, LatticeError)
        label = obj.get("label", "")
        if not isinstance(label, str):
            raise LatticeError("serialized label is not a string")
        lat = cls.from_rows(_json_ints(obj.get("gram"), 2, LatticeError), label)
        if lat.rank != _json_ints(obj.get("rank"), 0, LatticeError):
            raise LatticeError("serialized rank disagrees with gram size")
        return lat


_SAFE_INT = 2**53


def _json_int(x: int):
    # Exact integers ride as decimal strings once they leave the 53-bit range.
    return x if abs(x) < _SAFE_INT else str(x)


def _json_object(text: str, error: type) -> dict:
    import json

    try:
        obj = json.loads(text)
    except (ValueError, RecursionError):
        raise error("payload is not valid JSON") from None
    if not isinstance(obj, dict):
        raise error("payload is not a JSON object")
    return obj


def _json_ints(value, depth: int, error: type):
    """An exact integer (depth 0) or nested lists of them; anything else,
    booleans and floats included, raises ``error``."""
    if depth:
        if not isinstance(value, list):
            raise error(f"expected a JSON list, got {type(value).__name__}")
        return tuple(_json_ints(x, depth - 1, error) for x in value)
    if type(value) is int:
        return value
    # a decimal string as _json_int writes it, short enough for int() to parse
    if isinstance(value, str) and re.fullmatch(r"-?(0|[1-9][0-9]{0,3999})", value):
        return int(value)
    raise error(f"expected an exact integer, got {type(value).__name__}")


class LatticeVector(_Record, frozen=True):
    """An integer coordinate vector in a fixed ambient GramLattice basis."""

    __slots__ = ("coords", "ambient")

    def __init__(self, coords: Tuple[int, ...], ambient: GramLattice) -> None:
        if len(coords) != ambient.rank:
            raise LatticeError("vector length does not match ambient rank")
        _set(self, "coords", coords)
        _set(self, "ambient", ambient)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __neg__(self) -> "LatticeVector":
        return LatticeVector(tuple(-c for c in self.coords), self.ambient)

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        _check_same_ambient(self, other)
        return LatticeVector(
            tuple(a + b for a, b in zip(self.coords, other.coords)), self.ambient
        )

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        _check_same_ambient(self, other)
        return LatticeVector(
            tuple(a - b for a, b in zip(self.coords, other.coords)), self.ambient
        )

    def scale(self, k: int) -> "LatticeVector":
        return LatticeVector(tuple(k * c for c in self.coords), self.ambient)


def _check_same_ambient(x: LatticeVector, y: LatticeVector) -> None:
    if x.ambient.gram != y.ambient.gram:
        raise LatticeError("vectors live in different ambient lattices")


# ---------------------------------------------------------------------------
# standard lattices
# ---------------------------------------------------------------------------

def _tree_cartan(rank: int, edges: Sequence[Tuple[int, int]]) -> Gram:
    # Negated Cartan matrix of a simply-laced Dynkin tree: roots of square -2.
    m = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        m[i][i] = -2
    for i, j in edges:
        m[i][j] = 1
        m[j][i] = 1
    return _freeze(m)


# Fixed root bases, committed as constants.  D4/E7/E8 use the star-shaped
# tree with node 0 at the branch point and arms listed in increasing length.
_D4_EDGES = ((0, 1), (0, 2), (0, 3))
_E7_EDGES = ((0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6))
_E8_EDGES = ((0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 7))

STANDARD_GRAMS: dict[str, Gram] = {
    "<1>": ((1,),),
    "<2>": ((2,),),
    "<-2>": ((-2,),),
    "U": ((0, 1), (1, 0)),
    "U(2)": ((0, 2), (2, 0)),
    "D4": _tree_cartan(4, _D4_EDGES),
    "E7": _tree_cartan(7, _E7_EDGES),
    "E8": _tree_cartan(8, _E8_EDGES),
    "E8(2)": tuple(tuple(2 * x for x in row) for row in _tree_cartan(8, _E8_EDGES)),
}


def make_standard(name: str) -> GramLattice:
    """Build one of the named standard lattices on its fixed documented basis."""
    return from_summands((name,))


def _diagonal(blocks: Sequence[Sequence[Tuple[int, ...]]], widths: Sequence[int]) -> Gram:
    """The block-diagonal matrix of these blocks and widths, each row built once."""
    n, off, rows = sum(widths), 0, []
    for block, w in zip(blocks, widths):
        left, right = (0,) * off, (0,) * (n - off - w)
        rows += [left + row + right for row in block]
        off += w
    return tuple(rows)


def direct_sum(a: GramLattice, b: GramLattice) -> GramLattice:
    """Block-diagonal sum; ranks add, labels concatenate."""
    return direct_sum_all((a, b))


def direct_sum_all(parts: Sequence[GramLattice]) -> GramLattice:
    """Block-diagonal sum of the parts in one pass; the empty sum is labelled "0"."""
    parts = tuple(parts)
    named = all(p.summands is not None for p in parts)
    summands = tuple(name for p in parts for name in p.summands) if named else None
    label = "+".join(p.label for p in parts if p.label) if parts else "0"
    gram = _diagonal([p.gram for p in parts], [p.rank for p in parts])
    return GramLattice._bind(len(gram), gram, label, summands)


def from_summands(names: Sequence[str], label: str = "") -> GramLattice:
    """Direct sum of named standard lattices, remembering the block structure."""
    names = tuple(names)
    try:
        grams = [STANDARD_GRAMS[name] for name in names]
    except KeyError as exc:
        raise LatticeError(f"unknown standard lattice {exc.args[0]!r}") from None
    gram = _diagonal(grams, [len(g) for g in grams])
    return GramLattice._bind(len(gram), gram, label or "+".join(names) or "0", names)


def rescale(l: GramLattice, k: int) -> GramLattice:
    """Multiply the form by a nonzero integer k; rescale(l, -1) is -L."""
    if k == 0:
        raise LatticeError("rescaling factor must be nonzero")
    gram = tuple([tuple([k * x for x in row]) for row in l.gram])
    label = f"{l.label}({k})" if l.label else ""
    return GramLattice._bind(l.rank, gram, label, None)


# ---------------------------------------------------------------------------
# bilinear form, signature, parity
# ---------------------------------------------------------------------------

def gram_apply(l: GramLattice, coords: Sequence[int]) -> Tuple[int, ...]:
    """The dual coordinates G·x of a vector, summed over the support of x: G is
    symmetric, so G·x is the sum of x_i times row i over the nonzero x_i.  A
    row enters as itself at x_i = 1 and negated or scaled lazily otherwise, so
    no scaled copy of a row is built."""
    rows = [
        row if c == 1 else map(neg, row) if c == -1 else map(mul, repeat(c), row)
        for c, row in zip(coords, l.gram) if c
    ]
    return tuple(map(sum, zip(*rows))) if rows else (0,) * l.rank


def inner(x: LatticeVector, y: LatticeVector) -> int:
    """Exact inner product x^T·gram·y, summed over the support of x."""
    _check_same_ambient(x, y)
    yc = y.coords
    return sum([c * sum(map(mul, row, yc)) for c, row in zip(x.coords, x.ambient.gram) if c])


def norm(x: LatticeVector) -> int:
    return inner(x, x)


def inertia(l: GramLattice) -> Tuple[int, int, int]:
    """Exact inertia (positive, negative, zero) by symmetric Bareiss elimination.

    Each step replaces the trailing block by (p·a_ij − a_0i·a_0j) // p_prev,
    a division that is exact (Bareiss 1968): every entry is a bordered minor
    of a unimodular congruent of the input, so p is a leading principal minor
    and the step's LDLᵀ pivot has sign sign(p)·sign(p_prev).  A zero leading
    pivot is made nonzero by one congruence, row/col 0 += ±row/col k, which
    keeps that; an all-zero row 0 is a radical index and counts as zero.
    """
    return _elimination(l.gram)[:3]


@lru_cache(maxsize=MEMO_SIZE)
def _elimination(gram: Gram) -> Tuple[int, int, int, int]:
    """(positive, negative, zero, det): the last pivot is the leading minor of
    full size of a unimodular congruent, so it is det G when no index is radical.

    Only the upper triangle is stored: row i of the block holds a_ii .. a_i,m−1,
    so row 0 is both the pivot row and the pivot column.  A block-diagonal
    Gram adds its blocks' counts and multiplies their dets, through this memo.
    """
    blocks = _split(gram)
    if len(blocks) > 1:
        pos, neg, zero, dets = zip(*map(_elimination, blocks))
        return sum(pos), sum(neg), sum(zero), prod(dets)
    a = [list(row[i:]) for i, row in enumerate(gram)]  # the block still to eliminate
    pos = neg = zero = 0
    prev = 1  # the last pivot, a leading principal minor
    while a:
        top = a[0]
        if not top[0]:
            k = next((k for k in range(1, len(a)) if a[k][0]), None)
            if k is None:
                k = next((k for k, x in enumerate(top) if x), None)
                if k is None:  # row and column 0 vanish: a radical index
                    zero += 1
                    del a[0]
                    continue
            # row/col 0 += s·row/col k makes a_00 = 2s·a_0k + a_kk, nonzero for
            # this s; only row 0 changes, and it gains the full row k
            s = 1 if 2 * top[k] + a[k][0] else -1
            row_k = [a[j][k - j] for j in range(k)] + a[k]
            top = a[0] = [x + s * y for x, y in zip(top, row_k)]
            top[0] += s * top[k]
        p = top[0]
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        # a row with a zero in the pivot column is only rescaled by p / prev
        a = [
            [(p * x - c * y) // prev for x, y in zip(r, top[i:])] if (c := top[i])
            else [p * x // prev for x in r]
            for i, r in enumerate(a[1:], 1)
        ]
        prev = p
    return pos, neg, zero, 0 if zero else prev


@lru_cache(maxsize=MEMO_SIZE)
def _split(gram: Gram) -> Tuple[Gram, ...]:
    """The finest split of a symmetric Gram into contiguous diagonal blocks, in
    order, memoized so that ``_elimination`` and ``_two_elementary`` split each
    Gram once between them.  A row only moves the end of its block past its
    last nonzero entry, and once the end is n every later row is in the last
    block, so a dense Gram costs O(n) steps, and its only block is the Gram
    itself."""
    n = len(gram)
    cuts, end = [], 0
    for i, row in enumerate(gram):
        if i == end:  # the block before row i has closed
            cuts.append(i)
            end = i + 1
        while end < n and any(row[end:]):
            end += 1
        if end == n:
            break
    if len(cuts) == 1:
        return (gram,)
    return tuple([tuple([r[s:e] for r in gram[s:e]]) for s, e in zip(cuts, cuts[1:] + [n])])


def signature(l: GramLattice) -> Tuple[int, int]:
    """Exact inertia indices (sigma_+, sigma_-); errors on degenerate input."""
    pos, neg, zero = inertia(l)
    if zero:
        raise LatticeError("gram matrix is degenerate")
    return pos, neg


def is_even(l: GramLattice) -> bool:
    """True iff every square is even, i.e. every diagonal Gram entry is."""
    return all(l.gram[i][i] % 2 == 0 for i in range(l.rank))


# ---------------------------------------------------------------------------
# reflections and twists
# ---------------------------------------------------------------------------

def reflect(v: LatticeVector, x: LatticeVector) -> LatticeVector:
    """Reflection s_v(x) in a (+2)- or (-2)-vector v."""
    _check_same_ambient(v, x)
    nv = norm(v)
    if nv not in (2, -2):
        raise LatticeError(f"reflection vector must have square +-2, got {nv}")
    b = inner(x, v)
    if nv == 2:
        return x - v.scale(b)
    return x + v.scale(b)


def twist(l: GramLattice, v: LatticeVector) -> GramLattice:
    """The v-twist: the unique form with q'(v) = -q(v), q' = q on v-perp.

    On the fixed basis the new Gram matrix is G -+ (Gv)(Gv)^T, which equals
    gram·S_v and is symmetric on the nose; a row with (Gv)_i = 0 is kept.
    """
    if v.ambient.gram != l.gram:
        raise LatticeError("twist vector does not live in the given lattice")
    gv = gram_apply(l, v.coords)
    nv = sum(map(mul, gv, v.coords))
    if nv not in (2, -2):
        raise LatticeError(f"twist vector must have square +-2, got {nv}")
    s = 1 if nv == -2 else -1
    gram = tuple(
        tuple([x + a * y for x, y in zip(row, gv)]) if (a := s * g) else row
        for row, g in zip(l.gram, gv)
    )
    label = f"t({l.label})" if l.label else ""
    return GramLattice._bind(l.rank, gram, label, None)


# ---------------------------------------------------------------------------
# characteristic vectors and orthogonal complements
# ---------------------------------------------------------------------------

def _parities(rows: Sequence[Sequence[int]]) -> List[int]:
    """Integer rows packed into ints, bit c set iff entry c is odd: powers of
    two selected by the entries' parities, with no Python loop over entries."""
    bits = [1 << c for c in range(len(rows[0]))] if rows else []
    return [sum(compress(bits, map(and_, row, _ONES))) for row in rows]


def gf2_solve(
    a: Sequence[Sequence[int]], b: Sequence[int]
) -> Tuple[Optional[List[int]], List[List[int]]]:
    """Solve a·x = b over GF(2) by Gauss–Jordan elimination; entries are read mod 2.

    Returns a particular solution with every free variable 0, or None when the
    system is inconsistent, and a kernel basis of a: one vector per free
    column, in increasing column order, with its 1 at that free column and 0
    at every other.  Rows are packed by ``_parities``, bit n for the right-hand
    side, and each pivot XORs, in place, only the rows that carry its bit.
    """
    n = len(a[0]) if a else 0
    rows = [x | (y & 1) << n for x, y in zip(_parities(a), b)]
    pivots: List[int] = []
    for c in range(n):
        bit, r = 1 << c, len(pivots)
        for s in range(r, len(rows)):
            if rows[s] & bit:
                break
        else:
            continue
        p = rows[s]
        rows[s], rows[r] = rows[r], p
        for i, x in enumerate(rows):
            if x & bit and i != r:
                rows[i] = x ^ p
        pivots.append(c)
    solution: Optional[List[int]] = None
    if not any(x >> n for x in rows[len(pivots):]):
        solution = [0] * n
        for x, c in zip(rows, pivots):
            solution[c] = x >> n
    kernel = []
    for f in (c for c in range(n) if c not in pivots):
        vec = [0] * n
        vec[f] = 1
        for x, c in zip(rows, pivots):
            vec[c] = x >> f & 1
        kernel.append(vec)
    return solution, kernel


def find_characteristic(l: GramLattice) -> LatticeVector:
    """Some w with <w,x> = x^2 mod 2 for all x, via a GF(2) solve of G·w = diag G."""
    w, _ = gf2_solve(l.gram, [row[i] for i, row in enumerate(l.gram)])
    if w is None:
        raise LatticeError("no integral characteristic vector")
    return l.vector(w)


def _complement(l: GramLattice, v: LatticeVector) -> Tuple[GramLattice, List[List[int]]]:
    """v-perp on an integral basis, with V^-1 for the unimodular V of the sweep:
    a vector x of v-perp has coordinates (V^-1·x)[1:] in that basis.

    Column operations sweep the gcd of c = G·v into position 0, so c·V =
    (g, 0, ..., 0) and columns 1.. of V span v-perp.  V itself is never kept:
    each operation acts on the Gram as the congruence H <- E^T·H·E, one row and
    one column of H, so H ends as V^T·G·V and v-perp's Gram is its trailing
    block.  V^-1 takes the inverse row operations.
    """
    if v.ambient.gram != l.gram:
        raise LatticeError("vector does not live in the given lattice")
    if v.is_zero():
        raise LatticeError("orthogonal complement of the zero vector")
    row = list(gram_apply(l, v.coords))
    if not any(row):
        raise LatticeError("vector pairs trivially with the whole lattice")
    n = l.rank
    h = [list(r) for r in l.gram]
    vinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]  # rows of V^-1
    nz = [j for j in range(n) if row[j]]
    while len(nz) > 1:
        # reduce every other entry by the smallest nonzero one
        jmin = min(nz, key=lambda j: abs(row[j]))
        for j in nz:
            if j == jmin or not (q := row[j] // row[jmin]):
                continue
            row[j] -= q * row[jmin]
            # column j of V -= q·column jmin: row j of H, then column j by symmetry
            hj = h[j] = [a - q * b for a, b in zip(h[j], h[jmin])]
            hj[j] -= q * hj[jmin]
            for r, x in zip(h, hj):
                r[j] = x
            vinv[jmin] = [a + q * b for a, b in zip(vinv[jmin], vinv[j])]
        nz = [j for j in nz if row[j]]
    if (j := nz[0]) != 0:  # swap columns 0 and j: rows and columns of H, rows of V^-1
        h[0], h[j], vinv[0], vinv[j] = h[j], h[0], vinv[j], vinv[0]
        for r in h:
            r[0], r[j] = r[j], r[0]
    label = f"perp({l.label})" if l.label else ""
    return GramLattice._bind(n - 1, tuple([tuple(r[1:]) for r in h[1:]]), label, None), vinv


def orthogonal_sublattice(l: GramLattice, v: LatticeVector) -> GramLattice:
    """Gram matrix of {x in L : <x,v> = 0} on an integral basis."""
    return _complement(l, v)[0]


# ---------------------------------------------------------------------------
# 2-elementary discriminant groups
# ---------------------------------------------------------------------------

class DiscriminantGroup(_Record, frozen=True):
    """L*/L presented by elementary divisors and integer generator lifts.

    The i-th generator is g_i = lifts[i] / divisors[i], stored as its integer
    numerator vector; duals[i] = G·g_i is integral because g_i lies in L*.
    So <x, g_i> = x·duals[i] for x in L, and b(g_i, g_j) = lifts[i]·duals[j]
    / divisors[i]: every pairing is a dot product of integer vectors.
    """

    __slots__ = ("divisors", "lifts", "duals")

    @property
    def order(self) -> int:
        return prod(self.divisors)

    @property
    def is_two_periodic(self) -> bool:
        return all(d == 2 for d in self.divisors)

    @property
    def rank(self) -> int:
        return len(self.divisors)

    @property
    def _delta(self) -> int:
        """Nikulin's δ of a 2-periodic group: 0 iff b(x, x) = 0 for every x; the
        parity of the discriminant form, whatever w an odd one is built with.
        b(x, x) mod Z is additive, so the generators decide it: 2·b(g_i, g_i) is
        lifts[i]·duals[i] mod 2, which a lift's odd entries alone decide; one
        C-level product per generator is cheaper than selecting them."""
        return int(any(sum(map(mul, n, dual)) & 1 for n, dual in zip(self.lifts, self.duals)))


@lru_cache(maxsize=MEMO_SIZE)
def _two_elementary(gram: Gram) -> Optional[DiscriminantGroup]:
    """L*/L from one GF(2) elimination when it is 2-elementary, else None.

    The x/2 for x in a kernel basis of G mod 2 lie in L*, and they present
    the 2-torsion of L*/L, of order 2^dim ker.  That is all of L*/L exactly
    when |det G| = 2^dim ker (Nikulin 1979, §1.3).  The lifts are the
    ``gf2_solve`` kernel basis, 0/1 vectors, so the duals G·x/2 are sums of
    the Gram rows the lifts select (G is symmetric).  A block-diagonal Gram
    embeds its blocks' groups at their offsets, which is the whole Gram's
    group: the GF(2) reduced row echelon form is unique, and a block-diagonal
    matrix's is its blocks'.
    """
    det = _elimination(gram)[3]
    if det == 0:  # decided over all blocks before any block may return None
        raise LatticeError("gram matrix is degenerate")
    blocks = _split(gram)
    if len(blocks) > 1:
        discs = [_two_elementary(block) for block in blocks]
        if any(disc is None for disc in discs):
            return None
        widths = list(map(len, blocks))
        lifts = _diagonal([disc.lifts for disc in discs], widths)
        duals = _diagonal([disc.duals for disc in discs], widths)
        return DiscriminantGroup((2,) * len(lifts), lifts, duals)
    _, kernel = gf2_solve(gram, [0] * len(gram))
    if abs(det) != 1 << len(kernel):
        return None
    duals = tuple([tuple(map(rshift, map(sum, zip(*compress(gram, x))), _ONES)) for x in kernel])
    return DiscriminantGroup((2,) * len(kernel), tuple(map(tuple, kernel)), duals)


def bilinear_table(disc: DiscriminantGroup) -> Gram:
    """2·b(g_i, g_j) mod 2 on a 2-periodic group: lifts[i]·duals[j] mod 2, the
    popcount parity of the two rows' odd entries packed by ``_parities``.  An
    even entry adds an even product, so this holds for any integer lifts, the
    Smith route's included, not only the 0/1 ones of ``_two_elementary``."""
    duals = _parities(disc.duals)
    return tuple(tuple([(x & y).bit_count() & 1 for y in duals]) for x in _parities(disc.lifts))


# (signature, rank a of L*/L, parity δ) of a 2-elementary lattice
Invariants = Tuple[Tuple[int, int], int, int]


def _invariants(l: GramLattice) -> Optional[Invariants]:
    """The invariants of L read off its whole Gram, or None if L*/L is not
    2-elementary; a degenerate Gram raises ``LatticeError``."""
    disc = _two_elementary(l.gram)
    return None if disc is None else (signature(l), disc.rank, disc._delta)


@lru_cache(maxsize=MEMO_SIZE)
def _block_invariants(names: Tuple[str, ...]) -> Optional[Invariants]:
    """The invariants of a sum of standard blocks, or None if a block is not
    2-elementary, folded over the names from each block's ``_elimination`` and
    ``_two_elementary`` memo entries.  Over an orthogonal sum the signatures
    and the ranks a add, and delta is the largest of the blocks' (Nikulin
    1979, §1), so no whole Gram is split or eliminated."""
    if not names:
        return (0, 0), 0, 0
    rest = _block_invariants(names[1:])
    gram = STANDARD_GRAMS[names[0]]
    disc = _two_elementary(gram)
    if rest is None or disc is None:
        return None
    (pos, neg), a, delta = rest
    p, n, _, _ = _elimination(gram)
    return (pos + p, neg + n), a + disc.rank, max(delta, disc._delta)


def lattices_equivalent(a: GramLattice, b: GramLattice) -> str:
    """Isomorphism oracle for even lattices with 2-periodic discriminants.

    Returns "yes"/"no" when both inputs are even, non-degenerate, 2-periodic
    and either indefinite or definite of rank <= 2; otherwise "undecidable".
    Such a lattice is fixed by its signature, a = rank of L*/L and δ (Nikulin
    1979, §3.6): its discriminant form is fixed by (a, δ, Brown), and on an
    even lattice Brown ≡ σ₊ − σ₋ (mod 8) by Milgram's formula.
    """
    keys = []
    for l in (a, b):
        if not is_even(l):
            return "undecidable"
        try:
            key = _invariants(l)
        except LatticeError:
            return "undecidable"
        if key is None or min(key[0]) == 0 and l.rank > 2:
            return "undecidable"
        keys.append(key)
    return "yes" if keys[0] == keys[1] else "no"

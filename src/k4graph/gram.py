"""The Gram data model: exact integer lattices and their vectors, the record
type, the standard blocks and the direct sums built from them.

A ``GramLattice`` is a frozen ``_Record`` over its Gram matrix, a tuple of
tuples of exact ints, with the names of the standard blocks it was assembled
from; ``_diagonal`` assembles every direct sum in one pass.  This module runs
no kernel: the catalog, the graph builders and the CLI read it alone, so
``catalog``, ``build`` and ``export`` never execute ``lattice``, which holds
the exact kernels.
"""
from __future__ import annotations

import re
from operator import index
from typing import Iterable, Optional, Sequence, Tuple

Gram = Tuple[Tuple[int, ...], ...]
# (signature, rank a of L*/L, parity δ) of a 2-elementary lattice
Invariants = Tuple[Tuple[int, int], int, int]

# Entries per memo (the Gram-keyed ones, the per-form Brown invariant and
# the block tables): one verify run eliminates 489 distinct Grams, diagonal
# blocks included, one entry each for the inertia and the det, and reads 476
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
    nothing: ``from_summands``, ``direct_sum_all``, ``rescale``,
    ``lattice.twist``, ``lattice._complement`` and ``synthesize_k4_plus``.
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
        # the bound is checked once per distinct entry, so most Grams ride as is
        entries = set().union(*self.gram)
        if entries and not (-_SAFE_INT < min(entries) and max(entries) < _SAFE_INT):
            gram = [[_json_int(x) for x in row] for row in self.gram]
        else:
            gram = list(map(list, self.gram))
        return {"label": self.label, "rank": self.rank, "gram": gram}

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


def is_even(l: GramLattice) -> bool:
    """True iff every square is even, i.e. every diagonal Gram entry is."""
    return all(l.gram[i][i] % 2 == 0 for i in range(l.rank))

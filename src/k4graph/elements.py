"""Odd / Wu / even-non-Wu classification of eigenlattice elements, explicit
witnesses, and the bounded search.

Whether L-(c) has an element of a given square and class is decided by the
class-existence rule of ``catalog`` (``ElementClass``, ``SQUARES``,
``exists_class``), where callers read it; each positive answer is backed by
the explicit witness of ``construct_witness``, re-checked with
``classify_element``.  Of the commands, ``classify`` and ``verify`` execute
this module; ``build`` and ``export`` read the rule alone.  Classification is
one rule, ``_class_of``, read by ``classify_element`` and by the search's
block tables alike: x is odd iff G·x is odd somewhere, and an even x is Wu
iff x/2 is the characteristic element of the discriminant bilinear form,
which holds iff x matches one parity pattern per Gram (``_wu_parities``,
memoized).  The bounded search walks the standard-block decomposition of a
catalog eigenlattice and prunes on achievable norm intervals and on the
residues mod 16 that ``SQUARES`` lets the remaining blocks add, so a "none"
answer on the catalog lattices is cheap even at rank 12.

Searches share their per-block work: ``_block_table`` keeps up to ``MEMO_SIZE``
tables keyed by (block name, bound, lo, hi, parities).  A table extends its
``_block_vectors`` walk only as far as read, under the reader's remaining
budget, and records the walk's ticks at each entry and at the end; readers are
charged the differences, so ``visited`` and budget errors match an unshared walk.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache
from itertools import chain, compress, islice, product
from operator import and_
from typing import Iterator, List, Optional, Sequence, Tuple

from .lattice import (
    MEMO_SIZE,
    Gram,
    GramLattice,
    LatticeError,
    LatticeVector,
    STANDARD_GRAMS,
    _ONES,
    _Record,
    _two_elementary,
    bilinear_table,
    gf2_solve,
    make_standard,
    norm,
    signature,
)
from .catalog import ElementClass, K3Vertex, _INDEX, _check_class, _join, _reach, exists_class


class SearchBudgetError(RuntimeError):
    """The bounded enumeration outgrew its budget; reduce rank or bound."""


class WitnessError(RuntimeError):
    """A predicate promised a witness the constructions could not deliver."""


DEFAULT_BUDGET = 10**8
BUDGET_ENV = "K4GRAPH_SEARCH_BUDGET"
# searches on lattices of larger rank walk the leading summands only
RESTRICT_RANK = 12


def search_budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise SearchBudgetError(f"{BUDGET_ENV} must be an integer, got {raw!r}") from None
    if value <= 0:
        raise SearchBudgetError(f"{BUDGET_ENV} must be positive")
    return value


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@lru_cache(maxsize=MEMO_SIZE)
def _wu_parities(gram: Gram) -> Tuple[int, ...]:
    """The pattern p such that an x with G·x even is Wu iff x = p mod 2.

    Such an x has x/2 in L*, and x is Wu iff x/2 is the characteristic element
    c of the discriminant bilinear form b: b(c, g) = b(g, g) for every g.  b is
    non-degenerate, so c is unique mod L; with c = sum c_i g_i and g_i =
    lifts[i]/2, x/2 = c mod L iff x = sum c_i lifts[i] mod 2.
    """
    disc = _two_elementary(gram)
    if disc is None:
        raise LatticeError("classification needs a 2-periodic discriminant")
    pair = bilinear_table(disc)
    coeffs, _ = gf2_solve(pair, [row[j] for j, row in enumerate(pair)])
    # sum c_i lifts[i] mod 2; the zero row gives every coordinate a column
    return tuple([sum(col) & 1 for col in zip((0,) * len(gram), *compress(disc.lifts, coeffs))])


def _class_of(gram: Gram, coords: Tuple[int, ...]) -> ElementClass:
    """The class of a nonzero x: odd iff G·x is odd somewhere, which the Gram
    rows at x's odd entries decide; else Wu iff x = ``_wu_parities`` mod 2."""
    odd = tuple(map(and_, coords, _ONES))
    if any(map(and_, map(sum, zip(*compress(gram, odd))), _ONES)):
        return ElementClass.ODD
    return ElementClass.WU if odd == _wu_parities(gram) else ElementClass.EVEN_NON_WU


def classify_element(lminus: GramLattice, x: LatticeVector) -> ElementClass:
    """Classify a nonzero element of an eigenlattice as odd, Wu, or even-non-Wu."""
    if x.ambient.gram != lminus.gram:
        raise LatticeError("element does not live in the given lattice")
    if x.is_zero():
        raise LatticeError("cannot classify the zero vector")
    return _class_of(lminus.gram, x.coords)


# ---------------------------------------------------------------------------
# block infrastructure for the bounded search
# ---------------------------------------------------------------------------

class _BlockData:
    """Per standard block: the Wu parity pattern, norm interval and LDL data."""

    def __init__(self, name: str):
        self.name = name
        lat = make_standard(name)
        self.rank = lat.rank
        self.gram = lat.gram
        self.wu_parities = _wu_parities(lat.gram)
        # crude achievable-norm interval scale: |x^2| <= bound^2 * sum |g_ij|
        self.abs_scale = sum(abs(x) for row in self.gram for x in row)
        sig = signature(lat)
        self.neg_definite = sig[0] == 0
        self.pos_definite = sig[1] == 0
        self.ldl = self._integer_ldl() if self.neg_definite or self.pos_definite else None

    def kind(self, coords: Tuple[int, ...]) -> ElementClass:
        """The block-local class of a block vector, as ``SQUARES`` reads it."""
        return _class_of(self.gram, coords)

    def norm_bounds(self, bound: int) -> Tuple[int, int]:
        m = bound * bound * self.abs_scale
        if self.neg_definite:
            return (-m, 0)
        if self.pos_definite:
            return (0, m)
        return (-m, m)

    def _integer_ldl(self) -> Tuple[List[List[int]], List[int], List[int], int]:
        """Integer (fraction-free) LDL^T of the positively-oriented form P = sign * gram.

        With M_k the k-th leading principal minor of P (M_0 = 1), fraction-free
        (Bareiss) elimination gives integers b[i][k] such that

            x^T P x = sum_k d_k w_k^2,  d_k = M_{k+1} / M_k,
            w_k = x_k + sum_{i>k} (b[i][k] / M_{k+1}) x_i,

        i.e. column k of L has numerators b[i][k] over the denominator M_{k+1}.
        With W_k = M_{k+1} w_k, each term is W_k^2 / (M_k M_{k+1}); scaled by
        the common S = lcm_k(M_k M_{k+1}) it becomes coeff[k] * W_k^2, so
        S * x^T P x is an integer sum and pruning needs no rationals.
        Returns (numerators, denominators, coefficients, scale).
        """
        r = self.rank
        sign = -1 if self.neg_definite else 1
        a = [[sign * self.gram[i][j] for j in range(r)] for i in range(r)]
        num = [[0] * r for _ in range(r)]
        minors = [1]  # M_0, M_1, ...: each pivot is the next leading minor
        for k in range(r):
            piv = a[k][k]
            for i in range(k + 1, r):
                num[i][k] = a[i][k]
                for j in range(k + 1, r):
                    a[i][j] = (piv * a[i][j] - a[i][k] * a[k][j]) // minors[k]
            minors.append(piv)
        terms = [minors[k] * minors[k + 1] for k in range(r)]
        scale = math.lcm(*terms)
        return num, minors[1:], [scale // t for t in terms], scale


@lru_cache(maxsize=None)
def _block_data(name: str) -> _BlockData:
    return _BlockData(name)


def _value_order(bound: int) -> List[int]:
    # deterministic enumeration order: 0, 1, -1, 2, -2, ...
    out = [0]
    for v in range(1, bound + 1):
        out.extend((v, -v))
    return out


# ---------------------------------------------------------------------------
# bounded search
# ---------------------------------------------------------------------------

class _SearchState(_Record):
    __slots__ = ("visited", "budget")
    _defaults = {"visited": 0, "budget": DEFAULT_BUDGET}

    def tick(self, n: int = 1) -> None:
        self.visited += n
        if self.visited > self.budget:
            raise SearchBudgetError(
                "enumeration budget exceeded; reduce the rank or the bound"
            )


def _block_vectors(
    block: _BlockData,
    bound: int,
    lo: int,
    hi: int,
    parities: Optional[Tuple[int, ...]],
    state: _SearchState,
) -> Iterator[Tuple[Tuple[int, ...], int]]:
    """Block vectors with norm in [lo, hi], optionally with fixed coordinate parities.

    Definite blocks are walked tail-first with monotone partial-sum pruning;
    the indefinite blocks (U and U(2), rank 2) are enumerated outright over
    the box, one tick per box point that passes the parity filter.
    """
    r = block.rank
    vals = _value_order(bound)
    if block.neg_definite or block.pos_definite:
        sign = -1 if block.neg_definite else 1
        num, den, coeff, scale = block.ldl
        # the prune "partial > cap" of the rational walk, multiplied by scale
        cap = scale * max(abs(lo), abs(hi))

        def rec(depth: int, acc: List[int], partial: int) -> Iterator[Tuple[Tuple[int, ...], int]]:
            # acc holds x_{r-1}, x_{r-2}, ...; at this depth coordinate k is fixed
            if depth == r:
                n = sign * (partial // scale)
                if lo <= n <= hi:
                    coords = tuple(reversed(acc))
                    yield coords, n
                return
            k = r - 1 - depth
            dk, ck = den[k], coeff[k]
            base = sum(num[i][k] * acc[r - 1 - i] for i in range(k + 1, r) if num[i][k])
            for v in vals:
                if parities is not None and (v - parities[k]) % 2:
                    continue
                state.tick()
                w = dk * v + base
                p2 = partial + ck * w * w
                if p2 > cap:
                    continue
                acc.append(v)
                yield from rec(depth + 1, acc, p2)
                acc.pop()

        yield from rec(0, [], 0)
        return

    axes = [[v for v in vals if parities is None or (v - parities[k]) % 2 == 0] for k in range(r)]
    (g00, g01), (_, g11) = block.gram
    for a, b in product(*axes):
        state.tick()
        n = g00 * a * a + 2 * g01 * a * b + g11 * b * b
        if lo <= n <= hi:
            yield (a, b), n


class _BlockTable:
    """One block window's walk, as entries (coords, norm, block-local class, ticks)."""

    def __init__(self, name: str, bound: int, lo: int, hi: int, parities) -> None:
        self.block = _block_data(name)
        self._window = (bound, lo, hi, parities)
        self._reset()

    def _reset(self) -> None:
        self.entries: List[Tuple[Tuple[int, ...], int, ElementClass, int]] = []
        self.total: Optional[int] = None  # ticks of the whole walk, once it ends
        self._walk_state = _SearchState()
        self._walk = _block_vectors(self.block, *self._window, self._walk_state)

    def _fill(self, i: int, budget: int) -> bool:
        """Walk until entry i exists, at most ``budget`` ticks from the walk's start."""
        if self.total is None and len(self.entries) <= i:
            self._walk_state.budget = budget
            try:
                for coords, n in islice(self._walk, i + 1 - len(self.entries)):
                    kind = self.block.kind(coords)
                    self.entries.append((coords, n, kind, self._walk_state.visited))
                if len(self.entries) <= i:
                    self.total = self._walk_state.visited
            except BaseException:  # the walk is dead: start it again for later readers
                self._reset()
                raise
        return i < len(self.entries)

    def read(self, state: _SearchState) -> Iterator[Tuple[Tuple[int, ...], int, ElementClass, int]]:
        """The walk's entries in order, charging ``state`` the walk's own ticks."""
        i = prev = 0
        while self._fill(i, prev + state.budget - state.visited):
            entry = self.entries[i]
            state.tick(entry[3] - prev)
            prev = entry[3]
            yield entry
            i += 1
        state.tick(self.total - prev)


_block_table = lru_cache(maxsize=MEMO_SIZE)(_BlockTable)


@lru_cache(maxsize=MEMO_SIZE)
def _fits(names: Tuple[str, ...], cls: Optional[ElementClass]) -> Tuple[int, ...]:
    """Per prefix class, the mask of the x^2 mod 16 such that the blocks ``names``
    can add x to the prefix and make a vector of class ``cls`` (any if None)."""
    reach = _reach(names)
    out = [0, 0, 0]
    for kind in ElementClass:
        for c, mask in zip(ElementClass, reach):
            if cls is None or _join(kind, c) is cls:
                out[_INDEX[kind]] |= mask
    return tuple(out)


def _search_blocks(
    names: Tuple[str, ...],
    target: int,
    cls: Optional[ElementClass],
    bound: int,
    state: _SearchState,
) -> Iterator[Tuple[int, ...]]:
    """DFS over the block decomposition; yields full coordinate vectors."""
    blocks = [_block_data(name) for name in names]
    nblocks = len(blocks)
    bounds = [b.norm_bounds(bound) for b in blocks]
    # suffix norm intervals, and the residues each suffix can add
    suf_lo = [0] * (nblocks + 1)
    suf_hi = [0] * (nblocks + 1)
    for i in range(nblocks - 1, -1, -1):
        suf_lo[i] = suf_lo[i + 1] + bounds[i][0]
        suf_hi[i] = suf_hi[i + 1] + bounds[i][1]
    fits = [_fits(names[i:], cls) for i in range(nblocks + 1)]

    def feasible(i: int, rem: int, kind: ElementClass) -> bool:
        return suf_lo[i] <= rem <= suf_hi[i] and bool(fits[i][_INDEX[kind]] >> rem % 16 & 1)

    def rec(i: int, rem: int, kind: ElementClass, prefix: List[Tuple[int, ...]]):
        if i == nblocks:
            if rem == 0 and (cls is None or kind is cls):
                yield tuple(chain.from_iterable(prefix))
            return
        b = blocks[i]
        lo = max(bounds[i][0], rem - suf_hi[i + 1])
        hi = min(bounds[i][1], rem - suf_lo[i + 1])
        if lo > hi:
            return
        parities = b.wu_parities if cls is ElementClass.WU else None
        for coords, n, block_kind, _ in _block_table(b.name, bound, lo, hi, parities).read(state):
            k2 = _join(kind, block_kind)
            if feasible(i + 1, rem - n, k2):
                prefix.append(coords)
                yield from rec(i + 1, rem - n, k2, prefix)
                prefix.pop()

    if feasible(0, target, ElementClass.WU):
        yield from rec(0, target, ElementClass.WU, [])


def _search(
    l: GramLattice, target_square: int, cls: Optional[ElementClass], bound: int
) -> Iterator[LatticeVector]:
    """Nonzero vectors of the given square (and class, unless None), lazily.

    Enumeration is deterministic: blocks left to right, coordinate values in
    the order 0, 1, -1, 2, -2, ...; definite blocks are walked tail-first.
    Lattices of rank above ``RESTRICT_RANK`` are searched on the leading
    standard summands only, the rest pinned to zero; lattices without a
    block decomposition are walked over the whole box.  The bound and the
    budget are checked at the call, before the first vector is asked for.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    return _search_vectors(l, target_square, cls, bound, _SearchState(budget=search_budget()))


def _search_vectors(
    l: GramLattice,
    target_square: int,
    cls: Optional[ElementClass],
    bound: int,
    state: _SearchState,
) -> Iterator[LatticeVector]:
    if l.summands is None:
        if (2 * bound + 1) ** l.rank > state.budget:
            raise SearchBudgetError(
                "enumeration budget exceeded; reduce the rank or the bound"
            )
        # x^2 = sum of k·x_i·x_j over the Gram's nonzero upper triangle, where
        # k is g_ii or 2g_ij: no vector is built and no norm taken but for a hit
        terms = [
            (i, j, g if i == j else 2 * g)
            for i, row in enumerate(l.gram) for j, g in enumerate(row) if j >= i and g
        ]
        for coords in product(_value_order(bound), repeat=l.rank):
            square = sum([k * coords[i] * coords[j] for i, j, k in terms])
            if square != target_square or not any(coords):
                continue
            vec = l.vector(coords)
            if cls is None or classify_element(l, vec) is cls:
                yield vec
        return
    names = l.summands
    used: List[str] = []
    used_rank = 0
    for name in names:
        r = _block_data(name).rank
        if used_rank + r > RESTRICT_RANK:
            break
        used.append(name)
        used_rank += r
    # pinned tail blocks hold the zero vector; the zero block is even, and it
    # is Wu-compatible only where the block characteristic class vanishes
    if cls is ElementClass.WU and any(
        any(_block_data(n).wu_parities) for n in names[len(used):]
    ):
        return
    for coords in _search_blocks(tuple(used), target_square, cls, bound, state):
        if not any(coords):
            continue
        vec = l.vector(list(coords) + [0] * (l.rank - used_rank))
        # the pinned tail can flip Wu-compatibility of the full vector
        if cls in (ElementClass.EVEN_NON_WU, ElementClass.WU):
            if classify_element(l, vec) is not cls:
                continue
        yield vec


def search_witness(
    lminus: GramLattice, target_square: int, cls: ElementClass, bound: int
) -> Optional[LatticeVector]:
    """First vector with the requested square and class, or None within bound.

    The order is that of ``_search``.  A "none" answer is evidence, not proof.
    """
    _check_class(cls)
    return next(_search(lminus, target_square, cls, bound), None)


def enumerate_vectors(
    l: GramLattice, target_square: int, bound: int, limit: int
) -> List[LatticeVector]:
    """Up to ``limit`` vectors of the given square, any class, deterministic order."""
    if limit < 0:
        raise ValueError("limit must be >= 0")
    return list(islice(_search(l, target_square, None, bound), limit))


# ---------------------------------------------------------------------------
# constructive witnesses
# ---------------------------------------------------------------------------

def construct_witness(v: K3Vertex, n: int, cls: ElementClass) -> LatticeVector:
    """An explicit x in L-(c) with x^2 = 8n-2 of the requested class.

    Follows a constructive case analysis on the block decomposition; every
    returned vector is re-checked for its norm and with classify_element, and
    a construction that fails raises ``WitnessError``.
    """
    if not exists_class(v, n, cls):
        raise WitnessError(f"{v.vid}: no {cls.value} element of square {8 * n - 2}")
    if cls is ElementClass.ODD:
        x = _odd_witness(v, n)
    elif cls is ElementClass.EVEN_NON_WU:
        x = _even_witness(v, n)
    else:
        x = _wu_witness(v, n)
    if x is None or norm(x) != 8 * n - 2 or classify_element(v.lminus, x) is not cls:
        raise WitnessError(f"witness construction failed for {v.vid}, n={n}, {cls.value}")
    return x


def _vector(
    v: K3Vertex, pieces: Sequence[Tuple[Optional[str], Tuple[int, ...]]]
) -> LatticeVector:
    """The L-(c) vector with each (name, coords) piece starting at the first
    block called name, or at coordinate 0 where name is None."""
    names = v.lminus_summands
    out = [0] * v.lminus.rank
    for name, coords in pieces:
        off = sum(len(STANDARD_GRAMS[b]) for b in names[: names.index(name)]) if name else 0
        out[off : off + len(coords)] = coords
    return v.lminus.vector(out)


def _odd_witness(v: K3Vertex, n: int) -> Optional[LatticeVector]:
    names = v.lminus_summands
    if "U" in names:
        return _vector(v, [("U", (1, 4 * n - 1))])
    if "<2>" in names and "E8" in names:
        # 2n*e_+ plus (2n-1) times a simple root of E8
        return _vector(v, [("<2>", (2 * n,)), ("E8", (2 * n - 1,) + (0,) * 7)])
    if "U(2)" in names and "D4" in names:
        return _vector(v, [("U(2)", (1, 2 * n)), ("D4", (1, 0, 0, 0))])
    return None


def _even_witness(v: K3Vertex, n: int) -> Optional[LatticeVector]:
    names = v.lminus_summands
    if "<-2>" in names and "<2>" in names:
        # (2n, 2n-1) across the first <2> and the first <-2>
        return _vector(v, [("<2>", (2 * n,)), ("<-2>", (2 * n - 1,))])
    if "<-2>" in names and "U" in names:
        return _vector(v, [("<-2>", (1,)), ("U", (2, 2 * n))])
    return None


def _wu_witness(v: K3Vertex, n: int) -> Optional[LatticeVector]:
    names = v.lminus_summands
    s, t = v.diag_s, v.diag_t
    target = 8 * n - 2
    if v.kS_flag:
        # all-odd coordinate vectors are exactly the Wu candidates here; bump
        # coordinates from 1 to higher odd values: slot i adds or subtracts
        # 8*m*(m+1) when raised to 2m+1
        coords = next(_odd_bumps(s, t, target - 2 * (s - t)), None)
        return None if coords is None else _vector(v, [(None, coords)])
    if (s - t) % 4 != 3:
        return None
    if "U" in names:
        k, rem = divmod(target - 2 * (s - t), 8)
        assert rem == 0
        return _vector(v, [(None, (1,) * (s + t)), ("U", (2, 2 * k))])
    if "E8" in names and s >= 1:
        # (3,1,...,1) on the diagonal plus twice a pair of orthogonal roots
        need = (2 * (s - t) + 16 - target) // 8
        # simple roots 1 and 3 of the fixed E8 basis are orthogonal
        e8 = [0] * 8
        if need >= 1:
            e8[1] = 2
        if need == 2:
            e8[3] = 2
        return _vector(v, [(None, (3,) + (1,) * (s + t - 1)), ("E8", tuple(e8))])
    return None


def _odd_bumps(s: int, t: int, need: int) -> Iterator[Tuple[int, ...]]:
    """All-odd diagonal vectors (values 1/3/5) hitting base + need exactly, in
    lexicographic order.  Raising slot i from 1 to 3 or 5 adds ±16 or ±48 (+
    on the first s slots), and a prefix is extended only where the deltas
    its suffix can reach include what is still needed."""
    signs = (1,) * s + (-1,) * t
    reach = [{0}]  # reach[k]: the deltas the last k slots can add
    for sign in reversed(signs):
        reach.append({r + sign * d for r in reach[-1] for d in (0, 16, 48)})

    def walk(prefix: Tuple[int, ...], rest: int) -> Iterator[Tuple[int, ...]]:
        if len(prefix) == len(signs):
            yield prefix
            return
        sign, left = signs[len(prefix)], reach[len(signs) - len(prefix) - 1]
        for val, d in ((1, 0), (3, 16), (5, 48)):
            if rest - sign * d in left:
                yield from walk(prefix + (val,), rest - sign * d)

    if need in reach[-1]:
        yield from walk((), need)

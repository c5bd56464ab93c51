"""Finite quadratic forms on 2-elementary groups, the Smith normal form, and
the Brown invariant.

All arithmetic is in integers.  A discriminant group keeps each generator
lift as an integer numerator vector over its elementary divisor, together
with the integral dual vector G·g, so every pairing with a lift is an
integer dot product (for 2-periodic groups, Nikulin 1979, §1.3), taken by
selection on a 2-elementary group's 0/1 lifts, and mod 2 on odd entries.
Finite-form values are stored integrally in half-units: a quadratic value
``k`` means q = k/2 in Q/2Z (so k lives mod 4), a bilinear value ``m`` means
b = m/2 in Q/Z (m lives mod 2).  The Brown invariant comes from the GF(2)
normal form of the form, a sum of <±1/2>, u(2) and v(2) (Nikulin 1979, §1.8),
in O(d²) operations on bilinear rows packed into ints.

The 2-elementary kernel lives in ``lattice``: ``DiscriminantGroup``,
``_two_elementary`` (one GF(2) elimination per Gram) and ``bilinear_table``,
on which this module builds its forms, and ``lattices_equivalent``, which
compares (signature, a, δ) and builds no form at all.  The element classes
and the graph checks read only that kernel, and the catalog and the graph
builders no kernel, so of the commands only ``verify`` executes this module.
``_smith`` is the one Smith kernel, run by ``smith_normal_form``.  Every
internal caller reads ``_two_elementary``, and so does ``discriminant_group``
on a 2-elementary Gram: its group and the form share the 0/1 ``gf2_solve``
kernel basis as generators.  Only a divisor other than 2 runs ``_smith``; the
group keeps the divisors and the columns v of V (as the rows of Vᵀ), skips U
and reads each G·v from ``gram_apply``.

``brown_invariant`` is a ``functools.lru_cache`` of ``gram.MEMO_SIZE``
entries keyed by the form; the result is an int, so every caller may share
one, and errors are not cached.  ``discriminant_group`` and
``discriminant_quadratic`` are not memoized themselves, so each is one body
on the lattice with no Gram-keyed twin: both read the memoized 2-elementary
group, the second in a few selections, and no caller in the package asks for
the first.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import compress
from operator import and_
from typing import List, Optional, Sequence, Tuple

from .gram import (
    MEMO_SIZE, Gram, GramLattice, LatticeVector, LatticeError, _freeze, _json_ints,
    _json_object, _Record, _set, is_even,
)
from .lattice import (
    DiscriminantGroup, _ONES, _parities, _two_elementary, bilinear_table, gram_apply,
    lattices_equivalent,  # unused here: perfbench/tracer.py's TRACED names it under this module
)


class FormError(ValueError):
    """Raised for malformed or out-of-scope finite forms."""


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def smith_normal_form(m: Sequence[Sequence[int]]) -> Tuple[Gram, Gram, Gram]:
    """Exact Smith normal form: returns (U, D, V) with U·m·V = D.

    D is diagonal with d_i | d_{i+1} and non-negative entries; U and V are
    unimodular.  A matrix whose rows differ in length raises ``LatticeError``.
    """
    diag, vt, u = _smith(m, True)
    cols = len(vt)
    d = tuple(tuple(diag[i] if i == j else 0 for j in range(cols)) for i in range(len(u)))
    return _freeze(u), d, tuple(zip(*vt))


def _smith(
    m: Sequence[Sequence[int]], keep_u: bool
) -> Tuple[List[int], List[List[int]], Optional[List[List[int]]]]:
    """The Smith kernel: the divisors, the rows of Vᵀ and, if keep_u, U.

    The pivot is the first entry of least magnitude, so the scan stops at the
    first ±1.  The pivot column is cleared by row operations first; a column
    operation then touches only the rows still nonzero in the pivot column
    (just the pivot row once it is clear) and one row of Vᵀ.
    """
    a = list(map(list, _freeze(m)))
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if any(len(row) != cols for row in a):
        raise LatticeError("matrix rows differ in length")
    u = [[int(i == j) for j in range(rows)] for i in range(rows)] if keep_u else None
    vt = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(i, j, q):  # row_i -= q*row_j, mirrored on U
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        if keep_u:
            u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    for s in range(min(rows, cols)):
        while True:
            best, mag = None, 0
            for i in range(s, rows):
                row = a[i]
                for j in range(s, cols):
                    if row[j] and (best is None or abs(row[j]) < mag):
                        best, mag = (i, j), abs(row[j])
                        if mag == 1:
                            break
                if mag == 1:
                    break
            if best is None:
                break
            i, j = best
            if i != s:
                a[s], a[i] = a[i], a[s]
                if keep_u:
                    u[s], u[i] = u[i], u[s]
            if j != s:  # rows above s are zero from column s on
                for r in range(s, rows):
                    a[r][s], a[r][j] = a[r][j], a[r][s]
                vt[s], vt[j] = vt[j], vt[s]
            p = a[s][s]
            for i in range(s + 1, rows):
                if a[i][s]:
                    row_op(i, s, a[i][s] // p)
            live = [r for r in range(s, rows) if a[r][s]]
            done = len(live) == 1
            for j in range(s + 1, cols):
                if a[s][j]:
                    q = a[s][j] // p
                    for r in live:
                        a[r][j] -= q * a[r][s]
                    vt[j] = [x - q * y for x, y in zip(vt[j], vt[s])]
                    done = done and not a[s][j]
            if not done:
                continue
            if mag == 1:  # a unit pivot divides the remaining block
                break
            # enforce divisibility of the remaining block by the pivot
            offender = next(
                (i for i in range(s + 1, rows) if any(x % p for x in a[i][s + 1:])), None
            )
            if offender is None:
                break
            row_op(s, offender, -1)  # add offending row to pivot row, re-reduce
        if a[s][s] < 0:
            a[s] = [-x for x in a[s]]
            if keep_u:
                u[s] = [-x for x in u[s]]
    return [a[i][i] for i in range(min(rows, cols))], vt, u


# ---------------------------------------------------------------------------
# discriminant groups
# ---------------------------------------------------------------------------

def discriminant_group(l: GramLattice) -> DiscriminantGroup:
    """L*/L by elementary divisors and generator lifts.  A 2-elementary Gram
    is answered by the memoized ``_two_elementary`` group, whose lifts are the
    0/1 ``gf2_solve`` kernel basis that ``discriminant_quadratic`` also reads;
    any other runs the Smith kernel, the lifts being the columns of V."""
    disc = _two_elementary(l.gram)  # raises first on a degenerate Gram
    if disc is not None:
        return disc
    divisors, lifts, duals = [], [], []
    diag, vt, _ = _smith(l.gram, False)
    for di, num in zip(diag, vt):
        if di == 1:
            continue
        divisors.append(di)
        lifts.append(tuple(num))
        # U·G·V = D gives G·v_i = d_i·U^-1·e_i, so the division is exact
        duals.append(tuple([y // di for y in gram_apply(l, num)]))
    return DiscriminantGroup(tuple(divisors), tuple(lifts), tuple(duals))


# ---------------------------------------------------------------------------
# finite quadratic forms
# ---------------------------------------------------------------------------

class FiniteQuadraticForm(_Record, frozen=True):
    """A quadratic form q: (Z/2)^d -> Q/2Z with bilinear form b -> Q/Z.

    qvals[i] stores 2·q(g_i) mod 4 and bvals[i][j] stores 2·b(g_i,g_j) mod 2
    for a fixed generating set g_1..g_d.
    """

    __slots__ = ("d", "qvals", "bvals")

    def __init__(self, d: int, qvals: Tuple[int, ...], bvals: Gram) -> None:
        if len(qvals) != d or len(bvals) != d:
            raise FormError("value tables do not match rank d")
        if any(len(row) != d for row in bvals):
            raise FormError("bilinear table is not square")
        for i in range(d):
            if not 0 <= qvals[i] < 4:
                raise FormError("quadratic values must be reduced mod 4")
            for j in range(d):
                if bvals[i][j] not in (0, 1):
                    raise FormError("bilinear values must be reduced mod 2")
                if bvals[i][j] != bvals[j][i]:
                    raise FormError("bilinear table is not symmetric")
            if qvals[i] % 2 != bvals[i][i]:
                raise FormError("q mod Z must agree with b on the diagonal")
        _set(self, "d", d)
        _set(self, "qvals", qvals)
        _set(self, "bvals", bvals)

    def q_of(self, x: Sequence[int]) -> int:
        """2·q(sum x_i g_i) mod 4 via the quadratic extension rule."""
        total = 0
        idx = [i for i in range(self.d) if x[i] % 2]
        for a, i in enumerate(idx):
            total += self.qvals[i]
            for j in idx[a + 1:]:
                total += 2 * self.bvals[i][j]
        return total % 4

    def b_of(self, x: Sequence[int], y: Sequence[int]) -> int:
        """2·b(x, y) mod 2."""
        total = 0
        for i in range(self.d):
            if x[i] % 2 == 0:
                continue
            for j in range(self.d):
                if y[j] % 2:
                    total += self.bvals[i][j]
        return total % 2

    def negate(self) -> "FiniteQuadraticForm":
        return FiniteQuadraticForm(
            self.d,
            tuple((-k) % 4 for k in self.qvals),
            self.bvals,
        )

    def to_json(self) -> str:
        import json  # only a process that serializes pays for the import

        return json.dumps(
            {"d": self.d, "qvals": list(self.qvals), "bvals": [list(r) for r in self.bvals]},
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "FiniteQuadraticForm":
        """Inverse of ``to_json``; malformed input raises ``FormError``."""
        obj = _json_object(text, FormError)
        return cls(
            _json_ints(obj.get("d"), 0, FormError),
            _json_ints(obj.get("qvals"), 1, FormError),
            _json_ints(obj.get("bvals"), 2, FormError),
        )


def discriminant_quadratic(
    l: GramLattice, w: Optional[LatticeVector] = None
) -> FiniteQuadraticForm:
    """The discriminant quadratic form of a lattice with 2-periodic discriminant.

    The generators are x/2 for the ``gf2_solve`` kernel basis x of G mod 2.

    For even l the canonical q(x+L) = x^2 mod 2Z is used and w must be omitted
    or a characteristic vector anyway; for odd l a characteristic w in L is
    required and q(x+L) = x^2 + <w,x> mod 2Z.
    """
    odd = not is_even(l)
    if odd and w is not None and w.ambient.gram != l.gram:
        raise FormError("characteristic vector lives in the wrong lattice")
    disc = _two_elementary(l.gram)
    if disc is None:
        raise FormError("form out of scope: discriminant is not 2-periodic")
    # even: canonical q(x+L) = x^2 mod 2Z, and a supplied w is not used
    wodd: Tuple[int, ...] = ()
    if odd:
        if w is None:
            raise FormError("odd lattice needs a characteristic vector")
        # mod 2, a product with w is the sum at w's odd entries
        wodd = tuple(map(and_, w.coords, _ONES))
        if any((sum(compress(row, wodd)) - row[i]) & 1 for i, row in enumerate(l.gram)):
            raise FormError("supplied vector is not characteristic")
    # with every divisor 2, 2q(g) = 2(g^2 + <w,g>) = n·(G g) + 2 w·(G g)
    # for g = n/2: integral by construction, so no value can be malformed;
    # the lift n is 0/1, so n·(G g) sums the entries it selects
    qvals = tuple(
        (sum(compress(dual, n)) + 2 * sum(compress(dual, wodd))) % 4
        for n, dual in zip(disc.lifts, disc.duals)
    )
    return FiniteQuadraticForm(disc.rank, qvals, bilinear_table(disc))


def parity(f: FiniteQuadraticForm) -> str:
    """'even' iff b(x,x) vanishes identically, i.e. all q values are integral."""
    return "even" if all(k % 2 == 0 for k in f.qvals) else "odd"


@lru_cache(maxsize=MEMO_SIZE)
def brown_invariant(f: FiniteQuadraticForm) -> int:
    """Brown invariant mod 8 by the GF(2) normal form, in O(d²) int operations.

    A 2-elementary form is an orthogonal sum of <±1/2>, u(2) and v(2), whose
    Brown invariants are ±1, 0 and 4 (Nikulin 1979, §1.8; Brown 1972).  Each
    live element is (its generator mask, its bilinear row as a mask, 2q mod 4).
    An x with b(x, x) ≠ 0 splits off as <q(x)>, else x and a partner y with
    b(x, y) = 1/2 split off as a plane, v(2) iff q(x) = q(y) = 1; the rest is
    projected onto the orthogonal complement.  A live x with no partner lies
    in the radical, so the form is degenerate.
    """
    live = [[1 << i, row, k] for i, (row, k) in enumerate(zip(_parities(f.bvals), f.qvals))]
    brown = 0

    def pairs(u, v) -> int:  # 2·b(u, v) mod 2
        return (u[1] & v[0]).bit_count() & 1

    def add(u, v) -> None:  # u += v, with q(u + v) = q(u) + q(v) + 2b(u, v)
        u[2] = (u[2] + v[2] + 2 * pairs(u, v)) & 3
        u[0] ^= v[0]
        u[1] ^= v[1]

    while live:
        x = next((u for u in live if u[2] & 1), None)
        if x is not None:
            live.remove(x)
            brown += 2 - x[2]  # <1/2> adds 1, <3/2> adds -1
            for u in live:
                if pairs(u, x):
                    add(u, x)
            continue
        x = live.pop()
        y = next((u for u in live if pairs(u, x)), None)
        if y is None:
            raise FormError("degenerate form: an element pairs trivially with the group")
        live.remove(y)
        if x[2] == y[2] == 2:
            brown += 4
        for u in live:
            by, bx = pairs(u, y), pairs(u, x)
            if by:
                add(u, x)
            if bx:
                add(u, y)
    return brown % 8


def forms_isomorphic(a: FiniteQuadraticForm, b: FiniteQuadraticForm) -> bool:
    """2-elementary finite quadratic forms are classified by (rank, parity, Brown)."""
    if a.d != b.d or parity(a) != parity(b):
        return False
    return brown_invariant(a) == brown_invariant(b)

"""Test-only references for the kernels of ``k4graph``, in one place.

Each reference states what a package function computes in a second,
independent way: by the plain definition, or as the package code that a
later change replaced, copied from the commit named in its docstring.  A
reference never calls the function it checks.  The references are pure, so
the costly ones are memoized: a Gram or a block list that the tests meet
again, in one test or in another, is worked out once per session.
Hypothesis strategies and the ``_check_*`` assertion helpers stay with
their tests.
"""

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import mul

from k4graph import ElementClass, FiniteQuadraticForm, FormError, LatticeError
from k4graph.catalog import SQUARES, _join
from k4graph.elements import _block_data, _block_vectors, _value_order
from k4graph.gram import _freeze, from_summands
from k4graph.lattice import DiscriminantGroup, gf2_solve
from k4graph.verification import _congruent, _random_unimodular


def dot(x, y):
    return sum(map(mul, x, y))


def apply(gram, x):
    """G·x as one dot product per Gram row (``gram_apply`` at 880c876)."""
    return tuple([dot(row, x) for row in gram])


def block_sum(names, seed=None):
    """The sum of the named standard blocks, in a random congruent basis
    drawn from ``seed`` unless it is None."""
    lat = from_summands(names)
    if seed is None:
        return lat
    return _congruent(lat.gram, _random_unimodular(random.Random(seed), lat.rank))


@lru_cache(maxsize=None)
def inertia(gram):
    """Symmetric elimination scaled by |pivot|, with a gcd pass after each
    step (``lattice.inertia`` at 33f0da0)."""
    n = len(gram)
    a = [list(row) for row in gram]
    pos = neg = 0
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][i] != 0), None)
        if piv is None:
            off = next(
                ((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j] != 0), None
            )
            if off is None:
                return pos, neg, n - k
            i, j = off
            for t in range(k, n):
                a[i][t] += a[j][t]
            for t in range(k, n):
                a[t][i] += a[t][j]
            piv = i
        a[piv], a[k] = a[k], a[piv]
        for row in a:
            row[piv], row[k] = row[k], row[piv]
        p = a[k][k]
        if p > 0:
            pos += 1
        else:
            neg += 1
        ap, sgn = abs(p), (1 if p > 0 else -1)
        sub = [
            [ap * a[i][j] - sgn * a[i][k] * a[k][j] for j in range(k + 1, n)]
            for i in range(k + 1, n)
        ]
        g = 0
        for row in sub:
            g = math.gcd(g, *row)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = sub[i - k - 1][j - k - 1] // max(g, 1)
    return pos, neg, 0


@lru_cache(maxsize=None)
def det(gram):
    """The determinant by Bareiss elimination with row pivoting."""
    a = [list(row) for row in gram]
    n, sign, prev = len(a), 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            a[i] = [(a[k][k] * x - a[i][k] * y) // prev for x, y in zip(a[i], a[k])]
        prev = a[k][k]
    return sign * prev


def smith(m):
    """(U, D, V) with U·m·V = D, pivoting on the first entry of least
    magnitude (``finite_forms.smith_normal_form`` at 33f0da0)."""
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(i, j, q):
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):
        for r in range(rows):
            a[r][i] -= q * a[r][j]
        for r in range(cols):
            v[r][i] -= q * v[r][j]

    for s in range(min(rows, cols)):
        while True:
            best = None
            for i in range(s, rows):
                for j in range(s, cols):
                    if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            i, j = best
            a[s], a[i] = a[i], a[s]
            u[s], u[i] = u[i], u[s]
            for r in range(rows):
                a[r][s], a[r][j] = a[r][j], a[r][s]
            for r in range(cols):
                v[r][s], v[r][j] = v[r][j], v[r][s]
            done = True
            for i in range(s + 1, rows):
                if a[i][s] != 0:
                    row_op(i, s, a[i][s] // a[s][s])
                    done = done and a[i][s] == 0
            for j in range(s + 1, cols):
                if a[s][j] != 0:
                    col_op(j, s, a[s][j] // a[s][s])
                    done = done and a[s][j] == 0
            if not done:
                continue
            offender = next(
                (
                    i
                    for i in range(s + 1, rows)
                    if any(a[i][j] % a[s][s] for j in range(s + 1, cols))
                ),
                None,
            )
            if offender is None:
                break
            row_op(s, offender, -1)
        if a[s][s] < 0:
            a[s] = [-x for x in a[s]]
            u[s] = [-x for x in u[s]]
    return u, a, v


@lru_cache(maxsize=None)
def discriminant_group(gram):
    """L*/L read off the columns of V in ``smith`` (as ``finite_forms`` built
    it at 33f0da0)."""
    _, d, v = smith(gram)
    divisors, lifts, duals = [], [], []
    for i in range(len(gram)):
        if d[i][i] == 0:
            raise LatticeError("gram matrix is degenerate")
        if d[i][i] > 1:
            num = tuple(row[i] for row in v)
            divisors.append(d[i][i])
            lifts.append(num)
            duals.append(tuple(dot(row, num) // d[i][i] for row in gram))
    return DiscriminantGroup(tuple(divisors), tuple(lifts), tuple(duals))


@lru_cache(maxsize=None)
def two_elementary(gram):
    """The GF(2) route on the whole Gram, blocks or not: ``det`` for the
    order, the ``gf2_solve`` kernel basis as lifts, G·x/2 as duals
    (``finite_forms._two_elementary`` at 3b2ff15)."""
    d = det(gram)
    if d == 0:
        raise LatticeError("gram matrix is degenerate")
    _, kernel = gf2_solve(gram, [0] * len(gram))
    if abs(d) != 1 << len(kernel):
        return None
    duals = tuple(tuple(dot(row, x) // 2 for row in gram) for x in kernel)
    return DiscriminantGroup((2,) * len(kernel), _freeze(kernel), duals)


def discriminant_form(gram, wc):
    """``discriminant_quadratic`` by dot products on the whole-Gram group
    (``finite_forms`` at 880c876)."""
    disc = two_elementary(gram)
    if disc is None:
        raise FormError("form out of scope: discriminant is not 2-periodic")
    if any(row[i] % 2 for i, row in enumerate(gram)):
        if wc is None:
            raise FormError("odd lattice needs a characteristic vector")
        if any((dot(row, wc) - row[i]) % 2 for i, row in enumerate(gram)):
            raise FormError("supplied vector is not characteristic")
    twice = [0 if wc is None else 2 * dot(wc, dual) for dual in disc.duals]
    qvals = tuple((dot(n, dual) + t) % 4 for n, dual, t in zip(disc.lifts, disc.duals, twice))
    table = tuple(tuple(dot(n, dual) % 2 for dual in disc.duals) for n in disc.lifts)
    return FiniteQuadraticForm(disc.rank, qvals, table)


def gauss_brown(f):
    """Brown invariant mod 8 by the Gauss sum over all 2^d elements, matched
    against 2^(d/2) times an eighth root of unity; FormError if it is not one
    (``finite_forms.brown_invariant`` at 0741987)."""
    d = f.d
    kvals = [0] * (1 << d)
    rowmask = [sum((f.bvals[j][i] & 1) << i for i in range(d)) for j in range(d)]
    re_part, im_part = 1, 0
    for x in range(1, 1 << d):
        j = (x & -x).bit_length() - 1
        y = x ^ (1 << j)
        k = (kvals[y] + f.qvals[j] + 2 * ((y & rowmask[j]).bit_count() & 1)) & 3
        kvals[x] = k
        if k == 0:
            re_part += 1
        elif k == 1:
            im_part += 1
        elif k == 2:
            re_part -= 1
        else:
            im_part -= 1
    if d % 2 == 0:
        mag = 1 << (d // 2)
        table = {(mag, 0): 0, (0, mag): 2, (-mag, 0): 4, (0, -mag): 6}
    else:
        mag = 1 << ((d - 1) // 2)
        table = {(mag, mag): 1, (-mag, mag): 3, (-mag, -mag): 5, (mag, -mag): 7}
    if (re_part, im_part) not in table:
        raise FormError("Gauss sum is not sqrt(|G|) times an 8th root of unity")
    return table[(re_part, im_part)]


def pairwise_sum(parts):
    """(rank, Gram, summands) by one direct sum per part (``direct_sum_all``
    at 3b2ff15)."""
    rank, gram, summands = 0, (), ()
    for p in parts:
        rows = [tuple(r) + (0,) * p.rank for r in gram]
        rows += [(0,) * rank + tuple(r) for r in p.gram]
        rank, gram = rank + p.rank, _freeze(rows)
        summands = None if None in (summands, p.summands) else summands + p.summands
    return rank, gram, summands


def xor_new(vectors):
    """For each integer vector, whether it is independent over GF(2) of the
    ones before it, by an XOR basis keyed by the leading bit: an elimination
    independent of ``gf2_solve``'s column pivots."""
    basis, out = {}, []
    for v in vectors:
        x = int("".join(str(e % 2) for e in v) or "0", 2)
        while x and x.bit_length() in basis:
            x ^= basis[x.bit_length()]
        if x:
            basis[x.bit_length()] = x
        out.append(bool(x))
    return out


def row_kernel_basis(c):
    """Integral basis of {x : sum c_i x_i = 0} via unimodular column
    reduction (``lattice._row_kernel_basis`` at f8005dd).

    Returns the basis and the inverse of the unimodular V with c·V = (g, 0, ..., 0);
    the basis is columns 1.. of V, so x = V·y has y = V^-1·x with y_0 = 0.
    """
    n = len(c)
    row = list(c)
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]  # columns of V
    vinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]  # rows of V^-1
    # Sweep gcd into position 0 by column operations, mirrored on V and,
    # as the inverse row operations, on V^-1.
    while True:
        nz = [j for j in range(n) if row[j] != 0]
        if not nz:
            return [[v[i][j] for i in range(n)] for j in range(n)], vinv
        if len(nz) == 1:
            j = nz[0]
            if j != 0:
                row[0], row[j] = row[j], row[0]
                for i in range(n):
                    v[i][0], v[i][j] = v[i][j], v[i][0]
                vinv[0], vinv[j] = vinv[j], vinv[0]
            break
        # reduce the entry of largest absolute value by the smallest nonzero
        jmin = min(nz, key=lambda j: abs(row[j]))
        for j in nz:
            if j == jmin:
                continue
            q = row[j] // row[jmin]
            if q:
                row[j] -= q * row[jmin]
                for i in range(n):
                    v[i][j] -= q * v[i][jmin]
                vinv[jmin] = [a + q * b for a, b in zip(vinv[jmin], vinv[j])]
    return [[v[i][j] for i in range(n)] for j in range(1, n)], vinv


def complement(gram, coords):
    """The Gram of v-perp and V^-1, by the basis B of ``row_kernel_basis``
    and B·G·B^T as row dot products (``orthogonal_sublattice`` at f8005dd)."""
    basis, vinv = row_kernel_basis(apply(gram, coords))
    gb = [apply(gram, row) for row in basis]
    return tuple(tuple(dot(ra, gbb) for gbb in gb) for ra in basis), vinv


def classes(gram, xs):
    """The class of each x, or the error message, by the definition on the
    group of ``discriminant_group``: x is odd iff G·x is odd somewhere; else
    x/2 is in L*, and x is Wu iff b(x/2, g) = b(g, g) for every generator
    g = lift/2, that is iff x·G·lift = lift·G·lift = 2 lift·dual mod 4."""
    return _classes(gram, [apply(gram, x) for x in xs])


def _classes(gram, products):
    """``classes`` read off the products G·x."""
    try:
        disc = discriminant_group(gram)
        error = None if disc.is_two_periodic else "classification needs a 2-periodic discriminant"
        wu_values = [(n, 2 * dot(n, d) % 4) for n, d in zip(disc.lifts, disc.duals)]
    except LatticeError as exc:
        error = str(exc)
    for gx in products:
        if any(v % 2 for v in gx):
            yield ElementClass.ODD
        elif error:
            yield error
        else:
            wu = all(dot(gx, n) % 4 == value for n, value in wu_values)
            yield ElementClass.WU if wu else ElementClass.EVEN_NON_WU


@lru_cache(maxsize=None)
def box_walk(gram, bound):
    """{x: (x^2, class of x)} for every nonzero x with |x_i| <= bound, in the
    order of the package's box walk: each coordinate runs 0, 1, -1, 2, -2,
    ..., the last one fastest.  x^2 is x·(G·x) by ``dot`` and ``apply``, and
    the classes are those of ``classes`` on the same G·x, so no package
    search or classification is read."""
    values = [0] + [s * k for k in range(1, bound + 1) for s in (1, -1)]
    xs = [x for x in product(values, repeat=len(gram)) if any(x)]
    products = [apply(gram, x) for x in xs]
    return dict(zip(xs, zip(map(dot, xs, products), _classes(gram, products))))


def diagonal_rule(v, n, cls):
    """The hand-written (s, t) rule that decided existence before the tables
    (``elements`` at 74a33b3)."""
    s, t = v.diag_s, v.diag_t
    if cls is ElementClass.ODD:
        return not (v.kS_flag or v.vid == "[8S]_I")
    if cls is ElementClass.WU:
        if v.kS_flag:
            return (s - t) % 8 == (4 * n - 1) % 8
        return (s - t) % 4 == 3
    return t > 1 or (t == 1 and (s - t) % 4 != 3)


def nikulin_exists(t_plus, t_minus, a, delta):
    """Nikulin's existence theorem for even 2-elementary lattices (1979,
    Thm 3.6.2) in the six clauses that stated it before the key set was folded
    from the block table (``catalog._exists`` at 55555a8)."""
    r, sigma = t_plus + t_minus, (t_plus - t_minus) % 8
    return (
        a <= r and (r - a) % 2 == 0
        and (delta or sigma % 4 == 0)
        and (a != 0 or (delta == 0 and sigma == 0))
        and (a != 1 or sigma in (1, 7))
        and (a != 2 or sigma != 4 or delta == 0)
        and (delta or a != r or sigma == 0)
    )


@lru_cache(maxsize=None)
def frozenset_reach(names):
    """The (x^2 mod 16, class) pairs of a sum of blocks as a set, folded from
    the last block (the fold the residue masks replaced, ``elements`` at
    880c876)."""
    if not names:
        return frozenset({(0, ElementClass.WU)})
    return frozenset(
        ((a + b) % 16, _join(c, d))
        for a, c in SQUARES[names[0]]
        for b, d in frozenset_reach(names[1:])
    )


def frozenset_fits(names, cls):
    return frozenset(
        (r, kind)
        for r, c in frozenset_reach(names)
        for kind in ElementClass
        if cls is None or _join(kind, c) is cls
    )


def fraction_ldl(block):
    """Rational LDL^T of the positively-oriented form: x^T P x = sum_k d_k w_k^2
    (``elements`` at 5857c5f)."""
    r = block.rank
    sign = -1 if block.neg_definite else 1
    a = [[Fraction(sign * block.gram[i][j]) for j in range(r)] for i in range(r)]
    diag = []
    lower = [[Fraction(0)] * r for _ in range(r)]
    for k in range(r):
        dk = a[k][k] - sum(diag[m] * lower[k][m] ** 2 for m in range(k))
        diag.append(dk)
        lower[k][k] = Fraction(1)
        for i in range(k + 1, r):
            val = a[i][k] - sum(diag[m] * lower[i][m] * lower[k][m] for m in range(k))
            lower[i][k] = val / dk
    return diag, lower


def fraction_block_vectors(block, ldl, bound, lo, hi, parities, state):
    """The definite-block walk with Fraction pruning over the block's
    ``fraction_ldl``, as it was first written (``elements`` at 5857c5f).  The
    part of w_k that the coordinates already chosen give is summed once per
    node, not once per value tried there."""
    r = block.rank
    vals = _value_order(bound)
    sign = -1 if block.neg_definite else 1
    diag, lower = ldl
    cap = Fraction(max(abs(lo), abs(hi)))

    def rec(depth, acc, partial):
        if depth == r:
            n = sign * partial
            if lo <= n <= hi:
                yield tuple(reversed(acc)), int(n)
            return
        k = r - 1 - depth
        shift = sum(lower[i][k] * acc[r - 1 - i] for i in range(k + 1, r) if lower[i][k])
        for v in vals:
            if parities is not None and (v - parities[k]) % 2:
                continue
            state.tick()
            w = v + shift
            p2 = partial + diag[k] * w * w
            if p2 > cap:
                continue
            acc.append(v)
            yield from rec(depth + 1, acc, p2)
            acc.pop()

    yield from rec(0, [], Fraction(0))


@lru_cache(maxsize=None)
def _block_class(name, coords):
    """The class of a vector of one standard block, by G·x and the block's
    Wu parities."""
    block = _block_data(name)
    if any(v % 2 for v in apply(block.gram, coords)):
        return ElementClass.ODD
    wu = all((c - p) % 2 == 0 for c, p in zip(coords, block.wu_parities))
    return ElementClass.WU if wu else ElementClass.EVEN_NON_WU


class UncachedTable:
    """The unshared walk that the shared block tables replaced: each read
    walks its window afresh, as the search did at a35c159, and ticks the
    reader's own state."""

    def __init__(self, name, bound, lo, hi, parities):
        self.name = name
        self.args = (_block_data(name), bound, lo, hi, parities)

    def read(self, state):
        for coords, n in _block_vectors(*self.args, state):
            yield coords, n, _block_class(self.name, coords), None


def product_walk_deltas(s, t):
    """The walk ``_odd_bumps`` replaced, over all of 3^(s+t): every all-odd
    vector in lexicographic order with the delta the old loop computed
    (``elements`` at f8005dd)."""
    for vals in product((1, 3, 5), repeat=s + t):
        delta = 0
        for i, val in enumerate(vals):
            step = val * val - 1  # 0, 8, 24
            delta += 2 * step if i < s else -2 * step
        yield vals, delta

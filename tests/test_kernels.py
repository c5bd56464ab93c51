"""The exact kernels against test-only copies of the eliminations they replaced.

``lattice._elimination`` (half-matrix Bareiss elimination) is compared with
the gcd-reducing symmetric elimination and, for its det, with a row-pivoting
Bareiss determinant, and ``finite_forms._discriminant_group`` (the Smith
kernel that tracks only V) with the full (U, D, V) Smith normal form that
cleared rows and columns with per-row loops.  ``finite_forms._two_elementary``
(the GF(2) kernel with the determinant of the Bareiss elimination) is
compared with that Smith route on every Gram matrix the group tests meet.
``finite_forms.brown_invariant`` (the GF(2) normal form) is compared with
the Gauss sum over the whole group that it replaced, and
``lattices_equivalent`` (signature, a and δ) with the full comparison of
signature, rank, parity and Brown invariant.  The block route of
``_elimination`` and ``_two_elementary``, and the forms
``_discriminant_quadratic`` builds on it, are compared with the whole-Gram
route, errors and their messages included, and the one-pass block-diagonal
assembly with the pairwise fold it replaced.  ``bilinear_table`` and
``DiscriminantGroup._delta`` are compared with their dot-product definitions
on the groups of both routes.
"""

import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from k4graph import (
    ElementClass,
    FiniteQuadraticForm,
    FormError,
    LatticeError,
    brown_invariant,
    classify_element,
    discriminant_quadratic,
    find_characteristic,
    lattices_equivalent,
    parity,
    signature,
)
from k4graph.finite_forms import (
    DiscriminantGroup,
    _discriminant_group,
    _discriminant_quadratic,
    _two_elementary,
    bilinear_table,
)
from k4graph.lattice import (
    STANDARD_GRAMS,
    GramLattice,
    _blocks,
    _elimination,
    _freeze,
    direct_sum_all,
    from_summands,
    gf2_solve,
    is_even,
)
from k4graph.verification import _congruent, _random_unimodular


# ---------------------------------------------------------------------------
# reference kernels
# ---------------------------------------------------------------------------

def _reference_inertia(gram):
    """Symmetric elimination scaled by |pivot|, with a gcd pass after each step."""
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


def _reference_snf(m):
    """(U, D, V) with U·m·V = D, pivoting on the first entry of least magnitude."""
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


def _reference_disc(gram):
    _, d, v = _reference_snf(gram)
    divisors, lifts, duals = [], [], []
    for i in range(len(gram)):
        if d[i][i] == 0:
            raise LatticeError("gram matrix is degenerate")
        if d[i][i] > 1:
            num = tuple(row[i] for row in v)
            divisors.append(d[i][i])
            lifts.append(num)
            duals.append(tuple(_dot(row, num) // d[i][i] for row in gram))
    return DiscriminantGroup(tuple(divisors), tuple(lifts), tuple(duals))


def _det(gram):
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


def _dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def _parity_and_brown(disc):
    """(parity, Brown) of an even lattice's discriminant form, built from the
    group's lifts and duals."""
    qvals = tuple(_dot(n, dual) % 4 for n, dual in zip(disc.lifts, disc.duals))
    f = FiniteQuadraticForm(disc.rank, qvals, bilinear_table(disc))
    return parity(f), brown_invariant(f)


# ---------------------------------------------------------------------------
# inertia
# ---------------------------------------------------------------------------

@st.composite
def _symmetric(draw):
    """Symmetric n×n matrices, n <= 7, entries -3..3; some hollow, some degenerate."""
    n = draw(st.integers(0, 7))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = draw(st.integers(-3, 3))
    if n and draw(st.booleans()):  # hollow: exercises the hyperbolic step
        for i in range(n):
            a[i][i] = 0
    if n >= 2 and draw(st.booleans()):  # coordinate j copies i: e_j - e_i spans a kernel
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        a[j] = list(a[i])
        for row in a:
            row[j] = row[i]
    return tuple(map(tuple, a))


@given(_symmetric())
@settings(max_examples=200, deadline=None)
def test_inertia_matches_reference_elimination(gram):
    assert _elimination.__wrapped__(gram)[:3] == _reference_inertia(gram)


@given(_symmetric())
@settings(max_examples=200, deadline=None)
def test_elimination_det_matches_reference(gram):
    assert _elimination.__wrapped__(gram)[3] == _det(gram)


@pytest.mark.parametrize(
    "gram",
    [
        ((0, 1, 1), (1, 2, 0), (1, 0, 1)),  # s = -1 would make a_00 = -2 + 2 = 0
        ((0, 1, 1), (1, -2, 0), (1, 0, 1)),  # s = +1 would
        ((0, 3, 1), (3, 0, 1), (1, 1, 0)),  # hollow: the partner is off the diagonal
        ((0, 0, 0), (0, 2, 1), (0, 1, 2)),  # row 0 is a radical index
        ((0, 1, 0), (1, 0, 0), (0, 0, 0)),  # a radical index left after one step
    ],
)
def test_elimination_zero_leading_pivot(gram):
    assert _elimination.__wrapped__(gram) == (*_reference_inertia(gram), _det(gram))


def test_inertia_matches_reference_on_catalog_and_congruences(catalog):
    rng = random.Random(1968)
    for v in catalog:
        for lat in (v.lplus, v.lminus):
            expected = _reference_inertia(lat.gram)
            assert _elimination.__wrapped__(lat.gram)[:3] == expected
            for _ in range(2):
                moved = _congruent(lat.gram, _random_unimodular(rng, lat.rank))
                assert _elimination.__wrapped__(moved.gram)[:3] == expected


# ---------------------------------------------------------------------------
# discriminant group
# ---------------------------------------------------------------------------

def _check_discriminant_group(lat):
    """The kernel against the reference SNF route and the defining identities."""
    gram = lat.gram
    disc = _discriminant_group(gram)
    ref = _reference_disc(gram)
    assert disc.divisors == ref.divisors
    assert disc == ref  # the same lifts, so the same classify witnesses
    for n, dual, d in zip(disc.lifts, disc.duals, disc.divisors):
        assert [_dot(row, n) for row in gram] == [d * y for y in dual]
    assert disc.order == abs(_det(gram))
    _check_pairings(disc)
    _check_two_elementary(lat, disc)
    return disc


def _check_pairings(disc):
    """``bilinear_table`` and ``_delta`` of a 2-periodic group, from either
    route, against their definitions by integer dot products."""
    if not disc.is_two_periodic:
        return
    table = tuple(tuple(_dot(n, dual) % 2 for dual in disc.duals) for n in disc.lifts)
    assert bilinear_table(disc) == table
    assert disc._delta == int(any(table[i][i] for i in range(disc.rank)))


def _check_two_elementary(lat, ref):
    """The GF(2) route against the Smith route's group ``ref`` of the same Gram:
    None exactly off the 2-elementary Grams, else a group of order |det| whose
    duals are G·lift / 2, with the Smith route's parity and Brown when even."""
    gram = lat.gram
    two = _two_elementary.__wrapped__(gram)
    if not ref.is_two_periodic:
        assert two is None
        return
    assert two is not None and two.is_two_periodic
    assert two.order == abs(_det(gram))
    _check_pairings(two)
    for n, dual in zip(two.lifts, two.duals):
        assert [_dot(row, n) for row in gram] == [2 * y for y in dual]
    if is_even(lat):
        assert _parity_and_brown(two) == _parity_and_brown(ref)


def _check_congruent(lat, rng):
    """A random congruent of lat: the same divisors and, if even, the same form."""
    disc = _check_discriminant_group(lat)
    moved = _congruent(lat.gram, _random_unimodular(rng, lat.rank))
    moved_disc = _check_discriminant_group(moved)
    assert moved_disc.divisors == disc.divisors
    if disc.is_two_periodic and is_even(lat):  # odd forms depend on the chosen w
        assert _parity_and_brown(moved_disc) == _parity_and_brown(disc)
    return disc, moved_disc


def test_discriminant_group_on_catalog_and_congruences(catalog):
    rng = random.Random(1979)
    lifts = []
    for v in catalog:
        for lat in (v.lplus, v.lminus):
            lifts += [n for d in _check_congruent(lat, rng) if d.is_two_periodic for n in d.lifts]
    # _check_pairings met Smith lifts with an even nonzero or a negative entry,
    # where a parity read off the nonzero entries, not the odd ones, is wrong
    assert any(x < 0 or (x and x % 2 == 0) for n in lifts for x in n)


# 2-elementary blocks, plus <6> and A2 for divisors other than 2
_BLOCKS = ("<1>", "<2>", "<-2>", "U", "U(2)", "D4", "E7", "E8", "E8(2)", "<6>", "A2")
_EXTRA = {"<6>": ((6,),), "A2": ((2, -1), (-1, 2))}


def _block(name):
    if name in _EXTRA:
        return GramLattice.from_rows(_EXTRA[name], name)
    return from_summands((name,))


@given(
    st.lists(st.sampled_from(_BLOCKS), min_size=1, max_size=4),
    st.integers(0, 2**32),
)
@settings(max_examples=60, deadline=None)
def test_discriminant_group_on_random_block_sums(names, seed):
    _check_congruent(direct_sum_all([_block(n) for n in names]), random.Random(seed))


@given(
    st.lists(st.sampled_from(_BLOCKS[:9]), max_size=3),
    st.integers(0, 2**32),
)
@settings(max_examples=40, deadline=None)
def test_odd_form_reads_w_mod_two(names, seed):
    """An odd form's 2·w·dual term against its dot-product definition, with w
    moved by 2y so that it has even nonzero and negative entries; w and w + 2y
    give the same form."""
    rng = random.Random(seed)
    lat = direct_sum_all([_block(n) for n in ("<1>", *names)])
    lat = _congruent(lat.gram, _random_unimodular(rng, lat.rank))
    w = find_characteristic(lat).coords
    moved = tuple(c + 2 * rng.choice((-2, -1, 1, 2)) for c in w)
    two = _two_elementary.__wrapped__(lat.gram)
    qvals = tuple((_dot(n, d) + 2 * _dot(moved, d)) % 4 for n, d in zip(two.lifts, two.duals))
    form = _discriminant_quadratic(lat.gram, moved)
    assert form == _discriminant_quadratic(lat.gram, w)
    assert form.qvals == qvals


@given(_symmetric())
@settings(max_examples=100, deadline=None)
def test_discriminant_group_degenerate_raises(gram):
    if _det(gram) == 0:
        with pytest.raises(LatticeError):
            _discriminant_group(gram)
        with pytest.raises(LatticeError):
            _reference_disc(gram)
        with pytest.raises(LatticeError):
            _two_elementary.__wrapped__(gram)
    else:
        _check_discriminant_group(GramLattice.from_rows(gram))


@given(_symmetric())
@settings(max_examples=100, deadline=None)
def test_out_of_scope_grams_raise_documented_errors(gram):
    """A degenerate Gram raises LatticeError and a non-2-periodic one FormError
    from the form; the oracle calls both undecidable, and classification
    rejects a nonzero even vector in both, while an odd vector is odd before
    the discriminant is read."""
    if _det(gram) == 0:
        error = LatticeError
    elif not _reference_disc(gram).is_two_periodic:
        error = FormError
    else:
        return
    lat = GramLattice.from_rows(gram)
    with pytest.raises(error):
        discriminant_quadratic(lat)
    assert lattices_equivalent(lat, lat) == "undecidable"
    with pytest.raises(LatticeError):
        classify_element(lat, lat.vector([2] + [0] * (lat.rank - 1)))
    odd = next((i for i, row in enumerate(gram) if any(x % 2 for x in row)), None)
    if odd is not None:
        assert classify_element(lat, lat.basis_vector(odd)) is ElementClass.ODD


# ---------------------------------------------------------------------------
# Brown invariant and the lattice oracle
# ---------------------------------------------------------------------------

def _gauss_brown(f):
    """Brown invariant mod 8 by the Gauss sum over all 2^d elements, matched
    against 2^(d/2) times an eighth root of unity; FormError if it is not one."""
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


_TWO_ELEMENTARY = _BLOCKS[:9]  # the standard blocks
_EVEN = _BLOCKS[1:9]  # the even ones
# the rank of each block's discriminant group
_DISC_RANK = {
    "<1>": 0, "<2>": 1, "<-2>": 1, "U": 0, "U(2)": 2, "D4": 2, "E7": 1, "E8": 0, "E8(2)": 8,
}


@st.composite
def _block_names(draw, blocks=_TWO_ELEMENTARY):
    """U plus up to four standard blocks, with d <= 14."""
    names = ["U"] + draw(st.lists(st.sampled_from(blocks), max_size=4))
    assume(sum(_DISC_RANK[n] for n in names) <= 14)
    return names


def _moved(names, seed):
    """The sum of the named blocks in a random congruent basis."""
    lat = from_summands(names)
    return _congruent(lat.gram, _random_unimodular(random.Random(seed), lat.rank))


@given(_block_names(), st.integers(0, 2**32), st.booleans())
@settings(max_examples=60, deadline=None)
def test_normal_form_brown_matches_gauss_sum(names, seed, negate):
    lat = _moved(names, seed)
    f = discriminant_quadratic(lat, None if is_even(lat) else find_characteristic(lat))
    if negate:
        f = f.negate()
    assert brown_invariant(f) == _gauss_brown(f)


@st.composite
def _finite_forms(draw):
    """Any symmetric 0/1 table of size <= 6, with q values that agree with
    its diagonal; many are degenerate."""
    d = draw(st.integers(0, 6))
    b = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            b[i][j] = b[j][i] = draw(st.integers(0, 1))
    q = tuple(b[i][i] + 2 * draw(st.integers(0, 1)) for i in range(d))
    return FiniteQuadraticForm(d, q, tuple(map(tuple, b)))


@given(_finite_forms())
@settings(max_examples=200, deadline=None)
def test_brown_versions_agree_and_reject_degenerate_forms(f):
    _, radical = gf2_solve(f.bvals, [0] * f.d)
    if radical:
        with pytest.raises(FormError):
            brown_invariant(f)
        with pytest.raises(FormError):
            _gauss_brown(f)
    else:
        assert brown_invariant(f) == _gauss_brown(f)


@given(
    _block_names(_EVEN),
    _block_names(_EVEN),
    st.sampled_from(("congruent", "swap", "independent")),
    st.integers(0, 2**32),
)
@settings(max_examples=80, deadline=None)
def test_lattices_equivalent_matches_full_invariants(names, other, how, seed):
    """b is a congruent of a, or a with each U(2) swapped for <2> + <-2> (the
    same signature and d, δ equal iff a has another odd block), or unrelated."""
    if how == "congruent":
        other = names
    elif how == "swap":
        other = [m for n in names for m in (("<2>", "<-2>") if n == "U(2)" else (n,))]
    a, b = _moved(names, seed), _moved(other, seed + 1)

    def invariants(lat):
        f = discriminant_quadratic(lat)
        return signature(lat), f.d, parity(f), _gauss_brown(f)

    assert lattices_equivalent(a, b) == ("yes" if invariants(a) == invariants(b) else "no")


def test_lattices_equivalent_at_discriminant_rank_16():
    lat = from_summands(("U", "E8(2)", "E8(2)"))
    moved = _congruent(lat.gram, _random_unimodular(random.Random(16), lat.rank))
    assert lattices_equivalent(lat, moved) == "yes"
    assert lattices_equivalent(lat, from_summands(("U", "E8(2)", "E8"))) == "no"
    assert brown_invariant(discriminant_quadratic(moved)) == 0


# ---------------------------------------------------------------------------
# block-diagonal Grams: one-pass assembly and the per-block route
# ---------------------------------------------------------------------------

def _whole_two_elementary(gram):
    """The GF(2) route on the whole Gram, blocks or not: det by row-pivoting
    Bareiss, the ``gf2_solve`` kernel basis as lifts, G·x/2 as duals."""
    det = _det(gram)
    if det == 0:
        raise LatticeError("gram matrix is degenerate")
    _, kernel = gf2_solve(gram, [0] * len(gram))
    if abs(det) != 1 << len(kernel):
        return None
    duals = tuple(tuple(_dot(row, x) // 2 for row in gram) for x in kernel)
    return DiscriminantGroup((2,) * len(kernel), _freeze(kernel), duals)


def _whole_form(gram, wc):
    """``_discriminant_quadratic`` by dot products on the whole-Gram group."""
    disc = _whole_two_elementary(gram)
    if disc is None:
        raise FormError("form out of scope: discriminant is not 2-periodic")
    if any(row[i] % 2 for i, row in enumerate(gram)):
        if wc is None:
            raise FormError("odd lattice needs a characteristic vector")
        if any((_dot(row, wc) - row[i]) % 2 for i, row in enumerate(gram)):
            raise FormError("supplied vector is not characteristic")
    twice = [0 if wc is None else 2 * _dot(wc, dual) for dual in disc.duals]
    qvals = tuple((_dot(n, dual) + t) % 4 for n, dual, t in zip(disc.lifts, disc.duals, twice))
    table = tuple(tuple(_dot(n, dual) % 2 for dual in disc.duals) for n in disc.lifts)
    return FiniteQuadraticForm(disc.rank, qvals, table)


def _outcome(f, *args):
    """The result, or the type and message of the error raised."""
    try:
        return f(*args)
    except (LatticeError, FormError) as exc:
        return type(exc), str(exc)


def _check_block_route(gram):
    """The block-route kernels equal the whole-Gram references, or both sides
    raise the same error with the same message."""
    assert _elimination.__wrapped__(gram) == (*_reference_inertia(gram), _det(gram))
    assert _outcome(_two_elementary.__wrapped__, gram) == _outcome(_whole_two_elementary, gram)
    lat, chars = GramLattice.from_rows(gram), [None]
    if not is_even(lat):
        try:
            chars.append(find_characteristic(lat).coords)
        except LatticeError:  # G·w = diag G has no solution mod 2
            pass
    for wc in chars:
        got = _outcome(_discriminant_quadratic, gram, wc)
        assert got == _outcome(_whole_form, gram, wc)


def _pairwise_sum(parts):
    """The fold the one-pass assembly replaced: one direct sum per part."""
    rank, gram, summands = 0, (), ()
    for p in parts:
        rows = [tuple(r) + (0,) * p.rank for r in gram]
        rows += [(0,) * rank + tuple(r) for r in p.gram]
        rank, gram = rank + p.rank, _freeze(rows)
        summands = None if None in (summands, p.summands) else summands + p.summands
    return rank, gram, summands


def _split_points(gram):
    """Every k with 0 < k < n at which the Gram splits into two diagonal blocks."""
    n = len(gram)
    return [k for k in range(1, n) if not any(gram[i][j] for i in range(k) for j in range(k, n))]


def test_block_route_on_catalog(catalog):
    for v in catalog:
        for lat in (v.lplus, v.lminus):
            sizes = [len(STANDARD_GRAMS[name]) for name in lat.summands]
            assert list(map(len, _blocks(lat.gram))) == sizes
            _check_block_route(lat.gram)


@given(
    st.lists(
        st.one_of(st.sampled_from(sorted(STANDARD_GRAMS)), _symmetric()), min_size=1, max_size=5
    )
)
@settings(max_examples=100, deadline=None)
def test_block_route_on_random_block_sums(parts):
    """Standard blocks mixed with random symmetric ones: degenerate, odd and
    non-2-elementary blocks included."""
    grams = [STANDARD_GRAMS[p] if isinstance(p, str) else p for p in parts]
    gram = direct_sum_all([GramLattice.from_rows(g) for g in grams]).gram
    _check_block_route(gram)
    blocks = _blocks(gram)
    assert direct_sum_all([GramLattice.from_rows(b) for b in blocks]).gram == gram
    ends = list(itertools.accumulate(map(len, blocks)))
    assert ends == _split_points(gram) + ([len(gram)] if gram else [])
    assert not any(_split_points(b) for b in blocks)


@pytest.mark.parametrize("gram", [((3, 0), (0, 0)), ((0, 0), (0, 3))])
def test_block_route_decides_degeneracy_first(gram):
    """The non-2-elementary block <3> must not hide the degenerate one."""
    assert _elimination.__wrapped__(gram) == (1, 0, 1, 0)
    with pytest.raises(LatticeError):
        _two_elementary.__wrapped__(gram)


def test_blocks_of_small_grams():
    assert _blocks(()) == []
    dense = ((2, 1, 1), (1, 2, 1), (1, 1, 2))
    assert len(_blocks(dense)) == 1 and _blocks(dense)[0] is dense
    # A3 closes only at its last row, though its first row stops at column 1
    a3 = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    # row 0 reaches column 2 past a zero; <6> sits between two blocks
    gram = direct_sum_all(
        [GramLattice.from_rows(g) for g in (a3, ((6,),), ((2, 0, 1), (0, 2, 0), (1, 0, 2)))]
    ).gram
    assert _blocks(gram) == [a3, ((6,),), ((2, 0, 1), (0, 2, 0), (1, 0, 2))]
    assert _blocks(((0, 0), (0, 0))) == [((0,),), ((0,),)]


@given(st.lists(st.sampled_from(sorted(STANDARD_GRAMS)), max_size=8))
@settings(max_examples=100, deadline=None)
def test_one_pass_sum_matches_pairwise_fold(names):
    parts = [_block(n) for n in names]
    lat = from_summands(names)
    assert (lat.rank, lat.gram, lat.summands) == _pairwise_sum(parts)
    summed = direct_sum_all(parts)
    assert (summed.rank, summed.gram, summed.summands) == _pairwise_sum(parts)
    unnamed = [GramLattice.from_rows(p.gram) for p in parts]
    assert direct_sum_all(unnamed).summands == (None if names else ())

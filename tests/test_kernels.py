"""The exact kernels against the test-only copies, in ``reference``, of the
eliminations they replaced.

``lattice._elimination`` (half-matrix Bareiss elimination) is compared with
the gcd-reducing symmetric elimination and, for its det, with a row-pivoting
Bareiss determinant.  ``finite_forms.discriminant_group`` is compared, for
its divisors, with the full (U, D, V) Smith normal form that cleared rows and
columns with per-row loops, and, for its whole group, with the whole-Gram
GF(2) route on a 2-elementary Gram and that Smith route on any other (where
it runs the Smith kernel that tracks only V); its Smith fallback is pinned on
three Grams, a 2-elementary Gram must not reach the Smith kernel, and its
bilinear table must equal that of ``discriminant_quadratic`` on the same
lattice.  ``lattice._two_elementary`` (the GF(2) kernel with the determinant
of the Bareiss elimination) is compared with the Smith reference on every
Gram matrix the group tests meet.
``finite_forms.brown_invariant`` (the GF(2) normal form) is compared with
the Gauss sum over the whole group that it replaced, and
``lattices_equivalent`` (signature, a and δ) with the full comparison of
signature, rank, parity and Brown invariant.  The block route of
``_elimination`` and ``_two_elementary``, and the forms
``discriminant_quadratic`` builds on it, are compared with the whole-Gram
route, errors and their messages included, and the one-pass block-diagonal
assembly with the pairwise fold it replaced.  ``bilinear_table`` and
``DiscriminantGroup._delta`` are compared with their dot-product definitions
on the groups of both routes.
"""

import itertools
import random
from functools import lru_cache

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
    discriminant_group,
    discriminant_quadratic,
    find_characteristic,
    lattices_equivalent,
    parity,
    signature,
)
from k4graph.gram import STANDARD_GRAMS, GramLattice, direct_sum_all, from_summands, is_even
from k4graph.lattice import _elimination, _split, _two_elementary, bilinear_table, gf2_solve
from k4graph.verification import _congruent, _random_unimodular

import reference as ref


@lru_cache(maxsize=None)
def _parity_and_brown(disc):
    """(parity, Brown) of an even lattice's discriminant form, built from the
    group's lifts and duals; once per group, which ``_check_two_elementary``
    and ``_check_congruent`` both read."""
    qvals = tuple(ref.dot(n, dual) % 4 for n, dual in zip(disc.lifts, disc.duals))
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
    assert _elimination.__wrapped__(gram)[:3] == ref.inertia(gram)


@given(_symmetric())
@settings(max_examples=200, deadline=None)
def test_elimination_det_matches_reference(gram):
    assert _elimination.__wrapped__(gram)[3] == ref.det(gram)


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
    assert _elimination.__wrapped__(gram) == (*ref.inertia(gram), ref.det(gram))


def test_inertia_matches_reference_on_catalog_and_congruences(catalog):
    rng = random.Random(1968)
    for v in catalog:
        for lat in (v.lplus, v.lminus):
            expected = ref.inertia(lat.gram)
            assert _elimination.__wrapped__(lat.gram)[:3] == expected
            for _ in range(2):
                moved = _congruent(lat.gram, _random_unimodular(rng, lat.rank))
                assert _elimination.__wrapped__(moved.gram)[:3] == expected


# ---------------------------------------------------------------------------
# discriminant group
# ---------------------------------------------------------------------------

def _check_discriminant_group(lat):
    """The kernel against the reference routes and the defining identities:
    the Smith route's divisors always, and the GF(2) route's group on a
    2-elementary Gram, the Smith route's on any other.  Returns the kernel's
    group and the Smith reference's."""
    gram = lat.gram
    disc = discriminant_group(lat)
    smith = ref.discriminant_group(gram)
    assert disc.divisors == smith.divisors
    assert disc == (ref.two_elementary(gram) if smith.is_two_periodic else smith)
    for n, dual, d in zip(disc.lifts, disc.duals, disc.divisors):
        assert [ref.dot(row, n) for row in gram] == [d * y for y in dual]
    assert disc.order == abs(ref.det(gram))
    _check_pairings(disc)
    _check_pairings(smith)
    _check_two_elementary(lat, smith)
    return disc, smith


def _check_pairings(disc):
    """``bilinear_table`` and ``_delta`` of a 2-periodic group, from either
    route, against their definitions by integer dot products."""
    if not disc.is_two_periodic:
        return
    table = tuple(tuple(ref.dot(n, dual) % 2 for dual in disc.duals) for n in disc.lifts)
    assert bilinear_table(disc) == table
    assert disc._delta == int(any(table[i][i] for i in range(disc.rank)))


def _check_two_elementary(lat, smith):
    """The GF(2) route against the Smith route's group ``smith`` of the same Gram:
    None exactly off the 2-elementary Grams, else a group of order |det| whose
    duals are G·lift / 2, with the Smith route's parity and Brown when even."""
    gram = lat.gram
    two = _two_elementary.__wrapped__(gram)
    if not smith.is_two_periodic:
        assert two is None
        return
    assert two is not None and two.is_two_periodic
    assert two.order == abs(ref.det(gram))
    _check_pairings(two)
    for n, dual in zip(two.lifts, two.duals):
        assert [ref.dot(row, n) for row in gram] == [2 * y for y in dual]
    if is_even(lat):
        assert _parity_and_brown(two) == _parity_and_brown(smith)


def _check_congruent(lat, rng):
    """A random congruent of lat: the same divisors and, if even, the same form.
    Returns the Smith reference groups of both."""
    disc, smith = _check_discriminant_group(lat)
    moved = _congruent(lat.gram, _random_unimodular(rng, lat.rank))
    moved_disc, moved_smith = _check_discriminant_group(moved)
    assert moved_disc.divisors == disc.divisors
    if disc.is_two_periodic and is_even(lat):  # odd forms depend on the chosen w
        assert _parity_and_brown(moved_disc) == _parity_and_brown(disc)
    return smith, moved_smith


def test_discriminant_group_on_catalog_and_congruences(catalog):
    rng = random.Random(1979)
    lifts = []
    for v in catalog:
        for lat in (v.lplus, v.lminus):
            lifts += [n for d in _check_congruent(lat, rng) if d.is_two_periodic for n in d.lifts]
    # _check_pairings met Smith lifts with an even nonzero or a negative entry,
    # where a parity read off the nonzero entries, not the odd ones, is wrong
    assert any(x < 0 or (x and x % 2 == 0) for n in lifts for x in n)


def _check_shared_generators(lat):
    """The group and the form of one lattice present L*/L on the same generators."""
    w = None if is_even(lat) else find_characteristic(lat)
    assert bilinear_table(discriminant_group(lat)) == discriminant_quadratic(lat, w).bvals


def test_group_and_form_share_generators_on_catalog(catalog):
    rng = random.Random(2006)
    for v in catalog:
        for lat in (v.lplus, v.lminus):
            _check_shared_generators(lat)
            _check_shared_generators(_congruent(lat.gram, _random_unimodular(rng, lat.rank)))


def test_two_elementary_group_runs_no_smith(monkeypatch):
    import k4graph.finite_forms as F

    def refuse(*args):
        raise AssertionError("the Smith kernel ran")

    monkeypatch.setattr(F, "_smith", refuse)
    lat = ref.block_sum(("U(2)", "D4"), 30)
    assert discriminant_group(lat) == ref.two_elementary(lat.gram)
    with pytest.raises(AssertionError, match="the Smith kernel ran"):  # A2: divisor 3
        discriminant_group(GramLattice.from_rows(((2, -1), (-1, 2))))


@pytest.mark.parametrize(
    "gram, divisors, lifts, duals",
    [
        (((2, -1), (-1, 2)), (3,), ((1, 2),), ((0, 1),)),
        (((4,),), (4,), ((1,),), ((1,),)),
        (((2, 0), (0, 6)), (2, 6), ((1, 0), (0, 1)), ((1, 0), (0, 1))),
    ],
)
def test_smith_fallback_values(gram, divisors, lifts, duals):
    disc = discriminant_group(GramLattice.from_rows(gram))
    assert (disc.divisors, disc.lifts, disc.duals) == (divisors, lifts, duals)


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
    st.lists(st.sampled_from(_BLOCKS[:9]), min_size=1, max_size=4),
    st.integers(0, 2**32),
)
@settings(max_examples=40, deadline=None)
def test_group_and_form_share_generators_on_congruents(names, seed):
    _check_shared_generators(ref.block_sum(names, seed))


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
    qvals = tuple((ref.dot(n, d) + 2 * ref.dot(moved, d)) % 4 for n, d in zip(two.lifts, two.duals))
    form = discriminant_quadratic(lat, lat.vector(moved))
    assert form == discriminant_quadratic(lat, lat.vector(w))
    assert form.qvals == qvals


@given(_symmetric())
@settings(max_examples=100, deadline=None)
def test_discriminant_group_degenerate_raises(gram):
    if ref.det(gram) == 0:
        with pytest.raises(LatticeError):
            discriminant_group(GramLattice.from_rows(gram))
        with pytest.raises(LatticeError):
            ref.discriminant_group(gram)
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
    if ref.det(gram) == 0:
        error = LatticeError
    elif not ref.discriminant_group(gram).is_two_periodic:
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


@given(_block_names(), st.integers(0, 2**32), st.booleans())
@settings(max_examples=60, deadline=None)
def test_normal_form_brown_matches_gauss_sum(names, seed, negate):
    lat = ref.block_sum(names, seed)
    f = discriminant_quadratic(lat, None if is_even(lat) else find_characteristic(lat))
    if negate:
        f = f.negate()
    assert brown_invariant(f) == ref.gauss_brown(f)


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
            ref.gauss_brown(f)
    else:
        assert brown_invariant(f) == ref.gauss_brown(f)


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
    a, b = ref.block_sum(names, seed), ref.block_sum(other, seed + 1)

    def invariants(lat):
        f = discriminant_quadratic(lat)
        return signature(lat), f.d, parity(f), ref.gauss_brown(f)

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

def _outcome(f, *args):
    """The result, or the type and message of the error raised."""
    try:
        return f(*args)
    except (LatticeError, FormError) as exc:
        return type(exc), str(exc)


def _check_block_route(gram):
    """The block-route kernels equal the whole-Gram references, or both sides
    raise the same error with the same message."""
    assert _elimination.__wrapped__(gram) == (*ref.inertia(gram), ref.det(gram))
    assert _outcome(_two_elementary.__wrapped__, gram) == _outcome(ref.two_elementary, gram)
    lat, chars = GramLattice.from_rows(gram), [None]
    if not is_even(lat):
        try:
            chars.append(find_characteristic(lat).coords)
        except LatticeError:  # G·w = diag G has no solution mod 2
            pass
    for wc in chars:
        got = _outcome(discriminant_quadratic, lat, None if wc is None else lat.vector(wc))
        assert got == _outcome(ref.discriminant_form, gram, wc)


def _split_points(gram):
    """Every k with 0 < k < n at which the Gram splits into two diagonal blocks."""
    n = len(gram)
    return [k for k in range(1, n) if not any(gram[i][j] for i in range(k) for j in range(k, n))]


def test_block_route_on_catalog(catalog):
    for v in catalog:
        for lat in (v.lplus, v.lminus):
            sizes = [len(STANDARD_GRAMS[name]) for name in lat.summands]
            assert list(map(len, _split.__wrapped__(lat.gram))) == sizes
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
    blocks = _split.__wrapped__(gram)
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
    assert _split.__wrapped__(()) == ()
    dense = ((2, 1, 1), (1, 2, 1), (1, 1, 2))
    assert len(_split.__wrapped__(dense)) == 1 and _split.__wrapped__(dense)[0] is dense
    # A3 closes only at its last row, though its first row stops at column 1
    a3 = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    # row 0 reaches column 2 past a zero; <6> sits between two blocks
    gram = direct_sum_all(
        [GramLattice.from_rows(g) for g in (a3, ((6,),), ((2, 0, 1), (0, 2, 0), (1, 0, 2)))]
    ).gram
    assert _split.__wrapped__(gram) == (a3, ((6,),), ((2, 0, 1), (0, 2, 0), (1, 0, 2)))
    assert _split.__wrapped__(((0, 0), (0, 0))) == (((0,),), ((0,),))


@given(st.lists(st.sampled_from(sorted(STANDARD_GRAMS)), max_size=8))
@settings(max_examples=100, deadline=None)
def test_one_pass_sum_matches_pairwise_fold(names):
    parts = [_block(n) for n in names]
    lat = from_summands(names)
    assert (lat.rank, lat.gram, lat.summands) == ref.pairwise_sum(parts)
    summed = direct_sum_all(parts)
    assert (summed.rank, summed.gram, summed.summands) == ref.pairwise_sum(parts)
    unnamed = [GramLattice.from_rows(p.gram) for p in parts]
    assert direct_sum_all(unnamed).summands == (None if names else ())

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k4graph import (
    FiniteQuadraticForm,
    FormError,
    brown_invariant,
    discriminant_group,
    discriminant_quadratic,
    forms_isomorphic,
    lattices_equivalent,
    make_standard,
    parity,
    signature,
    smith_normal_form,
)
from k4graph.gram import GramLattice, direct_sum, from_summands

import reference as ref


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def test_snf_single_entry():
    _, d, _ = smith_normal_form([[2]])
    assert d == ((2,),)


def test_snf_u2():
    # hand row-reduction: swap the two rows of [[0,2],[2,0]] and read off diag(2,2)
    _, d, _ = smith_normal_form(make_standard("U(2)").gram)
    assert d == ((2, 0), (0, 2))


def test_snf_k3_lattice_trivial_cokernel():
    k3 = from_summands(("U", "U", "U", "E8", "E8"))
    _, d, _ = smith_normal_form(k3.gram)
    assert all(d[i][i] == 1 for i in range(22))


@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 10**6),
)
@settings(max_examples=80, deadline=None)
def test_snf_round_trip(n, m, seed):
    import random

    rng = random.Random(seed)
    mat = [[rng.randrange(-9, 10) for _ in range(m)] for _ in range(n)]
    u, d, v = smith_normal_form(mat)
    prod_ = [
        [
            sum(u[i][a] * mat[a][b] * v[b][j] for a in range(n) for b in range(m))
            for j in range(m)
        ]
        for i in range(n)
    ]
    assert prod_ == [list(r) for r in d]
    for i in range(min(n, m)):
        for j in range(min(n, m)):
            if i != j:
                assert d[i][j] == 0
        assert d[i][i] >= 0
    for i in range(min(n, m) - 1):
        if d[i][i]:
            assert d[i + 1][i + 1] % d[i][i] == 0
        else:
            assert d[i + 1][i + 1] == 0


def test_snf_transforms_are_unimodular():
    mat = [[4, 6, 2], [2, 8, 10], [0, 2, 2]]
    u, d, v = smith_normal_form(mat)

    def det3(m):
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    assert abs(det3(u)) == 1
    assert abs(det3(v)) == 1


@pytest.mark.parametrize("mat", [[[2], [3, 5]], [[2, 4], [6, 5, 7]], [[1, 2], [3]]])
def test_snf_rejects_ragged_matrices(mat):
    # a short first row must not drop later entries, nor a short later row raise IndexError
    from k4graph import LatticeError

    with pytest.raises(LatticeError, match="rows differ in length"):
        smith_normal_form(mat)


# ---------------------------------------------------------------------------
# discriminant groups
# ---------------------------------------------------------------------------

def test_discriminant_rank_one():
    assert discriminant_group(make_standard("<2>")).divisors == (2,)


def test_discriminant_d4():
    dg = discriminant_group(make_standard("D4"))
    assert dg.divisors == (2, 2)
    assert dg.is_two_periodic


def test_discriminant_u2_3d4():
    dg = discriminant_group(from_summands(("U(2)", "D4", "D4", "D4")))
    assert dg.divisors == (2,) * 8
    assert dg.rank == 8


def test_discriminant_group_order_equals_det():
    for names in (("<2>",), ("D4",), ("U(2)", "D4"), ("E8(2)",)):
        lat = from_summands(names)
        _, d, _ = smith_normal_form(lat.gram)
        det = 1
        for i in range(lat.rank):
            det *= d[i][i]
        assert discriminant_group(lat).order == det


def test_discriminant_lifts_pair_integrally():
    lat = from_summands(("U(2)", "D4"))
    dg = discriminant_group(lat)
    for g, d, dual in zip(dg.lifts, dg.divisors, dg.duals):
        pairing = [
            sum(Fraction(lat.gram[i][j] * g[j], d) for j in range(lat.rank))
            for i in range(lat.rank)
        ]
        assert all(p.denominator == 1 for p in pairing)
        assert tuple(pairing) == dual


# ---------------------------------------------------------------------------
# discriminant quadratic forms
# ---------------------------------------------------------------------------

def test_form_of_2():
    f = discriminant_quadratic(make_standard("<2>"))
    assert f.d == 1
    assert f.qvals == (1,)  # q = 1/2


def test_form_of_u2():
    f = discriminant_quadratic(make_standard("U(2)"))
    assert f.d == 2
    assert f.qvals == (0, 0)
    assert f.bvals[0][1] == 1  # b = 1/2
    assert parity(f) == "even"
    # (1, 0) is characteristic, but an even lattice's form ignores a supplied w
    u2 = make_standard("U(2)")
    assert discriminant_quadratic(u2, u2.vector((1, 0))) == f


def test_form_of_e8_2():
    f = discriminant_quadratic(make_standard("E8(2)"))
    assert f.d == 8
    assert parity(f) == "even"


def test_form_rejects_non_two_periodic():
    with pytest.raises(FormError):
        discriminant_quadratic(GramLattice.from_rows([[4]]))


def test_form_odd_lattice_needs_characteristic():
    odd = GramLattice.from_rows([[1, 0], [0, -2]])
    with pytest.raises(FormError):
        discriminant_quadratic(odd)
    w = odd.vector([1, 0])
    f = discriminant_quadratic(odd, w)
    assert f.d == 1


def test_quadratic_extension_consistency_small():
    # q(x + y) = q(x) + q(y) + 2b(x, y), checked on whole small groups
    for names in (("<2>", "<-2>"), ("U(2)",), ("D4",)):
        f = discriminant_quadratic(from_summands(names))
        for x in product((0, 1), repeat=f.d):
            for y in product((0, 1), repeat=f.d):
                s = tuple((a + b) % 2 for a, b in zip(x, y))
                assert f.q_of(s) == (f.q_of(x) + f.q_of(y) + 2 * f.b_of(x, y)) % 4


def test_form_invariant_validation():
    with pytest.raises(FormError):
        FiniteQuadraticForm(1, (1,), ((0,),))  # q mod Z must match b(x,x)
    with pytest.raises(FormError):
        FiniteQuadraticForm(2, (0, 0), ((0, 1), (0, 0)))  # asymmetric b


def test_form_json_round_trip():
    f = discriminant_quadratic(make_standard("D4"))
    back = FiniteQuadraticForm.from_json(f.to_json())
    assert back == f


def test_discriminant_group_rejects_degenerate():
    from k4graph import LatticeError, discriminant_group

    with pytest.raises(LatticeError):
        discriminant_group(GramLattice.from_rows([[1, 1], [1, 1]]))


# ---------------------------------------------------------------------------
# Brown invariant
# ---------------------------------------------------------------------------

def test_brown_golden_values():
    assert brown_invariant(FiniteQuadraticForm(0, (), ())) == 0
    assert brown_invariant(discriminant_quadratic(make_standard("<2>"))) == 1
    assert brown_invariant(discriminant_quadratic(make_standard("<-2>"))) == 7
    assert brown_invariant(discriminant_quadratic(make_standard("D4"))) == 4
    assert brown_invariant(discriminant_quadratic(make_standard("U(2)"))) == 0


def test_brown_is_additive_on_direct_sums():
    a = make_standard("<2>")
    b = make_standard("D4")
    f_sum = discriminant_quadratic(direct_sum(a, b))
    total = brown_invariant(discriminant_quadratic(a)) + brown_invariant(
        discriminant_quadratic(b)
    )
    assert brown_invariant(f_sum) == total % 8


def test_brown_negation():
    for name in ("<2>", "<-2>", "D4", "U(2)", "E8(2)"):
        f = discriminant_quadratic(make_standard(name))
        assert brown_invariant(f.negate()) == (-brown_invariant(f)) % 8


def test_brown_milgram_congruence():
    for names in (("<2>",), ("<-2>", "<-2>"), ("D4", "<2>"), ("U(2)", "E8(2)")):
        lat = from_summands(names)
        sp, sm = signature(lat)
        b = brown_invariant(discriminant_quadratic(lat))
        assert (sp - sm - b) % 8 == 0


def test_brown_size_limit():
    # no rank limit: the normal form is O(d²), and forms_isomorphic agrees
    f = discriminant_quadratic(from_summands(("<2>",) * 13))
    assert brown_invariant(f) == 13 % 8
    g = discriminant_quadratic(from_summands(("<2>",) * 12 + ("<-2>",)))
    assert (brown_invariant(g), forms_isomorphic(f, f), forms_isomorphic(f, g)) == (3, True, False)


def test_brown_rejects_degenerate_gauss_sum():
    # a degenerate "form": q = 0 on Z/2 with b = 0 has Gauss sum 2, not sqrt(2)*zeta
    fake = FiniteQuadraticForm(1, (0,), ((0,),))
    with pytest.raises(FormError):
        brown_invariant(fake)


# ---------------------------------------------------------------------------
# isomorphism oracles
# ---------------------------------------------------------------------------

def test_forms_isomorphic_reflexive():
    f = discriminant_quadratic(make_standard("D4"))
    assert forms_isomorphic(f, f)


def test_forms_distinguish_2_and_minus2():
    assert not forms_isomorphic(
        discriminant_quadratic(make_standard("<2>")),
        discriminant_quadratic(make_standard("<-2>")),
    )


def test_lattices_equivalent_reflexive():
    lat = from_summands(("U", "<2>", "<-2>"))
    assert lattices_equivalent(lat, lat) == "yes"


def test_lattices_equivalent_undecidable_for_odd():
    one = make_standard("<1>")
    assert lattices_equivalent(one, one) == "undecidable"


def test_lattices_equivalent_undecidable_for_definite_rank3():
    lat = from_summands(("<-2>", "<-2>", "<-2>"))
    assert lattices_equivalent(lat, lat) == "undecidable"


def test_lattices_equivalent_detects_signature():
    assert lattices_equivalent(
        from_summands(("U", "<2>")), from_summands(("U", "<-2>"))
    ) == "no"


def test_lattices_equivalent_u2_case():
    # 2U(2) + <-2> has the invariants of 2<2> + 3<-2>
    a = from_summands(("U(2)", "U(2)", "<-2>"))
    b = from_summands(("<2>", "<2>", "<-2>", "<-2>", "<-2>"))
    assert lattices_equivalent(a, b) == "yes"


# ---------------------------------------------------------------------------
# Gram-keyed memo
# ---------------------------------------------------------------------------

_TWO_ELEMENTARY = ("<1>", "<2>", "<-2>", "U", "U(2)", "D4", "E7", "E8", "E8(2)")


@given(
    st.lists(st.sampled_from(_TWO_ELEMENTARY), min_size=1, max_size=3),
    st.integers(0, 2**32),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_memo_matches_uncached_helpers(names, seed, degenerate):
    import random

    from k4graph import LatticeError, find_characteristic
    from k4graph.lattice import _elimination
    from k4graph.verification import _congruent, _random_unimodular

    rows = [list(row) for row in from_summands(names).gram]
    if degenerate:
        rows = [row + [0] for row in rows] + [[0] * (len(rows) + 1)]
    n = len(rows)
    lat = _congruent(rows, _random_unimodular(random.Random(seed), n))
    gram = lat.gram
    if degenerate:
        for _ in range(2):
            with pytest.raises(LatticeError):
                signature(lat)
            with pytest.raises(LatticeError):
                discriminant_group(lat)
            with pytest.raises(LatticeError):
                discriminant_quadratic(lat)
        return
    w = find_characteristic(lat)
    wc = None if all(gram[i][i] % 2 == 0 for i in range(n)) else w.coords
    pos, neg, _ = _elimination.__wrapped__(gram)[:3]
    for _ in range(2):
        assert signature(lat) == (pos, neg)
        smith = ref.discriminant_group(gram)
        assert discriminant_group(lat) == (
            ref.two_elementary(gram) if smith.is_two_periodic else smith
        )
        assert discriminant_quadratic(lat, w) == ref.discriminant_form(gram, wc)
        f = discriminant_quadratic(lat, w)
        assert brown_invariant(f) == brown_invariant.__wrapped__(f)

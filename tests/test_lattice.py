import ast
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k4graph import (
    FiniteQuadraticForm,
    FormError,
    GramLattice,
    LatticeError,
    direct_sum,
    find_characteristic,
    inner,
    is_even,
    make_standard,
    norm,
    orthogonal_sublattice,
    reflect,
    rescale,
    signature,
    smith_normal_form,
    twist,
)
from k4graph.gram import STANDARD_GRAMS, direct_sum_all, from_summands
from k4graph.lattice import _complement, gf2_solve, gram_apply, inertia

import reference as ref


def absdet(l):
    _, d, _ = smith_normal_form(l.gram)
    out = 1
    for i in range(l.rank):
        out *= d[i][i]
    return out


# ---------------------------------------------------------------------------
# standard lattices: the fixed bases are golden data
# ---------------------------------------------------------------------------

def test_standard_u():
    u = make_standard("U")
    assert u.rank == 2
    assert u.gram == ((0, 1), (1, 0))


def test_standard_u2():
    assert make_standard("U(2)").gram == ((0, 2), (2, 0))


def test_standard_rank_one():
    assert make_standard("<2>").gram == ((2,),)
    assert make_standard("<-2>").gram == ((-2,),)
    assert make_standard("<1>").gram == ((1,),)


def test_standard_d4_basis():
    # star-shaped root basis: node 0 at the branch point
    assert make_standard("D4").gram == (
        (-2, 1, 1, 1),
        (1, -2, 0, 0),
        (1, 0, -2, 0),
        (1, 0, 0, -2),
    )


def test_standard_e8_is_unimodular_even_negative():
    e8 = make_standard("E8")
    assert e8.rank == 8
    assert is_even(e8)
    assert absdet(e8) == 1
    assert signature(e8) == (0, 8)


def test_standard_determinants():
    assert absdet(make_standard("E7")) == 2
    assert absdet(make_standard("D4")) == 4
    assert absdet(make_standard("E8(2)")) == 256


def test_unknown_standard_name():
    with pytest.raises(LatticeError):
        make_standard("A17")


def test_direct_sum_diag():
    l = direct_sum(make_standard("<2>"), make_standard("<-2>"))
    assert l.rank == 2
    assert l.gram == ((2, 0), (0, -2))


def test_direct_sum_k3_lattice():
    k3 = from_summands(("U", "U", "U", "E8", "E8"))
    assert k3.rank == 22
    assert absdet(k3) == 1
    assert signature(k3) == (3, 19)
    assert is_even(k3)


def test_direct_sum_empty_identity():
    u = make_standard("U")
    assert direct_sum(u, GramLattice.empty()).gram == u.gram
    assert direct_sum(GramLattice.empty(), u).gram == u.gram


def test_sum_labels():
    """An unlabelled sum is labelled by its parts, with no "0" for the empty
    start of a fold; only the empty sum reads "0"."""
    u, e8 = make_standard("U"), make_standard("E8")
    assert from_summands(("U", "E8")).label == "U+E8"
    assert direct_sum_all([u, e8]).label == "U+E8"
    assert direct_sum(u, e8).label == "U+E8"
    assert from_summands(("U", "E8"), label="demo").label == "demo"
    assert from_summands(()).label == direct_sum_all([]).label == "0"
    assert direct_sum_all([GramLattice.from_rows([[2]]), u]).label == "U"
    # any iterable is read once
    assert direct_sum_all(iter([u, e8])).summands == from_summands(iter(["U", "E8"])).summands


def test_rescale():
    assert rescale(make_standard("U"), 2).gram == make_standard("U(2)").gram
    assert signature(rescale(make_standard("E8"), -1)) == (8, 0)
    u = make_standard("U")
    assert rescale(u, 1).gram == u.gram
    with pytest.raises(LatticeError):
        rescale(u, 0)


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------

def test_inner_u():
    u = make_standard("U")
    for k in range(-3, 4):
        assert norm(u.vector([1, k])) == 2 * k


def test_inner_diagonal_wu_vector():
    l = from_summands(("<2>", "<2>", "<-2>", "<-2>", "<-2>"))
    assert norm(l.vector([1, 1, 1, 1, 1])) == -2


def test_inner_u2():
    assert norm(make_standard("U(2)").vector([1, 1])) == 4


def test_inner_ambient_mismatch():
    u = make_standard("U")
    v = make_standard("U(2)")
    with pytest.raises(LatticeError):
        inner(u.vector([1, 0]), v.vector([1, 0]))


@st.composite
def _grams_and_coords(draw):
    n = draw(st.integers(1, 8))
    upper = {(i, j): draw(st.integers(-5, 5)) for i in range(n) for j in range(i, n)}
    gram = tuple(tuple(upper[min(i, j), max(i, j)] for j in range(n)) for i in range(n))
    return GramLattice(n, gram), draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(_grams_and_coords())
def test_gram_apply_is_the_dense_product(case):
    # besides x: the zero vector, -x (every coefficient negated) and 3x (every
    # nonzero coefficient of magnitude 3 or more)
    l, x = case
    for coords in ([0] * l.rank, x, [-c for c in x], [3 * c for c in x]):
        assert gram_apply(l, coords) == ref.apply(l.gram, coords)


# ---------------------------------------------------------------------------
# signature
# ---------------------------------------------------------------------------

def test_signature_hyperbolic():
    assert signature(make_standard("U")) == (1, 1)


def test_signature_u2_3d4():
    assert signature(from_summands(("U(2)", "D4", "D4", "D4"))) == (1, 13)


def test_signature_degenerate_errors():
    with pytest.raises(LatticeError):
        signature(GramLattice.from_rows([[1, 1], [1, 1]]))
    assert inertia(GramLattice.from_rows([[1, 1], [1, 1]]))[2] == 1


def test_signature_sums_to_rank_on_random_congruences():
    rng = random.Random(7)
    base = from_summands(("U", "<2>", "<-2>", "<-2>"))
    for _ in range(20):
        u = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
        for _ in range(12):
            i, j = rng.randrange(5), rng.randrange(5)
            if i != j:
                c = rng.choice((-2, -1, 1, 2))
                for k in range(5):
                    u[i][k] += c * u[j][k]
        g = [
            [
                sum(u[i][a] * base.gram[a][b] * u[j][b] for a in range(5) for b in range(5))
                for j in range(5)
            ]
            for i in range(5)
        ]
        lat = GramLattice.from_rows(g)
        assert signature(lat) == signature(base)
        assert sum(signature(lat)) == 5


# ---------------------------------------------------------------------------
# evenness
# ---------------------------------------------------------------------------

def test_is_even_table():
    for name in ("<2>", "<-2>", "U", "U(2)", "D4", "E7", "E8", "E8(2)"):
        assert is_even(make_standard(name))
    assert not is_even(make_standard("<1>"))


# ---------------------------------------------------------------------------
# reflections
# ---------------------------------------------------------------------------

def test_reflect_negates_v():
    l = from_summands(("<2>", "<-2>"))
    v = l.vector([0, 1])
    assert reflect(v, v).coords == (0, -1)


def test_reflect_fixes_orthogonal():
    l = from_summands(("<2>", "<-2>"))
    v = l.vector([0, 1])
    x = l.vector([1, 0])
    assert reflect(v, x).coords == x.coords


def test_reflect_example():
    l = from_summands(("<2>", "<-2>"))
    v = l.vector([0, 1])
    assert reflect(v, l.vector([1, 1])).coords == (1, -1)


def test_reflect_rejects_other_norms():
    u = make_standard("U")
    with pytest.raises(LatticeError):
        reflect(u.vector([1, 2]), u.vector([1, 0]))


@given(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
       st.lists(st.integers(-4, 4), min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_reflect_is_an_isometric_involution(xs, ys):
    l = from_summands(("U", "<2>", "<-2>"))
    v = l.vector([1, -1, 0, 0])  # norm -2
    x, y = l.vector(xs), l.vector(ys)
    assert inner(reflect(v, x), reflect(v, y)) == inner(x, y)
    assert reflect(v, reflect(v, x)).coords == x.coords


# ---------------------------------------------------------------------------
# twists
# ---------------------------------------------------------------------------

def test_twist_rank_one():
    m2 = make_standard("<-2>")
    assert twist(m2, m2.vector([1])).gram == ((2,),)


def test_twist_is_involution_and_preserves_det():
    l = from_summands(("U", "<-2>"))
    for coords in ([1, -1, 0], [0, 0, 1], [1, 1, 1]):
        v = l.vector(coords)
        if norm(v) not in (2, -2):
            continue
        t = twist(l, v)
        assert twist(t, t.vector(coords)).gram == l.gram
        assert absdet(t) == absdet(l)


def test_twist_flips_one_sign():
    l = from_summands(("U", "<-2>"))
    v = l.vector([0, 0, 1])
    assert signature(l) == (1, 2)
    assert signature(twist(l, v)) == (2, 1)


def test_twist_k4_lattice():
    k3 = from_summands(("U", "U", "U", "E8", "E8"))
    amb = direct_sum(rescale(k3, -1), make_standard("<1>"))
    w = [0] * 23
    w[0], w[1], w[22] = 1, 3, 2  # h + 2e with h^2 = -6
    wv = amb.vector(w)
    assert norm(wv) == -2
    m = twist(amb, wv)
    assert signature(m) == (21, 2)
    assert not is_even(m)
    assert absdet(m) == 1


def test_twist_rejects_other_norms():
    u = make_standard("U")
    with pytest.raises(LatticeError):
        twist(u, u.vector([1, 2]))


# ---------------------------------------------------------------------------
# characteristic vectors
# ---------------------------------------------------------------------------

def test_characteristic_even_lattice():
    l = from_summands(("U", "E8"))
    w = find_characteristic(l)
    gw = gram_apply(l, w.coords)
    assert all((gw[i] - l.gram[i][i]) % 2 == 0 for i in range(l.rank))


def test_characteristic_odd_rank_one():
    l = make_standard("<1>")
    assert find_characteristic(l).coords == (1,)


def test_characteristic_k4_lattice():
    k3 = from_summands(("U", "U", "U", "E8", "E8"))
    amb = direct_sum(rescale(k3, -1), make_standard("<1>"))
    w = [0] * 23
    w[0], w[1], w[22] = 1, 3, 2
    m = twist(amb, amb.vector(w))
    ch = find_characteristic(m)
    gw = gram_apply(m, ch.coords)
    assert all((gw[i] - m.gram[i][i]) % 2 == 0 for i in range(23))


@st.composite
def _gf2_systems(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    a = draw(st.lists(row, min_size=m, max_size=m))
    b = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
    return a, b


@settings(max_examples=300, deadline=None)
@given(_gf2_systems())
def test_gf2_solve_matches_brute_force(system):
    a, b = system
    n = len(a[0])

    def image(x):
        return tuple(y % 2 for y in ref.apply(a, x))

    space = list(itertools.product((0, 1), repeat=n))
    target = tuple(y % 2 for y in b)
    solvable = any(image(x) == target for x in space)
    kernel = {x for x in space if not any(image(x))}
    # column c is free iff it lies in the span of the columns before it
    free, span = [], {(0,) * len(a)}
    for c in range(n):
        col = tuple(row[c] % 2 for row in a)
        if col in span:
            free.append(c)
        else:
            span |= {tuple((s + t) % 2 for s, t in zip(v, col)) for v in span}
    x, basis = gf2_solve(a, b)
    if solvable:
        assert x is not None and set(x) <= {0, 1} and image(x) == target
        assert all(x[f] == 0 for f in free)
    else:
        assert x is None
    # the canonical basis: the k-th vector is 1 at the k-th free column and
    # 0 at every other free column
    assert len(basis) == len(free)
    for k, v in enumerate(basis):
        assert [v[f] for f in free] == [int(j == k) for j in range(len(free))]
    spanned = {
        tuple(sum(c * v[i] for c, v in zip(cs, basis)) % 2 for i in range(n))
        for cs in itertools.product((0, 1), repeat=len(basis))
    }
    assert spanned == kernel
    assert 2 ** len(basis) == len(kernel)  # the basis is independent


@st.composite
def _library_size_gf2_systems(draw):
    """Up to 24 rows and 24 columns, wide or tall, fresh rows with entries
    -9..9.  Other rows are sums of earlier rows plus an even vector, so the
    rank drops without the entries shrinking to ±1, and a right-hand side
    drawn at random is then often inconsistent."""
    m, n = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    p = draw(st.sampled_from((0.0, 0.5, 0.9)))  # the share of dependent rows
    rng = random.Random(draw(st.integers(0, 2**32)))
    a = []
    for i in range(m):
        if i and rng.random() < p:
            base = rng.sample(a, rng.randint(1, len(a)))
            a.append([sum(col) + 2 * rng.randint(-4, 4) for col in zip(*base)])
        else:
            a.append([rng.randint(-9, 9) for _ in range(n)])
    b = [rng.randint(-9, 9) for _ in range(m)]
    return a, b


@settings(max_examples=120, deadline=None)
@given(_library_size_gf2_systems())
def test_gf2_solve_at_library_sizes(system):
    a, b = system
    n = len(a[0])
    rank = sum(ref.xor_new(a))
    # column c is free iff it lies in the span of the columns before it
    free = [c for c, new in enumerate(ref.xor_new(zip(*a))) if not new]
    x, kernel = gf2_solve(a, b)

    def image(v):
        return [y % 2 for y in ref.apply(a, v)]

    if sum(ref.xor_new([row + [y] for row, y in zip(a, b)])) == rank:
        assert x is not None and image(x) == [y % 2 for y in b]
        assert [x[f] for f in free] == [0] * len(free)
    else:
        assert x is None
    for k, v in enumerate(kernel):
        assert image(v) == [0] * len(a)
        assert [v[f] for f in free] == [int(j == k) for j in range(len(free))]
    assert len(kernel) == n - rank


# ---------------------------------------------------------------------------
# orthogonal complements
# ---------------------------------------------------------------------------

def test_orthogonal_in_diag():
    l = from_summands(("<2>", "<-2>"))
    sub = orthogonal_sublattice(l, l.vector([0, 1]))
    assert sub.gram == ((2,),)


def test_orthogonal_in_u():
    u = make_standard("U")
    sub = orthogonal_sublattice(u, u.vector([1, -1]))
    assert sub.gram == ((2,),)


def test_orthogonal_rank_drop():
    l = from_summands(("U", "D4"))
    sub = orthogonal_sublattice(l, l.vector([1, -1, 0, 0, 0, 0]))
    assert sub.rank == 5
    with pytest.raises(LatticeError):
        orthogonal_sublattice(l, l.vector([0] * 6))


def test_complement_coordinates_round_trip(catalog):
    """x in v-perp has coordinates (V^-1·x)[1:] in the basis of its Gram, the
    V^-1 rows that ``_complement`` returns and ``verify_flip_cycle`` reads."""
    from k4graph.verification import _congruent, _random_unimodular

    rng = random.Random(1979)
    sources = [v.lminus for v in catalog if v.lminus.rank <= 12][::4]
    lattices = sources + [_congruent(l.gram, _random_unimodular(rng, l.rank)) for l in sources]
    for lat in lattices:
        v = lat.vector([0] * lat.rank)
        while not any(gram_apply(lat, v.coords)):
            v = lat.vector([rng.randint(-2, 2) for _ in range(lat.rank)])
        basis, _ = ref.row_kernel_basis(ref.apply(lat.gram, v.coords))
        sub, vinv = _complement(lat, v)
        for _ in range(3):
            z = lat.vector([rng.randint(-3, 3) for _ in range(lat.rank)])
            x = z.scale(norm(v)) - v.scale(inner(z, v))
            y = tuple(ref.dot(row, x.coords) for row in vinv[1:])
            combo = tuple(sum(c * b[i] for c, b in zip(y, basis)) for i in range(lat.rank))
            assert combo == x.coords
            assert norm(sub.vector(y)) == norm(x)


def test_package_has_no_rational_arithmetic():
    import k4graph

    package = Path(k4graph.__file__).parent
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "Fraction" not in text and "fractions" not in text, path.name


def _defined(tree):
    """(name, statement) for each module-level function, class and constant."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield stmt.name, stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        yield node.id, stmt


def _read(stmt):
    """The identifiers a statement reads: names, attributes, imported names and
    the submodules it imports from."""
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module.rpartition(".")[2]


def test_package_has_no_unread_names():
    """Every module-level function, class and constant of the package is read
    by a statement of the package other than its own definition, exported
    through ``_EXPORTS``, or named in the ``TRACED`` list of
    ``perfbench/tracer.py``; the ``suite_*`` functions are read through
    ``SUITE_NAMES``.  Dunder names are read by the interpreter."""
    import k4graph

    package = Path(k4graph.__file__).parent
    tracer = ast.parse((package.parents[1] / "perfbench" / "tracer.py").read_text("utf-8"))
    traced = next(
        ast.literal_eval(stmt.value) for stmt in tracer.body
        if isinstance(stmt, ast.AnnAssign) and stmt.target.id == "TRACED"
    )
    kept = {name for names in k4graph._EXPORTS.values() for name in names}
    kept |= {name for _, name in traced} | {f"suite_{name}" for name in k4graph.SUITE_NAMES}
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in package.glob("*.py")}
    reads = {stmt: set(_read(stmt)) for tree in trees.values() for stmt in tree.body}
    unread = sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, stmt in _defined(tree)
        if name not in kept and not (name.startswith("__") and name.endswith("__"))
        and not any(name in names for other, names in reads.items() if other is not stmt)
    )
    assert unread == []


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_round_trip():
    l = from_summands(("U", "<2>"), label="demo")
    back = GramLattice.from_json(l.to_json())
    assert back.gram == l.gram
    assert back.label == "demo"


def test_json_big_integers_as_strings():
    big = 2**60
    l = GramLattice.from_rows([[big]])
    payload = json.loads(l.to_json())
    assert payload["gram"][0][0] == str(big)
    assert GramLattice.from_json(l.to_json()).gram == ((big,),)


@pytest.mark.parametrize(
    "text",
    ['{"gram":[[1.5]],"rank":1}', '{"gram":[[true]],"rank":1}', "[]", "{}", "null",
     '{"gram":5,"rank":1}', '{"gram":[[1]],"rank":1,"label":[]}', "{"],
)
def test_json_rejects_malformed_lattice(text):
    with pytest.raises(LatticeError):
        GramLattice.from_json(text)


class _Index:
    """An integer type that is not int: ``operator.index`` takes it."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


_NOT_INTEGERS = [(1.5, "float"), (Fraction(5, 2), "Fraction"), ("1", "str")]


@pytest.mark.parametrize(
    "build",
    [
        lambda x: GramLattice.from_rows([[x, 0], [0, 2]]).gram,
        lambda x: (make_standard("U").vector((x, 2)).coords,),
        lambda x: smith_normal_form([[x, 0], [0, 2]])[1],
    ],
    ids=["from_rows", "vector", "smith_normal_form"],
)
def test_entries_are_exact_integers(build):
    # int() would round 1.5 and 5/2 down and parse "1"; nothing is rounded or parsed
    for x, name in _NOT_INTEGERS:
        with pytest.raises(LatticeError, match=f"expected an exact integer, got {name}$"):
            build(x)
    for x in (True, _Index(1)):  # every integer type is still taken, as an int
        got = build(x)
        assert got == build(1)
        assert type(got[0][0]) is int


def test_gram_given_as_lists_is_frozen():
    # list rows miss the transpose test, so the constructor freezes them as
    # from_rows does: the lattice hashes, and an inexact entry is refused
    lat = GramLattice(2, [[0, 1], [1, 0]])
    frozen = GramLattice.from_rows(((0, 1), (1, 0)))
    assert lat == frozen and hash(lat) == hash(frozen)
    assert signature(lat) == (1, 1)
    for x, name in _NOT_INTEGERS:
        with pytest.raises(LatticeError, match=f"expected an exact integer, got {name}$"):
            GramLattice(2, [[x, 0], [0, 2]])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from(sorted(STANDARD_GRAMS)), max_size=4),
    _grams_and_coords(),
    st.sampled_from((-3, -2, -1, 2, 3)),
)
def test_bound_builders_give_what_the_checked_constructor_gives(names, case, k):
    # the builders that bind their Gram unchecked; the root w = x + e + b·f (+ u)
    # of the U + <1> tail meets the random block, so the twist changes it
    l, x = case
    blocks = from_summands(names)
    amb = direct_sum_all((blocks, l, from_summands(("U", "<1>"))))
    head = [0] * blocks.rank + x
    odd = norm(amb.vector(head + [0, 0, 0])) % 2
    b = (-2 - norm(amb.vector(head + [0, 0, odd]))) // 2
    w = amb.vector(head + [1, b, odd])
    assert norm(w) == -2
    built = [blocks, amb, direct_sum(l, blocks), rescale(amb, k), twist(amb, w)]
    built.append(_complement(amb, w)[0])  # w pairs to 1 with f
    for r in built:
        assert r == GramLattice(r.rank, r.gram, r.label, r.summands)
        assert type(r.gram) is tuple
        assert all(type(row) is tuple and all(type(e) is int for e in row) for row in r.gram)
    assert twist(amb, w).gram != amb.gram


def test_the_checked_constructor_still_checks():
    with pytest.raises(LatticeError, match=r"not symmetric at \(0,1\)"):
        GramLattice(2, ((0, 1), (2, 0)))
    with pytest.raises(LatticeError, match="expected an exact integer, got float$"):
        GramLattice(2, [[1.5, 0], [0, 2]])
    with pytest.raises(LatticeError, match="shape does not match rank"):
        GramLattice(2, ((1, 0), (0,)))


@pytest.mark.parametrize(
    "text",
    ['{"d":1,"qvals":5,"bvals":[[1]]}', '{"d":1,"qvals":[1],"bvals":"x"}', "[]", "null",
     '{"d":2,"qvals":[0,0],"bvals":[[0,0],[]]}', '{"d":1,"qvals":[true],"bvals":[[1]]}'],
)
def test_json_rejects_malformed_form(text):
    with pytest.raises(FormError):
        FiniteQuadraticForm.from_json(text)


_JSON_KEYS = ("gram", "rank", "label", "d", "qvals", "bvals")
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
    | st.sampled_from(["1", "x", "01", "-0", "1e3", str(2**60)]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_JSON_KEYS), inner, max_size=3),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_json_hostile_payloads_raise_documented_error(data):
    # any payload either parses into an object that round-trips, or raises the
    # parser's own error type, never TypeError, KeyError or IndexError; the
    # silent coercions of floats and booleans are pinned by the cases above
    cases = (
        (GramLattice, LatticeError, ("gram", "rank", "label")),
        (FiniteQuadraticForm, FormError, ("d", "qvals", "bvals")),
    )
    for cls, error, keys in cases:
        payload = st.fixed_dictionaries({}, optional={k: _JSON_VALUES for k in keys})
        text = data.draw(st.text(max_size=6) | (_JSON_VALUES | payload).map(json.dumps))
        try:
            obj = cls.from_json(text)
        except error:
            continue
        assert cls.from_json(obj.to_json()) == obj


def test_orthogonal_matches_quartic_reference(catalog):
    # the reference multiplies out the B·G·B^T that the quartic entrywise sum did
    from k4graph.verification import _congruent, _random_unimodular

    rng = random.Random(2006)
    lattices = {}
    for v in catalog:
        for lat in (v.lplus, v.lminus):
            lattices.setdefault(lat.gram, lat)
    sources = list(lattices.values())
    for lat in rng.sample([l for l in sources if l.rank <= 12], 15):
        cong = _congruent(lat.gram, _random_unimodular(rng, lat.rank))
        lattices.setdefault(cong.gram, cong)
    checked = 0
    for lat in lattices.values():
        coords = [0] * lat.rank
        while not any(coords):
            coords = [rng.randint(-2, 2) for _ in range(lat.rank)]
        x = lat.vector(coords)
        assert orthogonal_sublattice(lat, x).gram == ref.complement(lat.gram, coords)[0]
        checked += 1
    assert checked == len(lattices) == 165


# ---------------------------------------------------------------------------
# the Gram kernels against their dense definitions
# ---------------------------------------------------------------------------

def _check_complement(lat, v):
    sub, vinv = _complement(lat, v)
    assert (sub.gram, vinv) == ref.complement(lat.gram, v.coords)
    assert sub.rank == lat.rank - 1


def test_complement_matches_dense_route_on_catalog(catalog):
    rng = random.Random(1968)
    checked = 0
    for c in catalog:
        for lat in (c.lplus, c.lminus):
            n = lat.rank
            # the first and the last basis vector, and two random vectors
            vectors = [lat.basis_vector(0), lat.basis_vector(n - 1)]
            while len(vectors) < 4:
                coords = [rng.randint(-2, 2) for _ in range(n)]
                if any(coords):
                    vectors.append(lat.vector(coords))
            for v in vectors:
                _check_complement(lat, v)
                checked += 1
    assert checked == 4 * 2 * len(catalog)


@given(
    st.lists(st.sampled_from(sorted(STANDARD_GRAMS)), min_size=1, max_size=4),
    st.integers(0, 2**16),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_complement_matches_dense_route_on_congruents(names, seed, data):
    lat = ref.block_sum(names, seed if seed % 2 else None)
    coords = data.draw(st.lists(st.integers(-3, 3), min_size=lat.rank, max_size=lat.rank))
    if not any(coords):  # standard blocks are nondegenerate: only v = 0 pairs trivially
        coords[data.draw(st.integers(0, lat.rank - 1))] = 1
    _check_complement(lat, lat.vector(coords))


@pytest.mark.parametrize(
    "names, coords, gram, vinv",
    [
        # G·v = (2, 0): its one nonzero entry already sits at column 0
        (("<2>", "<-2>"), (1, 0), ((-2,),), [[1, 0], [0, 1]]),
        # G·v = (0, -2): the final swap of columns 0 and 1
        (("<2>", "<-2>"), (0, 1), ((2,),), [[0, 1], [1, 0]]),
        # rank 1: the complement is the zero lattice
        (("<2>",), (3,), (), [[1]]),
        # G·v = (1, 2, 0): one reduction step, then no swap
        (("U", "<2>"), (2, 1, 0), ((-4, 0), (0, 2)), [[1, 2, 0], [0, 1, 0], [0, 0, 1]]),
    ],
)
def test_complement_small_cases(names, coords, gram, vinv):
    lat = from_summands(names)
    sub, got = _complement(lat, lat.vector(coords))
    assert (sub.gram, got) == (gram, vinv) == ref.complement(lat.gram, coords)


def test_complement_errors():
    lat = from_summands(("<2>", "<-2>"))
    with pytest.raises(LatticeError, match="does not live"):
        _complement(lat, from_summands(("U",)).vector([1, 0]))
    with pytest.raises(LatticeError, match="zero vector"):
        _complement(lat, lat.vector([0, 0]))
    degenerate = GramLattice.from_rows([[0, 0], [0, 2]])
    with pytest.raises(LatticeError, match="trivially"):
        _complement(degenerate, degenerate.vector([1, 0]))


@given(
    st.lists(st.sampled_from(sorted(STANDARD_GRAMS)), min_size=1, max_size=4),
    st.integers(0, 2**16),
    st.sampled_from(["zero", "one-hot", "dense", "sparse"]),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_inner_matches_dense_product(names, seed, kind, data):
    """``inner``, ``norm`` and ``gram_apply`` against the dense products, on
    zero, one-hot, dense and sparse x."""
    lat = ref.block_sum(names, seed if seed % 2 else None)
    n = lat.rank
    if kind == "zero":
        x = [0] * n
    elif kind == "one-hot":
        x = [0] * n
        x[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(-5, 5).filter(bool))
    elif kind == "dense":
        x = data.draw(st.lists(st.integers(-5, 5).filter(bool), min_size=n, max_size=n))
    else:
        x = data.draw(st.lists(st.sampled_from((0, 0, 0, -1, 1, 3)), min_size=n, max_size=n))
    y = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    xv, yv = lat.vector(x), lat.vector(y)
    gx, gy = ref.apply(lat.gram, x), ref.apply(lat.gram, y)
    assert inner(xv, yv) == ref.dot(gx, y)
    assert inner(yv, xv) == ref.dot(gy, x)
    assert norm(xv) == ref.dot(gx, x)
    assert gram_apply(lat, x) == gx


def test_twist_matches_entrywise_formula(catalog):
    def formula(l, v):
        gv = gram_apply(l, v.coords)
        s = 1 if norm(v) == -2 else -1
        return tuple(
            tuple(l.gram[i][j] + s * gv[i] * gv[j] for j in range(l.rank)) for i in range(l.rank)
        )

    rng = random.Random(2014)
    checked = 0
    for c in catalog:
        for lat in (c.lplus, c.lminus):
            n = lat.rank
            # basis roots, and sums of two basis vectors that pair nontrivially
            candidates = [lat.basis_vector(i) for i in range(n)] + [
                lat.basis_vector(i) + lat.basis_vector(j)
                for i in range(n)
                for j in range(i + 1, n)
                if lat.gram[i][j]
            ]
            roots = [v for v in candidates if norm(v) in (2, -2)]
            for v in rng.sample(roots, min(3, len(roots))):
                t = twist(lat, v)
                assert t.gram == formula(lat, v)
                # a root orthogonal to v keeps its square and twists the twisted Gram
                w = next((w for w in roots if w != v and inner(w, v) == 0), None)
                if w is not None:
                    tw = t.vector(w.coords)
                    assert norm(tw) == norm(w)
                    assert twist(t, tw).gram == formula(t, tw)
                    checked += 1
    assert checked > 100

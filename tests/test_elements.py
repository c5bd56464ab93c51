import contextlib
import random
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k4graph import (
    ElementClass,
    LatticeError,
    SearchBudgetError,
    WitnessError,
    classify_element,
    construct_witness,
    elements,
    exists_class,
    enumerate_vectors,
    make_standard,
    norm,
    orthogonal_sublattice,
    search_witness,
)
from k4graph.catalog import SQUARES, _reach
from k4graph.cli import main
from k4graph.elements import (
    RESTRICT_RANK, _SearchState, _block_data, _block_table, _block_vectors, _fits, _odd_bumps,
    _search_blocks, _value_order, _wu_parities,
)
from k4graph.graph_checks import find_flip_triple
from k4graph.lattice import STANDARD_GRAMS, GramLattice, from_summands, gram_apply
from k4graph.verification import _congruent, _random_unimodular

import reference as ref


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_wu_vector(catalog):
    v = catalog.by_id("[7S]")
    x = v.lminus.vector([1, 1, 1, 1, 1])
    assert norm(x) == -2
    assert classify_element(v.lminus, x) is ElementClass.WU


def test_classify_odd_in_u():
    u = make_standard("U")
    assert classify_element(u, u.vector([1, 0])) is ElementClass.ODD


def test_classify_even_non_wu():
    l = from_summands(("<2>", "<-2>", "<-2>"))
    x = l.vector([1, 1, 0])
    assert classify_element(l, x) is ElementClass.EVEN_NON_WU


def test_classify_sign_invariance(catalog):
    v = catalog.by_id("[S1+9S]")
    for coords in ([1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1],):
        x = v.lminus.vector(coords[: v.lminus.rank])
        assert classify_element(v.lminus, x) is classify_element(v.lminus, -x)


def test_classify_rejects_zero(catalog):
    v = catalog.by_id("[7S]")
    with pytest.raises(LatticeError):
        classify_element(v.lminus, v.lminus.vector([0] * 5))


def test_wu_implies_even_pairings(catalog):
    v = catalog.by_id("[7S]")
    x = v.lminus.vector([1, 1, 1, 1, 1])
    assert all(p % 2 == 0 for p in gram_apply(v.lminus, x.coords))


def test_classify_matches_definition_on_whole_grams(catalog):
    """The catalog L-, a congruent of each and a complement in each (the fresh
    Grams ``verify_flip_cycle`` classifies); the Wu candidates are the parity
    pattern plus twice a vector."""
    rng, seen = random.Random(2006), set()
    for v in catalog:
        lat = v.lminus
        y = lat.vector([rng.randint(3, 7)] + [rng.randint(-2, 2) for _ in range(lat.rank - 1)])
        moved = _congruent(lat.gram, _random_unimodular(rng, lat.rank))
        for l in (lat, moved, orthogonal_sublattice(lat, y)):
            xs = [[rng.randint(-2, 2) for _ in range(l.rank)] for _ in range(6)]
            with contextlib.suppress(LatticeError):
                xs.append(tuple(p + 2 * c for p, c in zip(_wu_parities(l.gram), xs[0])))
            xs = [x for x in xs if any(x)]
            for x, want in zip(xs, ref.classes(l.gram, xs)):
                try:
                    got = classify_element(l, l.vector(x))
                except LatticeError as exc:
                    got = str(exc)
                assert got == want, (v.vid, l.gram, x)
                seen.add(got)
    errors = {"gram matrix is degenerate", "classification needs a 2-periodic discriminant"}
    assert seen == {*ElementClass} | errors


# ---------------------------------------------------------------------------
# existence predicates
# ---------------------------------------------------------------------------

def test_exists_wu_7s(catalog):
    v = catalog.by_id("[7S]")
    assert exists_class(v, 0, ElementClass.WU)
    assert not exists_class(v, 1, ElementClass.WU)


def test_exists_wu_3s(catalog):
    v = catalog.by_id("[3S]")
    assert exists_class(v, 1, ElementClass.WU)
    assert not exists_class(v, 0, ElementClass.WU)


def test_exists_odd_excludes_ks_and_8s1(catalog):
    for n in (0, 1):
        assert not exists_class(catalog.by_id("[8S]_I"), n, ElementClass.ODD)
        for k in range(1, 11):
            assert not exists_class(catalog.by_id(f"[{k}S]"), n, ElementClass.ODD)
        assert exists_class(catalog.by_id("[S1+9S]"), n, ElementClass.ODD)


def test_exists_even_requires_diagonal(catalog):
    v = catalog.by_id("[10S]")  # t = 0
    for n in (0, 1):
        for cls in (ElementClass.WU, ElementClass.EVEN_NON_WU):
            assert not exists_class(v, n, cls)


def test_exists_even_non_wu_gate(catalog):
    # t = 1 with s - t = -1 mod 4 admits Wu only
    v = catalog.by_id("[S2+8S]")
    assert v.diag_t == 1 and (v.diag_s - v.diag_t) % 4 == 3
    assert exists_class(v, 0, ElementClass.WU)
    assert not exists_class(v, 0, ElementClass.EVEN_NON_WU)


def _even_squares_walk(name):
    """(x^2 mod 16, class) over x = 2a + sum b_j lift_j, a and b in {0, 1}.

    These x are one representative of each class of 2L*/4L, and every even x
    lies in one of these classes.  The walk is in Gray-code order: each step adds or removes
    one generator h and updates q_k = x·G·h_k with the precomputed h·G·h_k.
    Since lift_j = 2 g_j, x is Wu iff x·G·lift_j = lift_j·G·lift_j mod 4; the
    walk also keeps x mod 2 and checks that Wu means x = wu_parities mod 2,
    the block-local test the search reads.
    """
    block = make_standard(name)
    gram = block.gram
    r = len(gram)
    lifts = list(ref.discriminant_group(gram).lifts)
    gens = [[2 if i == j else 0 for j in range(r)] for i in range(r)] + lifts
    gg = [[sum(a * b for a, b in zip(row, h)) for row in gram] for h in gens]
    pair = [[sum(a * b for a, b in zip(h, gk)) for gk in gg] for h in gens]
    wu_at = [(r + j, pair[r + j][r + j]) for j in range(len(lifts))]
    masks = [sum((c % 2) << i for i, c in enumerate(h)) for h in gens]
    wu_mask = sum(p << i for i, p in enumerate(_block_data(name).wu_parities))
    on = [False] * len(gens)
    q = [0] * len(gens)
    square = parity = 0
    out = set()
    for step in range(2 ** len(gens)):
        if step:
            k = (step & -step).bit_length() - 1
            sign = -1 if on[k] else 1
            on[k] = not on[k]
            square += 2 * sign * q[k] + pair[k][k]
            q = [a + sign * b for a, b in zip(q, pair[k])]
            parity ^= masks[k]
        wu = all((q[i] - c) % 4 == 0 for i, c in wu_at)
        assert wu == (parity == wu_mask), (name, step)
        out.add((square % 16, ElementClass.WU if wu else ElementClass.EVEN_NON_WU))
    return out


def _odd_squares(name):
    """(x^2 mod 16, ODD) over the odd x of a block.

    In an even block x^2 mod 4 depends only on x mod 2L, and x + 2ku with
    x·u odd reaches x^2 + 0, 4, 8, 12 mod 16, so each odd x mod 2L gives its
    whole class mod 4.  <1> is odd, so it is walked directly over x mod 8.
    """
    gram = make_standard(name).gram
    if name == "<1>":
        return {(x * x % 16, ElementClass.ODD) for x in range(1, 8, 2)}
    out = set()
    for x in product((0, 1), repeat=len(gram)):
        gx = [sum(g * c for g, c in zip(row, x)) for row in gram]
        if any(v % 2 for v in gx):
            sq = sum(a * b for a, b in zip(x, gx))
            out.update(((sq + 4 * k) % 16, ElementClass.ODD) for k in range(4))
    return out


def test_even_squares_tables_are_the_lattice_walk():
    # every SQUARES entry: the even x of the Gray-code walk and the odd x
    assert set(SQUARES) == set(STANDARD_GRAMS)
    for name, table in SQUARES.items():
        assert _even_squares_walk(name) | _odd_squares(name) == table, name


def test_exists_class_matches_diagonal_rule(catalog):
    answers = []
    for v in catalog:
        for n in (0, 1):
            for cls in ElementClass:
                got = exists_class(v, n, cls)
                assert got == ref.diagonal_rule(v, n, cls), (v.vid, n, cls)
                answers.append(got)
    assert (answers.count(True), answers.count(False)) == (252, 198)


def _pairs(masks):
    """The (residue, class) pairs a tuple of per-class masks holds."""
    return {(r, cls) for cls, m in zip(ElementClass, masks) for r in range(16) if m >> r & 1}


def _check_mask_fold(names):
    for i in range(len(names) + 1):  # every suffix, the empty one included
        tail = tuple(names[i:])
        assert _pairs(_reach.__wrapped__(tail)) == ref.frozenset_reach(tail), tail
        for cls in (None, *ElementClass):
            want = ref.frozenset_fits(tail, cls)
            assert _pairs(_fits.__wrapped__(tail, cls)) == want, (tail, cls)


def test_mask_fold_matches_frozenset_fold_on_catalog(catalog):
    for v in catalog:
        _check_mask_fold(v.lminus_summands)
        _check_mask_fold(v.lplus_summands)


@given(st.lists(st.sampled_from(sorted(STANDARD_GRAMS)), max_size=8))
@settings(max_examples=100, deadline=None)
def test_mask_fold_matches_frozenset_fold_on_random_sums(names):
    _check_mask_fold(names)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def test_witness_odd_in_u_block(catalog):
    # L-([S1+9S]) = <2> + U; the witness is (1, 4n-1) inside the U block
    v = catalog.by_id("[S1+9S]")
    x = construct_witness(v, 0, ElementClass.ODD)
    assert x.coords == (0, 1, -1)
    assert norm(x) == -2
    assert classify_element(v.lminus, x) is ElementClass.ODD
    y = construct_witness(v, 1, ElementClass.ODD)
    assert y.coords == (0, 1, 3)
    assert norm(y) == 6


def test_witness_wu_3s_all_odd_coordinates(catalog):
    v = catalog.by_id("[3S]")
    x = construct_witness(v, 1, ElementClass.WU)
    assert norm(x) == 6
    assert all(c % 2 == 1 for c in x.coords)
    assert classify_element(v.lminus, x) is ElementClass.WU


def test_witness_wu_7s(catalog):
    v = catalog.by_id("[7S]")
    x = construct_witness(v, 0, ElementClass.WU)
    assert norm(x) == -2
    assert classify_element(v.lminus, x) is ElementClass.WU


def test_witness_wu_e8_case(catalog):
    # [S4+2S] is the one vertex whose Wu witness runs through <2> + E8
    v = catalog.by_id("[S4+2S]")
    assert "U" not in v.lminus_summands
    for n in (0, 1):
        assert exists_class(v, n, ElementClass.WU)
        x = construct_witness(v, n, ElementClass.WU)
        assert norm(x) == 8 * n - 2
        assert classify_element(v.lminus, x) is ElementClass.WU


def test_witness_requires_existence(catalog):
    with pytest.raises(WitnessError):
        construct_witness(catalog.by_id("[10S]"), 0, ElementClass.ODD)


def test_failed_construction_raises_without_search(catalog, monkeypatch):
    v = next(v for v in catalog if exists_class(v, 0, ElementClass.EVEN_NON_WU))
    monkeypatch.setattr(elements, "_even_witness", lambda v, n: None)
    with pytest.raises(WitnessError, match="construction failed"):
        construct_witness(v, 0, ElementClass.EVEN_NON_WU)


def test_soundness_all_catalog(catalog):
    for v in catalog:
        for n in (0, 1):
            for cls in ElementClass:
                if exists_class(v, n, cls):
                    x = construct_witness(v, n, cls)
                    assert norm(x) == 8 * n - 2
                    assert classify_element(v.lminus, x) is cls


def test_consistency_searches(catalog):
    for v in catalog:
        if v.lminus.rank > 12:
            continue
        for n in (0, 1):
            for cls in ElementClass:
                if not exists_class(v, n, cls):
                    assert search_witness(v.lminus, 8 * n - 2, cls, bound=3) is None


# ---------------------------------------------------------------------------
# bounded search
# ---------------------------------------------------------------------------

def test_search_2u2_finds_nothing():
    lat = from_summands(("U(2)", "U(2)"))
    for cls in ElementClass:
        assert search_witness(lat, -2, cls, bound=4) is None


def test_search_positive_definite_has_no_negative_norms():
    lat = from_summands(("<2>", "<2>"))
    for cls in ElementClass:
        assert search_witness(lat, -2, cls, bound=5) is None


def test_search_finds_wu_vector():
    lat = from_summands(("<2>", "<2>", "<-2>", "<-2>", "<-2>"))
    x = search_witness(lat, -2, ElementClass.WU, bound=2)
    assert x is not None
    assert sorted(abs(c) for c in x.coords) == [1, 1, 1, 1, 1]


def test_search_agrees_with_classify():
    lat = from_summands(("U", "<-2>"))
    for cls in ElementClass:
        x = search_witness(lat, -2, cls, bound=2)
        if x is not None:
            assert norm(x) == -2
            assert classify_element(lat, x) is cls


def _raises_again_when_warm(monkeypatch, lat, budget):
    # the same search, with the block tables it reads already filled
    # without a budget, must still exceed the budget
    monkeypatch.delenv("K4GRAPH_SEARCH_BUDGET")
    assert search_witness(lat, -2, ElementClass.ODD, bound=3) is not None
    misses = _block_table.cache_info().misses
    monkeypatch.setenv("K4GRAPH_SEARCH_BUDGET", budget)
    with pytest.raises(SearchBudgetError):
        search_witness(lat, -2, ElementClass.ODD, bound=3)
    assert _block_table.cache_info().misses == misses


def test_search_budget_error(monkeypatch):
    _block_table.cache_clear()
    monkeypatch.setenv("K4GRAPH_SEARCH_BUDGET", "10")
    lat = from_summands(("U", "U", "U"))
    with pytest.raises(SearchBudgetError):
        search_witness(lat, -2, ElementClass.ODD, bound=3)
    _raises_again_when_warm(monkeypatch, lat, "10")


def test_search_budget_env_override(monkeypatch):
    _block_table.cache_clear()
    monkeypatch.setenv("K4GRAPH_SEARCH_BUDGET", "5")
    lat = from_summands(("U", "U", "U"))
    with pytest.raises(SearchBudgetError):
        search_witness(lat, -2, ElementClass.ODD, bound=3)
    _raises_again_when_warm(monkeypatch, lat, "5")


def test_search_without_summand_structure():
    lat = GramLattice.from_rows([[0, 1], [1, 0]])
    x = search_witness(lat, -2, ElementClass.ODD, bound=2)
    assert x is not None and norm(x) == -2


def test_search_restricts_big_lattices(catalog):
    # rank 20: only the leading blocks within rank 12 are searched
    v = catalog.by_id("[S1]")
    assert v.lminus.rank == 12
    big = catalog.by_id("[10S]").lplus  # rank 20 with summand structure
    hit = search_witness(big, -2, ElementClass.ODD, bound=1)
    assert hit is None or norm(hit) == -2


def test_search_matches_naive_enumeration():
    # differential check of the block-pruned search and of the plain box walk
    # against the reference walk of the box: existence must agree on random
    # small lattices, and the box walk must return the reference's first hit
    names_pool = ["<2>", "<-2>", "U", "U(2)", "D4", "<1>"]
    rng = random.Random(99)
    for _ in range(120):
        names = tuple(rng.choice(names_pool) for _ in range(rng.randrange(1, 4)))
        lat = from_summands(names)
        if lat.rank > 6:
            continue
        raw = GramLattice(lat.rank, lat.gram, lat.label, None)
        target = rng.choice([-2, 6, -4, 4, 2])
        bound = rng.choice([1, 2])
        walk = ref.box_walk(lat.gram, bound)
        for cls in ElementClass:
            via_blocks = search_witness(lat, target, cls, bound=bound)
            via_box = search_witness(raw, target, cls, bound=bound)
            want = next((x for x, got in walk.items() if got == (target, cls)), None)
            assert (via_blocks is None) == (via_box is None), (names, target, bound, cls)
            assert (via_box is None) == (want is None), (names, target, bound, cls)
            if via_box is not None:
                assert via_box.coords == want
            if via_blocks is not None:
                assert norm(via_blocks) == target
                assert classify_element(lat, via_blocks) is cls
                assert walk[via_blocks.coords] == (target, cls)

    # every residue mod 16, odd targets and the zero target included: each
    # target between the box's extreme norms against the reference box walk
    residues = set()
    for names in (("D4",), ("E7",), ("E8",), ("<1>", "E7"), ("<1>", "<-2>", "D4", "U")):
        lat = from_summands(names)
        found = set(ref.box_walk(lat.gram, 1).values())
        norms = [n for n, _ in found]
        for target in range(min(norms) - 1, max(norms) + 2):
            for cls in (None, *ElementClass):
                if cls is None:  # any class: the first vector enumerate_vectors lists
                    hit = next(iter(enumerate_vectors(lat, target, 1, 1)), None)
                else:
                    hit = search_witness(lat, target, cls, bound=1)
                want = target in norms if cls is None else (target, cls) in found
                assert (hit is not None) == want, (names, target, cls)
                if hit is not None:
                    assert norm(hit) == target
                    assert cls is None or classify_element(lat, hit) is cls
                    residues.add(target % 16)
    assert residues == set(range(16))


def test_search_witness_rejects_an_unknown_class(catalog):
    # the string "wu" is not an ElementClass: both entry points reject it,
    # rather than the search answering "no witness within the bound"
    v = catalog.by_id("[S1]")
    with pytest.raises(ValueError, match="unknown class 'wu'"):
        exists_class(v, 0, "wu")
    with pytest.raises(ValueError, match="unknown class 'wu'"):
        search_witness(v.lminus, -2, "wu", bound=1)


def test_enumerate_vectors_deterministic(catalog):
    v = catalog.by_id("[7S]")
    a = enumerate_vectors(v.lminus, -2, 2, 10)
    b = enumerate_vectors(v.lminus, -2, 2, 10)
    assert [x.coords for x in a] == [x.coords for x in b]
    assert all(norm(x) == -2 for x in a)
    assert len(a) == 10


# ---------------------------------------------------------------------------
# integer block walk against the rational reference
# ---------------------------------------------------------------------------

def test_integer_block_walk_matches_fraction_reference():
    # windows as (a, b) on |norm|, oriented by the block's sign, plus one
    # window straddling zero where the cap comes from the far end
    magnitudes = [(0, 0), (2, 2), (0, 4)]
    checked = 0
    for name in STANDARD_GRAMS:
        block = _block_data(name)
        if not (block.neg_definite or block.pos_definite):
            continue
        sign = -1 if block.neg_definite else 1
        windows = [(a, b) if sign > 0 else (-b, -a) for a, b in magnitudes]
        windows.append((-3, 5))
        ldl = ref.fraction_ldl(block)  # once per block, for all of its windows
        for bound in (1, 2, 3):
            for lo, hi in windows:
                for parities in (None, block.wu_parities):
                    ref_state, int_state = _SearchState(), _SearchState()
                    args = (bound, lo, hi, parities)
                    want = list(ref.fraction_block_vectors(block, ldl, *args, ref_state))
                    got = list(_block_vectors(block, *args, int_state))
                    key = (name, *args)
                    assert got == want, key
                    assert int_state.visited == ref_state.visited, key
                    checked += 1
    assert checked == 7 * 3 * 4 * 2


def test_indefinite_block_walk_is_filtered_box():
    # U and U(2) are enumerated outright: the walk yields exactly the box
    # points in _value_order that pass the parity filter and the norm window,
    # with one tick per point that passes the parity filter; the window
    # (-64, 64) holds every norm of both boxes up to bound 4
    for name in ("U", "U(2)"):
        block = _block_data(name)
        g = block.gram
        for bound in (1, 2, 3, 4):
            for lo, hi in ((0, 0), (-2, -2), (-4, 4), (2, 8), (-64, 64)):
                for parities in (None, block.wu_parities, (1, 0)):
                    passed = [
                        x for x in product(_value_order(bound), repeat=2)
                        if parities is None or all((c - p) % 2 == 0 for c, p in zip(x, parities))
                    ]
                    want = []
                    for x in passed:
                        n = sum(x[i] * g[i][j] * x[j] for i in range(2) for j in range(2))
                        if lo <= n <= hi:
                            want.append((x, n))
                    state = _SearchState()
                    key = (name, bound, lo, hi, parities)
                    assert list(_block_vectors(block, bound, lo, hi, parities, state)) == want, key
                    assert state.visited == len(passed), key


# ---------------------------------------------------------------------------
# shared block tables
# ---------------------------------------------------------------------------

def _searched_blocks(lat):
    names, rank = [], 0
    for name in lat.summands:
        rank += make_standard(name).rank
        if rank > RESTRICT_RANK:
            break
        names.append(name)
    return tuple(names)


def _first_hits(cases, limit=30):
    # (first `limit` vectors, nodes visited) of each block search, in order
    out = []
    for case in cases:
        state = _SearchState()
        out.append((list(islice(_search_blocks(*case, state), limit)), state.visited))
    return out


def test_block_tables_match_uncached_walk(catalog, monkeypatch):
    # every catalog L- x square -2/6 x class (and none) x bound 2/3: the
    # shared tables yield the same vectors and charge the same ticks as the
    # unshared walk, cold and after a shuffled warm-up
    cases = [
        (_searched_blocks(v.lminus), square, cls, bound)
        for v in catalog
        for square in (-2, 6)
        for cls in (None, *ElementClass)
        for bound in (2, 3)
    ]
    with monkeypatch.context() as m:
        m.setattr(elements, "_block_table", ref.UncachedTable)
        want = _first_hits(cases)
    assert sum(len(vecs) for vecs, _ in want) > 1000
    cold = []
    for case in cases:
        elements._block_table.cache_clear()
        cold.extend(_first_hits([case]))
    assert cold == want
    order = list(range(len(cases)))
    random.Random(7).shuffle(order)
    warmup = _first_hits([cases[i] for i in order])
    assert warmup == [want[i] for i in order]
    assert _first_hits(cases) == want


def test_block_table_survives_interrupted_fill(monkeypatch):
    # a fill that exceeds the budget restarts its table; every later search,
    # and a reader paused before the restart, still sees the unshared walk
    case = (("<2>", "E8", "<-2>", "<-2>"), -2, None, 3)
    state = _SearchState()
    with monkeypatch.context() as m:
        m.setattr(elements, "_block_table", ref.UncachedTable)
        want = list(islice(_search_blocks(*case, state), 30))
    assert len(want) == 30
    for budget in range(1, state.visited, max(1, state.visited // 25)):
        elements._block_table.cache_clear()
        with pytest.raises(SearchBudgetError):
            list(islice(_search_blocks(*case, _SearchState(budget=budget)), 30))
        after = _SearchState()
        assert list(islice(_search_blocks(*case, after), 30)) == want
        assert after.visited == state.visited

    elements._block_table.cache_clear()
    window = ("E8", 1, -4, 0, None)
    table = elements._block_table(*window)
    ref_state = _SearchState()
    unshared = list(ref.UncachedTable(*window).read(ref_state))
    assert len(unshared) > 3
    paused_state = _SearchState()
    paused = table.read(paused_state)
    head = [next(paused) for _ in range(3)]
    with pytest.raises(SearchBudgetError):
        list(table.read(_SearchState(budget=head[-1][3])))
    assert table.entries == []
    got = head + list(paused)
    assert [e[:3] for e in got] == [e[:3] for e in unshared]
    assert paused_state.visited == ref_state.visited


def test_search_bound_is_checked(catalog, monkeypatch):
    v = catalog.by_id("[7S]")
    lat = v.lminus
    for bound in (0, -1):
        with pytest.raises(ValueError, match="bound must be >= 1"):
            enumerate_vectors(lat, -2, bound, 5)
        with pytest.raises(ValueError, match="bound must be >= 1"):
            search_witness(lat, -2, ElementClass.ODD, bound)
        # checked before any vector is asked for
        with pytest.raises(ValueError, match="bound must be >= 1"):
            enumerate_vectors(lat, -2, bound, 0)
        with pytest.raises(ValueError, match="bound must be >= 1"):
            find_flip_triple(v, bound=bound, limit=0)
    monkeypatch.setenv("K4GRAPH_SEARCH_BUDGET", "abc")
    with pytest.raises(SearchBudgetError, match="must be an integer"):
        enumerate_vectors(lat, -2, 2, 0)


def test_enumerate_vectors_limit(catalog):
    lat = catalog.by_id("[7S]").lminus
    assert enumerate_vectors(lat, -2, 2, 0) == []
    with pytest.raises(ValueError, match="limit must be >= 0"):
        enumerate_vectors(lat, -2, 2, -1)


def test_odd_bumps_match_product_walk():
    for s in range(5):
        for t in range(5):
            want = {}
            for vals, delta in ref.product_walk_deltas(s, t):
                want.setdefault(delta, []).append(vals)
            for need in range(-200, 201):
                assert list(_odd_bumps(s, t, need)) == want.get(need, []), (s, t, need)


@pytest.mark.parametrize(
    "vid, square, line",
    [
        ("[3S]", "6", "[3S] square=6 wu: yes  witness=[1, 3, 1, 1, 1, 1, 1, 1, 1]"),
        ("[7S]", "-2", "[7S] square=-2 wu: yes  witness=[1, 1, 1, 1, 1]"),
    ],
)
def test_odd_bumps_wu_witness_lines(vid, square, line, capsys):
    assert main(["classify", "--vertex", vid, "--square", square]) == 0
    assert line in capsys.readouterr().out.splitlines()

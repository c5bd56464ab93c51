import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k4graph import (
    Catalog,
    CatalogError,
    GramLattice,
    K3Vertex,
    LatticeError,
    VertexKey,
    brown_invariant,
    build_catalog,
    discriminant_quadratic,
    from_summands,
    parity,
    signature,
)
from k4graph import catalog as catalog_mod, gram, lattice, verification
from k4graph.lattice import _invariants

import reference as ref


def test_cardinality(catalog):
    assert len(catalog) == 75


def test_partition_64_plus_11(catalog):
    principal = [v for v in catalog if v.top.kind == "spheres" and not v.top.subscript_I]
    assert len(principal) == 64
    assert len(catalog) - len(principal) == 11


def test_table2_row_counts(catalog):
    counts = {}
    for v in catalog:
        if v.top.kind == "spheres" and not v.top.subscript_I:
            counts[v.top.p] = counts.get(v.top.p, 0) + 1
    assert [counts[p] for p in range(11)] == [10, 10, 10, 7, 6, 6, 6, 3, 2, 2, 2]


def test_entry_7s(catalog):
    v = catalog.by_id("[7S]")
    assert v.lminus_summands == ("<2>", "<2>", "<-2>", "<-2>", "<-2>")
    assert (v.r, v.d, v.vtype) == (17, 5, "II")
    assert v.kS_flag


def test_entry_8s_type_one(catalog):
    v = catalog.by_id("[8S]_I")
    assert v.lplus_summands == ("U", "D4", "D4", "E8")
    assert v.lminus_summands == ("U(2)", "U(2)")
    assert v.key == VertexKey(18, 4, "I")


def test_entry_s9_type_one_corrected(catalog):
    # L+ must be U(2): rank sum 22 and sigma_+(L+) = 1 force it
    v = catalog.by_id("[S9]_I")
    assert v.lplus_summands == ("U(2)",)
    assert v.lplus.rank + v.lminus.rank == 22
    assert signature(v.lplus) == (1, 1)


def test_rank_sums_and_signatures(catalog):
    for v in catalog:
        assert v.lplus.rank + v.lminus.rank == 22
        assert signature(v.lplus)[0] == 1
        assert signature(v.lminus)[0] == 2


def test_anti_isometry(catalog):
    for v in catalog:
        fp = discriminant_quadratic(v.lplus)
        fm = discriminant_quadratic(v.lminus)
        assert fp.d == fm.d == v.d
        assert parity(fp) == parity(fm)
        assert (brown_invariant(fp) + brown_invariant(fm)) % 8 == 0


def test_milgram_all_eigenlattices(catalog):
    for v in catalog:
        for lat in (v.lplus, v.lminus):
            sp, sm = signature(lat)
            b = brown_invariant(discriminant_quadratic(lat))
            assert (sp - sm - b) % 8 == 0


def test_forms_anti_isometric_via_negation(catalog):
    from k4graph import forms_isomorphic

    v = catalog.by_id("[7S]")
    fp = discriminant_quadratic(v.lplus)
    fm = discriminant_quadratic(v.lminus)
    assert forms_isomorphic(fp, fm.negate())
    assert parity(fm) == "odd"


def test_discriminant_order_equals_det(catalog):
    from k4graph import discriminant_group, smith_normal_form

    for v in catalog:
        for lat in (v.lplus, v.lminus):
            _, d, _ = smith_normal_form(lat.gram)
            det = 1
            for i in range(lat.rank):
                det *= d[i][i]
            assert discriminant_group(lat).order == det


def test_keys_unique(catalog):
    keys = {v.key for v in catalog}
    assert len(keys) == 75


def test_lplus_invariants_distinct(catalog):
    seen = set()
    for v in catalog:
        f = discriminant_quadratic(v.lplus)
        inv = (signature(v.lplus), f.d, parity(f), brown_invariant(f))
        assert inv not in seen
        seen.add(inv)


def test_ks_flags(catalog):
    ks = sorted(v.vid for v in catalog if v.kS_flag)
    assert ks == sorted(f"[{k}S]" for k in range(1, 11))


def _coords(v):
    # (r, d), with every per-vertex invariant (the coordinate formulas on the
    # principal series among them) holding
    assert catalog_mod._validate_vertex(v, (_invariants(v.lplus), _invariants(v.lminus))) == []
    return (v.r, v.d)


def test_coords(catalog):
    assert _coords(catalog.by_id("[10S]")) == (20, 2)
    assert _coords(catalog.by_id("[empty]")) == (10, 10)
    # the even and odd vertices supported on a pair of tori / S2+S share (10, 8)
    assert _coords(catalog.by_id("[2S1]")) == (10, 8)
    assert _coords(catalog.by_id("[S2+S]")) == (10, 8)
    assert catalog.by_id("[2S1]").vtype == "I"
    assert catalog.by_id("[S2+S]").vtype == "II"


def test_lookup(catalog):
    assert catalog.lookup(VertexKey(20, 2, "II")).vid == "[10S]"
    assert catalog.lookup(VertexKey(10, 10, "I")).vid == "[empty]"
    assert catalog.lookup(VertexKey(10, 10, "II")).vid == "[S1]"
    with pytest.raises(CatalogError):
        catalog.lookup(VertexKey(23, 0, "II"))


def test_type_one_census(catalog):
    ones = sorted(v.vid for v in catalog if v.vtype == "I")
    assert len(ones) == 16
    assert "[2S1]" in ones and "[empty]" in ones
    # the five principal vertices with empty diagonal are even involutions
    for vid in ("[S2+9S]", "[S3+6S]", "[S6+5S]", "[S7+2S]", "[S10+S]"):
        assert vid in ones


def test_principal_pairing_consistency(catalog):
    # the L+ rows (one per q) and the L- rows (one per p) are keyed by exactly
    # the q and p values of the placed principal keys, each row a full range
    # 0..max, and the catalog instantiates that (p, q) set
    placed = {
        (top.p, top.q)
        for _, top in catalog_mod.PLACEMENT.values()
        if top.kind == "spheres" and not top.subscript_I
    }
    seen = {
        (v.top.p, v.top.q)
        for v in catalog
        if v.top.kind == "spheres" and not v.top.subscript_I
    }
    assert seen == placed
    assert set(catalog_mod.PRINCIPAL_LPLUS) == {q for _, q in placed}
    assert set(catalog_mod.PRINCIPAL_LMINUS) == {p for p, _ in placed}
    pmax = {q: max(p for p, q2 in placed if q2 == q) for q in catalog_mod.PRINCIPAL_LPLUS}
    qmax = {p: max(q for p2, q in placed if p2 == p) for p in catalog_mod.PRINCIPAL_LMINUS}
    assert placed == {(p, q) for q in pmax for p in range(pmax[q] + 1)}
    assert placed == {(p, q) for p in qmax for q in range(qmax[p] + 1)}


def test_coords_rejects_inconsistent_entry(catalog):
    v = catalog.by_id("[S4+2S]")
    broken = K3Vertex(v.vid, v.top, v.lplus, v.lminus, v.r + 1, v.d, v.vtype)
    key = (v.r + 1, v.d, v.vtype)
    assert f"key {key} is not a K3 key by Nikulin's existence theorem" in (
        catalog_mod._validate_vertex(broken, (_invariants(v.lplus), _invariants(v.lminus)))
    )


def test_mutation_is_detected(monkeypatch):
    # corrupting one table constant must fail validation naming the entry
    bad = dict(catalog_mod.PRINCIPAL_LMINUS)
    bad[4] = (2, ("E7",))  # [S4+...] rows: E8 -> E7 breaks the rank sum
    monkeypatch.setattr(catalog_mod, "PRINCIPAL_LMINUS", bad)
    with pytest.raises(CatalogError, match=r"\[S4"):
        build_catalog()


def test_mutation_in_table3_is_detected(monkeypatch):
    rows = list(catalog_mod.EXCEPTIONAL)
    vid, plus, minus = rows[0]
    rows[0] = (vid, plus, ("U(2)", "U"))  # wrong L- for [8S]_I
    monkeypatch.setattr(catalog_mod, "EXCEPTIONAL", tuple(rows))
    with pytest.raises(CatalogError, match=r"\[8S\]_I"):
        build_catalog()


@pytest.mark.parametrize(
    "renames, named",
    [
        ({"[S3+2S]_I": "[S2+3S]_I"}, "[S2+3S]_I"),
        ({"[8S]_I": "[8S]"}, "[8S]"),
        ({"[2S1]": "[empty]", "[empty]": "[2S1]"}, "[empty]"),
    ],
)
def test_mislabelled_exceptional_id_is_detected(renames, named, monkeypatch):
    # an id must be the one placed at the entry's key, on the exceptional rows too
    rows = tuple((renames.get(vid, vid), *lattices) for vid, *lattices in catalog_mod.EXCEPTIONAL)
    monkeypatch.setattr(catalog_mod, "EXCEPTIONAL", rows)
    with pytest.raises(CatalogError, match=re.escape(f"catalog entry {named}: ")):
        build_catalog()


def test_existence_theorem_gives_the_catalog_keys(catalog):
    assert catalog_mod.K3_KEYS == {v.key for v in catalog}
    assert {vid for vid, _ in catalog_mod.PLACEMENT.values()} == set(catalog.ids())
    # the theorem admits every catalog eigenlattice with its own invariants
    for v in catalog:
        for lat in (v.lplus, v.lminus):
            f = discriminant_quadratic(lat)
            assert catalog_mod._exists(*signature(lat), f.d, parity(f) == "odd")
    # and rules out an even unimodular lattice of signature (2, 0)
    assert not catalog_mod._exists(2, 0, 0, 0)


def test_existence_rule_matches_the_transcribed_theorem():
    # the fold of the block table against Nikulin's six clauses, on every
    # signature of rank 1 to 22 and every discriminant rank a <= 22
    cases = [
        (t_plus, r - t_plus, a, delta)
        for r in range(1, 23) for t_plus in range(r + 1) for a in range(23) for delta in (0, 1)
    ]
    agree = [(catalog_mod._exists(*case), ref.nikulin_exists(*case)) for case in cases]
    assert len(cases) == 12650
    assert [case for case, (got, want) in zip(cases, agree) if got != want] == []
    assert sum(got for got, _ in agree) == 2523


def test_block_table_fold_reaches_the_forms_of_small_rank():
    # (Brown mod 8, parity) of the forms on (Z/2)^a: <2> and <-2> give (1, 1)
    # and (7, 1), U(2) and D4 give (0, 0) and (4, 0)
    assert catalog_mod._FORMS[:4] == [
        {(0, 0)},
        {(1, 1), (7, 1)},
        {(0, 0), (4, 0), (0, 1), (2, 1), (6, 1)},
        {(1, 1), (3, 1), (5, 1), (7, 1)},
    ]


def test_a_placed_cell_without_a_principal_row_is_a_catalog_error(monkeypatch):
    rows = {q: row for q, row in catalog_mod.PRINCIPAL_LPLUS.items() if q != 9}
    monkeypatch.setattr(catalog_mod, "PRINCIPAL_LPLUS", rows)
    with pytest.raises(CatalogError, match=re.escape("catalog cell (p, q) = (0, 9) of [10S]")):
        build_catalog()


def _whole_gram_invariants(lat):
    disc = lattice._two_elementary(lat.gram)
    return signature(lat), disc.rank, disc._delta


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(sorted(gram.STANDARD_GRAMS)), min_size=1, max_size=7))
def test_block_fold_matches_the_whole_gram_kernels(names):
    # signatures and discriminant ranks add over an orthogonal sum, and its
    # parity is the largest of its blocks' (Nikulin 1979, §1)
    folded = catalog_mod._block_invariants(tuple(names))
    assert folded == _whole_gram_invariants(from_summands(names))


def test_block_fold_matches_the_whole_grams_of_every_catalog_lattice(catalog):
    for v in catalog:
        for lat in (v.lplus, v.lminus):
            assert catalog_mod._block_invariants(lat.summands) == _whole_gram_invariants(lat)
        plus, minus = _whole_gram_invariants(v.lplus), _whole_gram_invariants(v.lminus)
        assert (v.d, v.vtype) == (plus[1], "II" if minus[2] else "I")


def test_block_fold_refuses_a_block_that_is_not_2_elementary(monkeypatch):
    # <4> has L*/L = Z/4, so the kernel finds no 2-elementary group and its
    # stated row is None; the fold reads the table, not the Gram
    monkeypatch.setitem(gram.STANDARD_GRAMS, "<4>", ((4,),))
    monkeypatch.setitem(catalog_mod.BLOCK_INVARIANTS, "<4>", None)
    assert lattice._two_elementary(from_summands(("U", "<4>")).gram) is None
    assert catalog_mod._block_invariants(("U", "<4>")) is None
    rows = list(catalog_mod.EXCEPTIONAL)
    vid, plus, minus = rows[-1]
    rows[-1] = (vid, plus + ("<4>",), minus)
    monkeypatch.setattr(catalog_mod, "EXCEPTIONAL", tuple(rows))
    with pytest.raises(CatalogError, match=re.escape(f"catalog entry {vid}: discriminant groups")):
        build_catalog()


def _corrupt(row, field):
    """One stated (signature, a, delta) row with one field changed, or None."""
    (p, n), a, delta = row
    return (((p + 1, n), a, delta), ((p, n), a + 2, delta), ((p, n), a, 1 - delta), None)[field]


@pytest.mark.parametrize(
    "name, field",
    [(name, i % 3) for i, name in enumerate(catalog_mod.BLOCK_INVARIANTS)] + [("E7", 3)],
)
def test_lattice_suite_fails_a_corrupted_block_table_row(monkeypatch, name, field):
    # each row is recomputed from the kernels: the signature, the 2-elementary
    # rank and parity, and Smith |det| = 2^a; every failure names the block
    assert verification.suite_lattice().ok
    row = catalog_mod.BLOCK_INVARIANTS[name]
    monkeypatch.setitem(catalog_mod.BLOCK_INVARIANTS, name, _corrupt(row, field))
    res = verification.suite_lattice()
    assert res.failures and all(f.endswith(f" of {name}") for f in res.failures)


@pytest.mark.parametrize(
    "vid, donor, field, message",
    [
        ("[2S1]", "[S2+S]", "lminus", "parity of discr(L-) disagrees with vertex type"),
        ("[S4+2S]", "[S5+3S]", "lplus", "discriminant ranks disagree: d=5, L+ gives 3, L- gives 5"),
    ],
    ids=["vtype", "d"],
)
def test_catalog_suite_checks_each_vertex_on_its_whole_grams(catalog, vid, donor, field, message):
    # build_catalog reads d and the type off the table rows' block names; the
    # suite reads them off the whole Grams.  Here one lattice keeps the vertex's
    # block names but carries the donor's Gram, so its record disagrees with
    # the Gram alone, and the suite names the vertex, whose key stays placed
    v = catalog.by_id(vid)
    own, gram = getattr(v, field), getattr(catalog.by_id(donor), field).gram
    lattices = {"lplus": v.lplus, "lminus": v.lminus}
    lattices[field] = GramLattice(len(gram), gram, own.label, own.summands)
    broken = K3Vertex(v.vid, v.top, lattices["lplus"], lattices["lminus"], v.r, v.d, v.vtype)
    assert verification.suite_catalog(catalog).ok
    res = verification.suite_catalog(Catalog([broken if u is v else u for u in catalog]))
    assert f"{vid}: {message}" in res.failures


@pytest.mark.parametrize(
    "block, message",
    [
        (((2, 3), (3, 2)), "discriminant groups must be 2-periodic"),
        (((0, 0), (0, 0)), "gram matrix is degenerate"),
    ],
    ids=["det-5", "degenerate"],
)
def test_catalog_suite_fails_a_vertex_whose_lattice_is_not_2_elementary(catalog, block, message):
    # the first U block of L-([2S1]) becomes the even Gram ((2, 3), (3, 2)) of
    # det -5, or zero: the suite names the vertex instead of unpacking the
    # missing invariants, raising on the degenerate Gram or building a
    # discriminant form for it
    v = catalog.by_id("[2S1]")
    gram = [list(row) for row in v.lminus.gram]
    gram[0][:2], gram[1][:2] = block
    lminus = GramLattice(len(gram), gram, v.lminus.label, v.lminus.summands)
    if message == "gram matrix is degenerate":
        with pytest.raises(LatticeError, match=message):
            lattice._invariants(lminus)
    else:
        assert lattice._invariants(lminus) is None
    broken = K3Vertex(v.vid, v.top, v.lplus, lminus, v.r, v.d, v.vtype)
    res = verification.suite_catalog(Catalog([broken]))
    assert res.failures == [f"[2S1]: {message}"]

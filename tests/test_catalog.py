import re

import pytest

from k4graph import (
    CatalogError,
    K3Vertex,
    VertexKey,
    brown_invariant,
    build_catalog,
    discriminant_quadratic,
    parity,
    signature,
)
from k4graph import catalog as catalog_mod


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
    assert catalog_mod._validate_vertex(v) == []
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
        catalog_mod._validate_vertex(broken)
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

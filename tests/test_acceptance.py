"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import json
import time

from k4graph import (
    ElementClass,
    IRR_ID,
    basic_cycles_regular,
    brown_invariant,
    build_catalog,
    classify_element,
    construct_witness,
    discriminant_quadratic,
    exists_class,
    find_flip_triple,
    flip,
    k4_equals_k3_after_swap,
    lattices_equivalent,
    norm,
    parity,
    regular_subgraphs_and_F,
    rescale,
    search_witness,
    signature,
    synthesize_k4_plus,
    verify_flip_cycle,
)
from k4graph.cli import main as cli_main


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_catalog_cardinality():
    t0 = time.monotonic()
    cat = build_catalog()
    elapsed = time.monotonic() - t0
    assert len(cat) == 75
    principal = [v for v in cat if v.top.kind == "spheres" and not v.top.subscript_I]
    assert len(principal) == 64
    assert len(cat) - len(principal) == 11
    assert elapsed < 1.0, f"build_catalog took {elapsed:.2f}s"
    _report(1, f"75 entries (64 principal + 11 exceptional) in {elapsed:.2f}s")


def test_criterion_2_catalog_validity(catalog):
    failures = []
    seen_keys = set()
    for v in catalog:
        if v.lplus.rank + v.lminus.rank != 22:
            failures.append(f"{v.vid}: rank sum")
        if signature(v.lplus)[0] != 1 or signature(v.lminus)[0] != 2:
            failures.append(f"{v.vid}: signature")
        fp = discriminant_quadratic(v.lplus)
        fm = discriminant_quadratic(v.lminus)
        if not (fp.d == fm.d == v.d):
            failures.append(f"{v.vid}: discriminant ranks")
        if parity(fp) != parity(fm):
            failures.append(f"{v.vid}: parity")
        bp, bm = brown_invariant(fp), brown_invariant(fm)
        if (bp + bm) % 8:
            failures.append(f"{v.vid}: Brown sum")
        for lat, b in ((v.lplus, bp), (v.lminus, bm)):
            sp, sm = signature(lat)
            if (sp - sm - b) % 8:
                failures.append(f"{v.vid}: Milgram")
        if v.key in seen_keys:
            failures.append(f"{v.vid}: duplicate key")
        seen_keys.add(v.key)
    assert not failures, failures
    _report(2, "all 75 entries pass rank-sum, signature, anti-isometry, Milgram, keys")


def test_criterion_3_predicates_vs_oracles(catalog):
    t0 = time.monotonic()
    constructed = searched = 0
    for v in catalog:
        for n in (0, 1):
            for cls in ElementClass:
                if exists_class(v, n, cls):
                    x = construct_witness(v, n, cls)
                    assert norm(x) == 8 * n - 2, (v.vid, n, cls)
                    assert classify_element(v.lminus, x) is cls, (v.vid, n, cls)
                    constructed += 1
                elif v.lminus.rank <= 12:
                    assert search_witness(v.lminus, 8 * n - 2, cls, bound=3) is None, (
                        v.vid,
                        n,
                        cls,
                    )
                    searched += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"predicate loop took {elapsed:.1f}s"
    _report(
        3,
        f"{constructed} witnesses confirmed, {searched} none-searches consistent "
        f"in {elapsed:.1f}s",
    )


def test_criterion_4_k3_structure(k3_graph, catalog):
    g = k3_graph
    assert g.is_connected()
    assert all(e.src != e.dst for e in g.edges)
    seen_pairs = set()
    for e in g.edges:
        pair = frozenset((e.src, e.dst))
        assert pair not in seen_pairs
        seen_pairs.add(pair)
    assert all(len(g.out_edges(v)) <= 3 for v in g.vertex_ids)
    terminals = sorted(v for v in g.vertex_ids if not g.out_edges(v))
    assert terminals == ["[10S]", "[8S]_I"]
    for e in g.edges:
        o, t = catalog.by_id(e.src), catalog.by_id(e.dst)
        assert t.r == o.r + 1
        assert t.d == o.d + (1 if e.label.cls is ElementClass.ODD else -1)
        assert t.vtype == ("I" if e.label.cls is ElementClass.WU else "II")
    wu = g.edge("[7S]", ElementClass.WU)
    assert wu is not None and wu.dst == "[8S]_I"
    _report(4, "K3 graph: connected, simple, out-degree <= 3, correct deltas and terminals")


def test_criterion_5_k4_structure(k4_graph, catalog):
    g, data = k4_graph
    assert len(g.vertex_ids) == 75
    incoming = [(e.src, e.label.cls) for e in g.in_edges(IRR_ID)]
    assert incoming == [("[3S]", ElementClass.WU)]
    neg = rescale(data[IRR_ID].mminus, -1)
    assert signature(neg) == (1, 13)
    f = discriminant_quadratic(neg)
    assert f.d == 8 and parity(f) == "even"
    from k4graph.gram import from_summands

    assert lattices_equivalent(neg, from_summands(("U(2)", "D4", "D4", "D4"))) == "yes"
    assert all(lattices_equivalent(neg, v.lplus) == "no" for v in catalog)
    _report(5, "K4 graph: 75 vertices, unique [3S]->irr edge, irr lattice identified")


def test_criterion_6_graph_isomorphism(k3_graph, k4_graph):
    g4, _ = k4_graph
    rep = regular_subgraphs_and_F(k3_graph, g4)
    assert rep.ok and rep.vertices == 74 and rep.edges == 125
    assert k4_equals_k3_after_swap(k3_graph, g4)
    _report(6, "F bijective on 74 vertices and 125 edges; K4 = K3 after the swap")


def test_criterion_7_flip_cycles(catalog, k4_graph):
    g4, _ = k4_graph
    found = 0
    for v in catalog:
        t = find_flip_triple(v, bound=3, limit=40)
        if t is None:
            continue
        found += 1
        f2 = flip(flip(t))
        assert f2.h.coords == t.h.coords and f2.v.coords == t.v.coords
        rep = verify_flip_cycle(v, t, g4, catalog)
        assert rep.ok, (v.vid, rep.identities, rep.detail)
    assert found > 0
    _report(7, f"all four endpoint identities hold at {found} vertices with pairs")


def test_criterion_8_basic_cycles(k3_graph, catalog):
    rep = basic_cycles_regular(k3_graph, catalog)
    assert rep.all_regular
    assert len(rep.cycles) == rep.cycle_rank
    assert rep.incidence_rank == len(rep.cycles)
    _report(
        8,
        f"{len(rep.cycles)} basic cycles, all regular, full rational rank "
        f"(= |E|-|V|+1 = {rep.cycle_rank})",
    )


def test_criterion_9_synthesis(catalog):
    from k4graph.gram import direct_sum, from_summands, is_even, make_standard
    from k4graph.lattice import twist

    count = 0
    for v in catalog:
        for cls in ElementClass:
            if exists_class(v, 1, cls):
                h = construct_witness(v, 1, cls)
                m = synthesize_k4_plus(v, h)  # postconditions checked inside
                assert signature(m) == (v.lminus.rank, 1)
                count += 1
    k3_lat = from_summands(("U", "U", "U", "E8", "E8"))
    amb = direct_sum(rescale(k3_lat, -1), make_standard("<1>"))
    w = [0] * 23
    w[0], w[1], w[22] = 1, 3, 2
    wv = amb.vector(w)
    assert norm(wv) == -2
    m = twist(amb, wv)
    assert signature(m) == (21, 2) and not is_even(m)
    from k4graph import smith_normal_form

    _, d, _ = smith_normal_form(m.gram)
    assert all(d[i][i] == 1 for i in range(23))
    _report(9, f"M+ postconditions hold for {count} pairs; K4 lattice is odd unimodular (21,2)")


def test_criterion_10_determinism(tmp_path):
    blobs = []
    for name in ("one.json", "two.json"):
        path = tmp_path / name
        code = cli_main(["build", "--graph", "k4", "--format", "json", "--out", str(path)])
        assert code == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    payload = json.loads(blobs[0])
    assert payload["schema"] == "k4graph/1"
    _report(10, "two k4 JSON builds are byte-identical")

import json
import re

import pytest

from k4graph import (
    ElementClass,
    FlipTriple,
    IRR_ID,
    LatticeError,
    basic_cycles_regular,
    brown_invariant,
    classify_element,
    construct_flip_triple,
    construct_witness,
    discriminant_quadratic,
    enumerate_vectors,
    exists_class,
    find_characteristic,
    find_flip_triple,
    flip,
    graph_dot,
    graph_json_dict,
    inner,
    k4_equals_k3_after_swap,
    lattices_equivalent,
    make_standard,
    norm,
    parity,
    regular_subgraphs_and_F,
    rescale,
    signature,
    structural_checks,
    synthesize_k4_plus,
    verify_flip_cycle,
)
from k4graph.catalog import K3_KEYS, _exists
from k4graph.graphs import IRR_KEY, IRREGULAR, terminal_key
from k4graph.lattice import GramLattice, direct_sum, from_summands


# ---------------------------------------------------------------------------
# K3 graph
# ---------------------------------------------------------------------------

def test_k3_vertex_and_edge_counts(k3_graph):
    assert len(k3_graph.vertex_ids) == 75
    assert len(k3_graph.edges) == 126


def test_k3_terminal_vertices(k3_graph):
    terminals = sorted(v for v in k3_graph.vertex_ids if not k3_graph.out_edges(v))
    assert terminals == ["[10S]", "[8S]_I"]


def test_k3_edge_deltas(k3_graph, catalog):
    for e in k3_graph.edges:
        o, t = catalog.by_id(e.src), catalog.by_id(e.dst)
        assert t.r == o.r + 1
        if e.label.cls is ElementClass.ODD:
            assert t.d == o.d + 1 and t.vtype == "II"
        elif e.label.cls is ElementClass.WU:
            assert t.d == o.d - 1 and t.vtype == "I"
        else:
            assert t.d == o.d - 1 and t.vtype == "II"


def test_k3_wu_edge_into_8s1(k3_graph):
    e = k3_graph.edge("[7S]", ElementClass.WU)
    assert e is not None and e.dst == "[8S]_I"
    incoming = [(e.src, e.label.cls) for e in k3_graph.in_edges("[8S]_I")]
    assert incoming == [("[7S]", ElementClass.WU)]


def test_k3_out_degree_bound(k3_graph):
    for v in k3_graph.vertex_ids:
        assert len(k3_graph.out_edges(v)) <= 3


def test_edge_lookups_match_a_scan_of_the_edges(k3_graph, k4_graph):
    # the lookups answer from an index built with the graph; a scan of the edge
    # tuple is the reference, also for a second edge of one (source, class),
    # reversed edge order and a graph rebuilt by pickle
    import pickle

    from k4graph import DeformationGraph, GraphEdge

    first = k3_graph.edges[0]
    doubled = DeformationGraph(
        "k3", k3_graph.vertex_ids, k3_graph.edges + (GraphEdge(first.src, "[x]", first.label),)
    )
    reversed_ = DeformationGraph("k4", k4_graph[0].vertex_ids, k4_graph[0].edges[::-1])
    graphs = [k3_graph, k4_graph[0], doubled, reversed_, pickle.loads(pickle.dumps(doubled))]
    for g in graphs:
        for vid in set(g.vertex_ids) | {"[x]", "nowhere"}:
            assert g.out_edges(vid) == tuple(e for e in g.edges if e.src == vid)
            assert g.in_edges(vid) == tuple(e for e in g.edges if e.dst == vid)
            for cls in ElementClass:
                scan = [e for e in g.edges if e.src == vid and e.label.cls is cls]
                assert g.edge(vid, cls) is (scan[0] if scan else None)
    assert doubled.edge(first.src, first.label.cls) is first


def test_k3_edge_class_census(k3_graph):
    by_cls = {}
    for e in k3_graph.edges:
        by_cls[e.label.cls] = by_cls.get(e.label.cls, 0) + 1
    assert by_cls[ElementClass.ODD] == 64
    assert by_cls[ElementClass.WU] == 14
    assert by_cls[ElementClass.EVEN_NON_WU] == 48


def test_k4_edge_class_census(k4_graph):
    g, _ = k4_graph
    wu_sources = sorted(e.src for e in g.edges if e.label.cls is ElementClass.WU)
    assert len(wu_sources) == 14
    assert "[3S]" in wu_sources and "[7S]" not in wu_sources


def test_k3_connected_no_loops(k3_graph):
    assert k3_graph.is_connected()
    assert all(e.src != e.dst for e in k3_graph.edges)


def test_k3_no_multiple_edges(k3_graph):
    seen = set()
    for e in k3_graph.edges:
        pair = frozenset((e.src, e.dst))
        assert pair not in seen
        seen.add(pair)


def test_k3_empty_to_sphere_edge(k3_graph):
    e = k3_graph.edge("[empty]", ElementClass.ODD)
    assert e is not None and e.dst == "[1S]"


def test_k3_edges_realized_by_orthogonal_complements(k3_graph, catalog):
    # dual route: the endpoint of every edge is re-derived from an explicit
    # witness vector by computing its orthogonal complement in L-(origin)
    from k4graph import discriminant_group, orthogonal_sublattice

    for e in k3_graph.edges:
        o, t = catalog.by_id(e.src), catalog.by_id(e.dst)
        v = construct_witness(o, 0, e.label.cls)
        sub = orthogonal_sublattice(o.lminus, v)
        dg = discriminant_group(sub)
        assert dg.rank == t.d and dg.is_two_periodic, (e.src, e.label.cls)
        assert parity(discriminant_quadratic(sub)) == (
            "even" if t.vtype == "I" else "odd"
        ), (e.src, e.label.cls)
        assert lattices_equivalent(sub, t.lminus) != "no", (e.src, e.label.cls)


def test_graph_violations_detect_mutations(catalog, k3_graph, k4_graph):
    from k4graph import DeformationGraph, EdgeLabel, GraphEdge, VertexKey
    from k4graph.graphs import _graph_violations

    g4, _ = k4_graph
    assert _graph_violations(k3_graph, catalog) == []
    assert _graph_violations(g4, catalog) == []
    odd, wu = ElementClass.ODD, ElementClass.WU

    def mutate(g, add=(), drop=(), vertices=()):
        edges = [e for e in g.edges if (e.src, e.label.cls, e.dst) not in drop]
        origin = VertexKey(0, 0, "II")  # the checks do not read the label's origin
        edges += [GraphEdge(src, dst, EdgeLabel(origin, cls, 0)) for src, cls, dst in add]
        return DeformationGraph(g.kind, g.vertex_ids + tuple(vertices), tuple(edges))

    cases = [
        (mutate(k3_graph, add=[("[7S]", odd, "[7S]")]), "graph-loop at [7S]"),
        (mutate(k3_graph, add=[("[empty]", odd, "[2S]")]), "second odd edge from [empty]"),
        (
            mutate(k3_graph, add=[("[empty]", odd, "[2S]")], drop=[("[empty]", odd, "[1S]")]),
            "edge [empty]->[2S] does not end at key",
        ),
        (mutate(g4, add=[("[7S]", odd, IRR_ID)]), "in-edges of irr"),
        (mutate(g4, add=[(IRR_ID, odd, "[1S]")]), "irr has out-edges"),
        (mutate(g4, drop=[("[3S]", wu, IRR_ID)]), "in-edges of irr are []"),
        (mutate(k3_graph, vertices=["[lonely]"]), "graph is not connected"),
        (mutate(g4, add=[("[7S]", odd, "[8S]_I")]), "edge [7S]->[8S]_I leaves the vertex set"),
    ]
    for g, name in cases:
        problems = _graph_violations(g, catalog)
        assert any(name in p for p in problems), (name, problems)


# ---------------------------------------------------------------------------
# K4 graph
# ---------------------------------------------------------------------------

def test_k4_vertex_count(k3_graph, k4_graph):
    g, _ = k4_graph
    assert len(g.vertex_ids) == 75
    assert IRR_ID in g.vertex_ids
    assert "[8S]_I" not in g.vertex_ids
    # the builder derives the order: no square-6 edge touches [8S]_I, and irr,
    # the terminal of [3S]'s Wu edge, comes after the catalog ids
    assert g.vertex_ids == tuple(v for v in k3_graph.vertex_ids if v != "[8S]_I") + (IRR_ID,)


def test_k4_unique_irregular_edge(k4_graph):
    g, _ = k4_graph
    incoming = [(e.src, e.label.cls) for e in g.in_edges(IRR_ID)]
    assert incoming == [("[3S]", ElementClass.WU)]
    assert not g.out_edges(IRR_ID)


def test_k4_irregular_lattice(k4_graph, catalog):
    _, data = k4_graph
    neg = rescale(data[IRR_ID].mminus, -1)
    assert signature(neg) == (1, 13)
    f = discriminant_quadratic(neg)
    assert f.d == 8 and parity(f) == "even"
    assert lattices_equivalent(neg, from_summands(("U(2)", "D4", "D4", "D4"))) == "yes"
    for v in catalog:
        assert lattices_equivalent(neg, v.lplus) == "no"


def test_irregular_key_must_not_be_a_k3_key(catalog, monkeypatch):
    from k4graph import StructuralError, build_k4_graph, graphs

    monkeypatch.setattr(graphs, "K3_KEYS", graphs.K3_KEYS | {IRR_KEY})
    with pytest.raises(StructuralError, match=re.escape("irr: (14, 8, 'I') must not be a K3 key")):
        build_k4_graph(catalog)


@pytest.mark.parametrize(
    "vid, cls, exists, message",
    [
        ("[8S]_I", ElementClass.EVEN_NON_WU, True, "extra ['[8S]_I'], missing []"),
        ("[7S]", ElementClass.WU, True, "extra ['[8S]_I'], missing []"),
        ("[3S]", ElementClass.WU, False, "extra [], missing ['irr']"),
    ],
    ids=["8S_I-gains-a-class", "7S-gains-wu", "3S-loses-wu"],
)
def test_k4_swap_is_checked_against_its_statement(catalog, monkeypatch, vid, cls, exists, message):
    from k4graph import StructuralError, build_k4_graph, graphs

    real = graphs.exists_class
    monkeypatch.setattr(
        graphs,
        "exists_class",
        lambda v, n, c: exists if (v.vid, n, c) == (vid, 1, cls) else real(v, n, c),
    )
    swap = "k4: the derived vertices differ from the swap in IRREGULAR: "
    with pytest.raises(StructuralError, match=re.escape(swap + message)):
        build_k4_graph(catalog)


def test_k4_regular_vertex_lattices(k4_graph, catalog):
    _, data = k4_graph
    for vid, entry in data.items():
        if vid == IRR_ID:
            continue
        v = catalog.by_id(vid)
        assert entry.mminus.gram == rescale(v.lplus, -1).gram


def test_k4_irregular_edge_drops_d_by_one(k4_graph, catalog):
    g, _ = k4_graph
    e = g.edge("[3S]", ElementClass.WU)
    assert e is not None and e.dst == IRR_ID
    # d drops by one along the Wu edge: d([3S]) = 9 gives d = 8 at irr
    assert catalog.by_id("[3S]").d == 9


# ---------------------------------------------------------------------------
# the isomorphism F and the one-edge swap
# ---------------------------------------------------------------------------

def test_f_is_a_bijection(k3_graph, k4_graph):
    g4, _ = k4_graph
    rep = regular_subgraphs_and_F(k3_graph, g4)
    assert rep.ok
    assert rep.vertices == 74
    assert rep.edges == 125


def test_k4_is_k3_after_swap(k3_graph, k4_graph):
    g4, _ = k4_graph
    assert k4_equals_k3_after_swap(k3_graph, g4)


def test_existence_theorem_derives_both_edge_sets(catalog, k3_graph, k4_graph):
    # an edge (c, cls) exists iff its terminal key is a K3 key and c is type II
    # or cls is odd: exactly the K3 edges, and the K4 edges but for the swap
    rule = {
        (c.vid, cls, catalog.lookup(terminal_key(c.key, cls)).vid)
        for c in catalog
        for cls in ElementClass
        if terminal_key(c.key, cls) in K3_KEYS and (c.vtype == "II" or cls is ElementClass.ODD)
    }
    k3 = {(e.src, e.label.cls, e.dst) for e in k3_graph.edges}
    k4 = {(e.src, e.label.cls, e.dst) for e in k4_graph[0].edges}
    assert len(k3) == 126 and rule == k3
    assert rule ^ k4 == {IRREGULAR["k3"], IRREGULAR["k4"]}
    # [3S] Wu ends at the irregular key; its L+ exists, and its L- of signature
    # (2, 6) fails only "delta = 0 and a = r imply sigma = 0 mod 8"
    assert terminal_key(catalog.by_id("[3S]").key, ElementClass.WU) == IRR_KEY
    r, a, _ = IRR_KEY
    assert _exists(1, r - 1, a, 0) and not _exists(2, 20 - r, a, 0)
    t_plus, t_minus = 2, 20 - r
    sigma = (t_plus - t_minus) % 8
    assert a == t_plus + t_minus and sigma == 4
    # the other five hold: a <= rank, a = rank mod 2, sigma = 0 mod 4, and a > 2
    assert sigma % 4 == 0 and a > 2


# ---------------------------------------------------------------------------
# flips
# ---------------------------------------------------------------------------

def test_flip_algebra(catalog):
    v = catalog.by_id("[7S]")
    t = find_flip_triple(v, bound=2, limit=20)
    assert t is not None
    f = flip(t)
    assert norm(f.h) == 6 and norm(f.v) == -2 and inner(f.h, f.v) == 0
    f2 = flip(f)
    assert f2.h.coords == t.h.coords and f2.v.coords == t.v.coords


def test_flip_class_correspondence(catalog):
    v = catalog.by_id("[S1+8S]")
    t = find_flip_triple(v, bound=3, limit=40)
    f = flip(t)
    assert classify_element(v.lminus, f.h) is classify_element(v.lminus, t.v)
    assert classify_element(v.lminus, f.v) is classify_element(v.lminus, t.h)


def test_flip_pair_census(catalog):
    # the positive-definite and 4-divisible eigenlattices admit no pairs in
    # the bound-3 window; short rank-3 ones miss them too
    missing = [v.vid for v in catalog if find_flip_triple(v, bound=3, limit=40) is None]
    assert missing == ["[10S]", "[9S]", "[S1+9S]", "[8S]_I"]


def test_flip_triple_validation(catalog):
    v = catalog.by_id("[7S]")
    h = v.lminus.vector([2, 0, 0, 1, 0])
    bad_v = v.lminus.vector([1, 1, 1, 1, 1])  # not orthogonal to h
    assert norm(h) == 6
    with pytest.raises(LatticeError):
        FlipTriple(h, bad_v)


def test_flip_cycles_verify(catalog, k4_graph):
    g4, _ = k4_graph
    found = verified = 0
    for v in catalog:
        t = find_flip_triple(v, bound=3, limit=40)
        if t is None:
            continue
        found += 1
        rep = verify_flip_cycle(v, t, g4, catalog)
        assert rep.ok, (v.vid, rep.identities, rep.detail)
        verified += 1
    assert found == verified > 0


def _eager_flip_triple(v, bound, limit):
    # test-only reference: the full list of square -2 vectors comes first
    from itertools import islice

    from k4graph.elements import _search

    l = v.lminus
    ws = enumerate_vectors(l, -2, bound, limit)
    for h in islice(_search(l, 6, None, bound), limit):
        for w in ws:
            if inner(h, w) == 0:
                return FlipTriple(h, w)
    return None


def test_flip_triple_matches_eager_partner_list(catalog):
    found = 0
    for v in catalog:
        got = find_flip_triple(v, bound=3, limit=40)
        want = _eager_flip_triple(v, 3, 40)
        if want is None:
            assert got is None, v.vid
            continue
        found += 1
        assert (got.h.coords, got.v.coords) == (want.h.coords, want.v.coords), v.vid
    assert found == 71


def test_flip_triple_checks_bound_and_limit(catalog):
    v = catalog.by_id("[7S]")
    for bound in (0, -1):
        with pytest.raises(ValueError, match="bound must be >= 1"):
            find_flip_triple(v, bound=bound)
    with pytest.raises(ValueError, match="limit must be >= 0"):
        find_flip_triple(v, limit=-1)
    assert find_flip_triple(v, limit=0) is None


def test_flip_vacuous_on_positive_definite(catalog):
    assert find_flip_triple(catalog.by_id("[10S]"), bound=3, limit=10) is None


def test_flipped_triple_verifies_same_cycle(catalog, k4_graph):
    # the flip reverses the orientation of the quadrilateral, which therefore
    # verifies from the flipped triple as well
    g4, _ = k4_graph
    for vid in ("[7S]", "[S1+8S]", "[S2+5S]_I"):
        v = catalog.by_id(vid)
        t = find_flip_triple(v, bound=3, limit=40)
        assert t is not None
        assert verify_flip_cycle(v, t, g4, catalog).ok
        assert verify_flip_cycle(v, flip(t), g4, catalog).ok


_NO_FLIP_PAIR = {"[10S]", "[9S]", "[S1+9S]", "[8S]_I"}


def test_constructed_flip_pairs_match_search_and_census(catalog, k3_graph):
    # a pair exists at c iff some K3 edge c -> t has a square 6 element in L-(t)
    built = {v.vid for v in catalog if construct_flip_triple(v) is not None}
    searched = {v.vid for v in catalog if find_flip_triple(v, bound=3, limit=40) is not None}
    census = {
        e.src for e in k3_graph.edges
        if any(exists_class(catalog.by_id(e.dst), 1, cls) for cls in ElementClass)
    }
    assert built == searched == census == set(catalog.ids()) - _NO_FLIP_PAIR
    assert len(built) == 71


def test_constructed_flip_pairs_verify(catalog, k4_graph):
    g4, _ = k4_graph
    for v in catalog:
        t = construct_flip_triple(v)
        if t is None:
            continue
        f = flip(t)
        assert verify_flip_cycle(v, t, g4, catalog).ok, v.vid
        assert verify_flip_cycle(v, f, g4, catalog).ok, v.vid
        f2 = flip(f)
        assert (f2.h.coords, f2.v.coords) == (t.h.coords, t.v.coords), v.vid
    # U + U(2): v = (1, -1) in U, and h takes (1, 1) from both blocks
    t = construct_flip_triple(catalog.by_id("[S1+8S]_I"))
    assert (t.h.coords, t.v.coords) == ((1, 1, 1, 1), (1, -1, 0, 0))


def test_suite_graphs_names_a_vertex_the_construction_misses(catalog, monkeypatch):
    from k4graph import graphs
    from k4graph.verification import suite_graphs

    # without U's part orthogonal to its root, U + U(2) (+ E8(2)) reach no 6
    monkeypatch.setitem(graphs._FLIP_PERP, "U", ())
    res = suite_graphs(catalog)
    assert [f for f in res.failures if "flip pair" in f] == [
        f"{vid}: flip pair not constructed, but the K3-edge census has one"
        for vid in ("[S1+8S]_I", "[empty]")
    ]


def test_suite_graphs_names_a_pair_the_census_rules_out(catalog, monkeypatch):
    from k4graph import elements, verification

    # the K3 edges of [7S] end at [8S] and at [8S]_I, whose U(2) + U(2) has no
    # square 6 element; hiding those of [8S] leaves the census no pair at [7S]
    # (verification reads exists_class from the elements module at each call)
    real = elements.exists_class
    monkeypatch.setattr(
        elements, "exists_class", lambda t, n, cls: t.vid != "[8S]" and real(t, n, cls)
    )
    res = verification.suite_graphs(catalog)
    assert [f for f in res.failures if "flip pair" in f] == [
        "[7S]: flip pair constructed, but the K3-edge census proves none"
    ]


# ---------------------------------------------------------------------------
# basic cycles
# ---------------------------------------------------------------------------

def test_basic_cycles(k3_graph, catalog):
    rep = basic_cycles_regular(k3_graph, catalog)
    assert rep.all_regular
    assert len(rep.cycles) == rep.cycle_rank == 52
    assert rep.incidence_rank == 52
    assert set(rep.incidence_divisors) == {1}


@pytest.mark.parametrize(
    "rows",
    [
        [[2, 4], [1, 2]],  # rank 1: one zero invariant factor
        [[0, 0, 0]],
        [[1, -1, 0, 0], [0, 1, -1, 0], [-1, 0, 1, 0]],  # a closed cycle: rank 2
        [[2, 0], [0, 6], [4, 0]],
    ],
)
def test_snf_divisors_read_the_smith_diagonal(rows):
    from k4graph.finite_forms import smith_normal_form
    from k4graph.graphs import _snf_divisors

    _, d, _ = smith_normal_form(rows)
    diagonal = [d[i][i] for i in range(min(len(d), len(d[0])))]
    assert _snf_divisors(rows) == tuple(x for x in diagonal if x)


def test_basic_cycle_membership(k3_graph, catalog):
    rep = basic_cycles_regular(k3_graph, catalog)
    origins = {c.origin for c in rep.cycles}
    # a vertex without odd edges contributes no basic cycle
    assert "[7S]" not in origins
    assert "[10S]" not in origins
    # a vertex with odd and both kinds of even edges contributes two
    both = [c for c in rep.cycles if c.origin == "[S1+3S]"]
    assert len(both) == 2


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def test_synthesize_all_square6_classes(catalog):
    # M_+ comes on -L_-'s blocks reordered, those h misses first; against the
    # twist on L_-'s own basis it has the same signature, parity and
    # discriminant rank, and the missed blocks stay diagonal, one block each
    from k4graph.lattice import STANDARD_GRAMS, _split, _two_elementary, is_even, twist

    count = 0
    for v in catalog:
        for cls in ElementClass:
            if exists_class(v, 1, cls):
                h = construct_witness(v, 1, cls)
                m = synthesize_k4_plus(v, h)
                assert signature(m) == (v.lminus.rank, 1)
                amb = direct_sum(rescale(v.lminus, -1), make_standard("<1>"))
                own = twist(amb, amb.vector(tuple(h.coords) + (2,)))
                assert signature(m) == signature(own) and is_even(m) == is_even(own)
                assert _two_elementary(m.gram).rank == _two_elementary(own.gram).rank
                missed, off = [], 0
                for name in v.lminus_summands:
                    width = len(STANDARD_GRAMS[name])
                    if not any(h.coords[off : off + width]):
                        missed.append(rescale(make_standard(name), -1).gram)
                    off += width
                assert _split(m.gram)[:-1] == tuple(missed)
                count += 1
    assert count == 126


def test_synthesize_rejects_wrong_square(catalog):
    v = catalog.by_id("[S1+9S]")
    bad = construct_witness(v, 0, ElementClass.ODD)  # square -2
    with pytest.raises(LatticeError):
        synthesize_k4_plus(v, bad)


def test_synthesize_names_a_non_2_elementary_m_plus(catalog, monkeypatch):
    # a twist that lands on an odd lattice of signature (rank L-, 1) and det -3
    from k4graph import StructuralError, graph_checks

    v = catalog.by_id("[S1+9S]")
    h = construct_witness(v, 1, ElementClass.ODD)
    diag = (1,) * (v.lminus.rank - 1) + (3, -1)
    fake = GramLattice.from_rows(
        [[x if i == j else 0 for j in range(len(diag))] for i, x in enumerate(diag)]
    )
    monkeypatch.setattr(graph_checks, "twist", lambda l, w: fake)
    with pytest.raises(StructuralError, match="not 2-elementary"):
        synthesize_k4_plus(v, h)


def test_synthesize_optional_brown_check(catalog):
    # van der Blij congruence sigma - w_c^2 = Brown mod 8 for the odd lattice
    # M_+, with the form built from a characteristic vector of M_+ itself
    for vid in ("[S1+9S]", "[3S]", "[empty]"):
        v = catalog.by_id(vid)
        for cls in ElementClass:
            if exists_class(v, 1, cls):
                mplus = synthesize_k4_plus(v, construct_witness(v, 1, cls))
                wc = find_characteristic(mplus)
                form = discriminant_quadratic(mplus, wc)
                sp, sm = signature(mplus)
                assert (sp - sm - norm(wc) - brown_invariant(form)) % 8 == 0, (vid, cls)


def test_synthesize_w_and_h_arithmetic(catalog):
    # w = h + 2e and H = h + 3e in (-L_-) + <1>: w^2 = -2, H^2 = 3, w _|_ H
    v = catalog.by_id("[S1+9S]")
    h = construct_witness(v, 1, ElementClass.ODD)
    amb = direct_sum(rescale(v.lminus, -1), make_standard("<1>"))
    w = amb.vector(tuple(h.coords) + (2,))
    big_h = amb.vector(tuple(h.coords) + (3,))
    assert norm(w) == -6 + 4 == -2
    assert norm(big_h) == -6 + 9 == 3
    assert inner(w, big_h) == 0


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def test_structural_checks_all_pass(k3_graph, catalog):
    rep = structural_checks(k3_graph, catalog)
    assert rep.ok
    assert rep.verified == 126
    assert not rep.undecidable


def test_structural_wu_edge_lattices(catalog):
    # along [7S] -> [8S]_I: L-([8S]_I) + <-2> matches L-([7S])
    a = direct_sum(catalog.by_id("[8S]_I").lminus, make_standard("<-2>"))
    assert lattices_equivalent(a, catalog.by_id("[7S]").lminus) == "yes"


def test_structural_odd_edge_lattices(catalog, k3_graph):
    e = k3_graph.edge("[S1+9S]", ElementClass.ODD)
    o, t = catalog.by_id(e.src), catalog.by_id(e.dst)
    assert lattices_equivalent(direct_sum(o.lplus, make_standard("<-2>")), t.lplus) == "yes"


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def test_json_export_schema(k3_graph, k4_graph, catalog):
    g4, _ = k4_graph
    for g in (k3_graph, g4):
        payload = graph_json_dict(g, catalog)
        assert payload["schema"] == "k4graph/1"
        assert payload["kind"] == g.kind
        assert len(payload["vertices"]) == 75
        assert len(payload["edges"]) == len(g.edges)
        assert json.loads(json.dumps(payload)) == payload
    ids = {v["id"] for v in graph_json_dict(g4, catalog)["vertices"]}
    assert IRR_ID in ids


def test_json_export_stable(k4_graph, catalog):
    g4, _ = k4_graph
    a = json.dumps(graph_json_dict(g4, catalog))
    b = json.dumps(graph_json_dict(g4, catalog))
    assert a == b


def test_dot_export(k3_graph, k4_graph, catalog):
    g4, _ = k4_graph
    dot = graph_dot(k3_graph, catalog)
    assert dot.startswith("digraph k3 {")
    assert dot.rstrip().endswith("}")
    assert '"[7S]" -> "[8S]_I" [style=bold];' in dot
    assert 'label="S4+2S"' in dot
    dot4 = graph_dot(g4, catalog)
    assert 'label="K4-irr"' in dot4
    assert "shape=box, style=filled" in dot4
    # type II circles, type I filled boxes
    assert '"[7S]" [label="7S", shape=circle];' in dot
    assert '"[8S]_I" [label="8S_I", shape=box, style=filled];' in dot

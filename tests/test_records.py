"""The record classes keep the semantics of the dataclasses they replace.

Every result and value class of the package is a slotted ``lattice._Record``.
The five that validate their arguments have their own ``__init__``; the rest
are bound by ``_Record.__init__`` from their ``__slots__`` and ``_defaults``.
Each one is checked against a dataclass with the same name and fields:
positional and keyword construction, the defaults, copies, equality, the hash
of the frozen ones, the repr and the refusal to assign.  The binder raises
``TypeError`` where a dataclass's ``__init__`` would.
"""

import copy
import dataclasses
import pickle

import pytest

from k4graph import catalog as C
from k4graph import elements as E
from k4graph import finite_forms as F
from k4graph import graph_checks as GC
from k4graph import graphs as G
from k4graph import lattice as L
from k4graph import verification as V
from k4graph.catalog import CatalogError
from k4graph.finite_forms import FormError
from k4graph.lattice import LatticeError

U = L.make_standard("U")
AMBIENT = L.from_summands(("U", "<-2>"))
KEY = C.VertexKey(10, 8, "II")
LABEL = G.EdgeLabel(KEY, E.ElementClass.ODD, -2)
EDGE = G.GraphEdge("[S1]", "[S2]", LABEL)
TOP = C.TopType("spheres", 3, 2, True)

# class -> (field names in constructor order, one full set of arguments,
# the fewest arguments it takes, the defaults of the fields those leave out)
CASES = {
    L.GramLattice: (
        ("rank", "gram", "label", "summands"),
        (2, U.gram, "U", ("U",)),
        (2, U.gram),
        {"label": "", "summands": None},
    ),
    L.LatticeVector: (("coords", "ambient"), ((1, 2), U), ((1, 2), U), {}),
    L.DiscriminantGroup: (
        ("divisors", "lifts", "duals"),
        ((2,), ((1, 0),), ((0, 1),)),
        ((2,), ((1, 0),), ((0, 1),)),
        {},
    ),
    F.FiniteQuadraticForm: (
        ("d", "qvals", "bvals"),
        (2, (0, 1), ((0, 1), (1, 1))),
        (2, (0, 1), ((0, 1), (1, 1))),
        {},
    ),
    C.TopType: (
        ("kind", "p", "q", "subscript_I"),
        ("spheres", 3, 2, True),
        ("empty",),
        {"p": None, "q": None, "subscript_I": False},
    ),
    C.K3Vertex: (
        ("vid", "top", "lplus", "lminus", "r", "d", "vtype"),
        ("[S3+2S]_I", TOP, U, AMBIENT, 2, 0, "I"),
        ("[S3+2S]_I", TOP, U, AMBIENT, 2, 0, "I"),
        {},
    ),
    E._SearchState: (
        ("visited", "budget"),
        (5, 100),
        (),
        {"visited": 0, "budget": E.DEFAULT_BUDGET},
    ),
    G.EdgeLabel: (
        ("origin", "cls", "square"),
        (KEY, E.ElementClass.WU, 6),
        (KEY, E.ElementClass.WU, 6),
        {},
    ),
    G.GraphEdge: (("src", "dst", "label"), ("a", "b", LABEL), ("a", "b", LABEL), {}),
    G.DeformationGraph: (
        ("kind", "vertex_ids", "edges"),
        ("k3", ("[S1]", "[S2]"), (EDGE,)),
        ("k3", ("[S1]", "[S2]"), (EDGE,)),
        {},
    ),
    G.K4VertexData: (("key", "mminus", "source"), ("irr", U, "irr"), ("irr", U, "irr"), {}),
    GC.FReport: (
        ("vertices", "edges", "bijective", "mismatches"),
        (74, 100, False, ["k3 edge without k4 correspondent"]),
        (74, 100, True),
        {"mismatches": []},
    ),
    GC.FlipTriple: (
        ("h", "v"),
        (AMBIENT.vector((1, 3, 0)), AMBIENT.vector((0, 0, 1))),
        (AMBIENT.vector((1, 3, 0)), AMBIENT.vector((0, 0, 1))),
        {},
    ),
    GC.FlipCycleReport: (
        ("origin", "identities", "detail"),
        ("[S1]", [True, False], ["missing K4 edge"]),
        ("[S1]", [True, False], ["missing K4 edge"]),
        {},
    ),
    GC.BasicCycle: (
        ("origin", "even_cls", "edges_pos", "edges_neg", "regular"),
        ("a", E.ElementClass.WU, (("a", E.ElementClass.ODD),), (("a", E.ElementClass.WU),), True),
        ("a", E.ElementClass.WU, (("a", E.ElementClass.ODD),), (("a", E.ElementClass.WU),), True),
        {},
    ),
    GC.BasicCycleReport: (
        ("cycles", "all_regular", "cycle_rank", "incidence_rank", "incidence_divisors"),
        ([], True, 3, 3, (1, 1, 2)),
        ([], True, 3, 3, (1, 1, 2)),
        {},
    ),
    GC.StructuralReport: (
        ("verified", "undecidable", "failures"),
        (3, ["u"], ["f"]),
        (3,),
        {"undecidable": [], "failures": []},
    ),
    V.SuiteResult: (
        ("name", "failures", "notes"),
        ("lattice", ["f"], ["n"]),
        ("lattice",),
        {"failures": [], "notes": []},
    ),
}

FROZEN = {
    L.GramLattice, L.LatticeVector, L.DiscriminantGroup, F.FiniteQuadraticForm,
    C.TopType, C.K3Vertex, G.EdgeLabel, G.GraphEdge, G.DeformationGraph,
    G.K4VertexData, GC.FlipTriple,
}


def test_every_record_class_is_covered():
    assert len(CASES) == 18 and len(FROZEN) == 11 and FROZEN <= set(CASES)
    records = {
        cls for mod in (L, F, C, E, G, GC, V) for cls in vars(mod).values()
        if isinstance(cls, type) and issubclass(cls, L._Record) and cls is not L._Record
    }
    assert records == set(CASES)


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
def test_construction_and_defaults(cls):
    names, full, fewest, defaults = CASES[cls]
    assert cls.__slots__ == names
    obj = cls(*full)
    assert tuple(getattr(obj, n) for n in names) == full
    assert cls(**dict(zip(names, full))) == obj
    assert not hasattr(obj, "__dict__")
    assert pickle.loads(pickle.dumps(obj)) == obj == copy.deepcopy(obj)
    short = cls(*fewest)
    assert {n: getattr(short, n) for n in names[len(fewest):]} == defaults
    again = cls(*fewest)
    for n, value in defaults.items():  # a list default is fresh per instance
        if isinstance(value, list):
            assert getattr(again, n) is not getattr(short, n)


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
def test_eq_hash_repr_match_a_dataclass(cls):
    names, full, _, _ = CASES[cls]
    frozen = cls in FROZEN
    ref = dataclasses.make_dataclass(cls.__qualname__, names, frozen=frozen)(*full)
    obj = cls(*full)
    assert repr(obj) == repr(ref)
    assert obj == cls(*full) and obj != ref and obj.__eq__(ref) is NotImplemented
    if frozen:
        assert hash(obj) == hash(cls(*full)) == hash(ref)
        with pytest.raises(AttributeError):
            setattr(obj, names[0], full[0])
        with pytest.raises(AttributeError):
            delattr(obj, names[-1])
    else:
        with pytest.raises(TypeError):
            hash(obj)
        setattr(obj, names[0], full[0])
        assert obj == cls(*full)
    with pytest.raises(AttributeError):
        obj.extra = 1


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: L.GramLattice(-1, ()), LatticeError, "rank must be non-negative"),
        (lambda: L.GramLattice(2, ((0, 1),)), LatticeError, "shape does not match"),
        (lambda: L.GramLattice(2, ((0, 1), (1,))), LatticeError, "shape does not match"),
        (lambda: L.GramLattice(3, ((0, 1, 2), (1, 0, 4), (2, 5, 0))), LatticeError,
         r"not symmetric at \(1,2\)"),
        (lambda: L.GramLattice(3, ((0, 1, 2), (5, 0, 4), (3, 4, 0))), LatticeError,
         r"not symmetric at \(0,1\)"),
        (lambda: L.LatticeVector((1,), U), LatticeError, "does not match ambient rank"),
        (lambda: F.FiniteQuadraticForm(1, (), ((1,),)), FormError, "do not match rank"),
        (lambda: F.FiniteQuadraticForm(2, (0, 0), ((0,), (0,))), FormError, "not square"),
        (lambda: F.FiniteQuadraticForm(1, (4,), ((0,),)), FormError, "reduced mod 4"),
        (lambda: F.FiniteQuadraticForm(1, (0,), ((2,),)), FormError, "reduced mod 2"),
        (lambda: F.FiniteQuadraticForm(2, (0, 0), ((0, 1), (0, 0))), FormError,
         "not symmetric"),
        (lambda: F.FiniteQuadraticForm(1, (1,), ((0,),)), FormError, "agree with b"),
        (lambda: C.TopType("spheres", None, 1), CatalogError, "need p >= 0"),
        (lambda: C.TopType("spheres", 1, -1), CatalogError, "need p >= 0"),
        (lambda: C.TopType("torus"), CatalogError, "unknown topological kind 'torus'"),
        (lambda: G.FlipTriple(AMBIENT.vector((1, 3, 0)), U.vector((0, 1))), LatticeError,
         "share one ambient"),
        (lambda: G.FlipTriple(AMBIENT.vector((1, 1, 0)), AMBIENT.vector((0, 0, 1))),
         LatticeError, "h\\^2 = 2 != 6"),
        (lambda: G.FlipTriple(AMBIENT.vector((1, 3, 0)), AMBIENT.vector((1, 3, 0))),
         LatticeError, "v\\^2 = 6 != -2"),
        (lambda: G.FlipTriple(AMBIENT.vector((1, 4, 1)), AMBIENT.vector((0, 0, 1))),
         LatticeError, "not orthogonal"),
    ],
)
def test_init_checks_raise(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_symmetric_gram_given_as_lists_is_accepted():
    # the transpose test fails on lists, so the pairwise walk decides
    assert L.GramLattice(2, [[0, 1], [1, 0]]).rank == 2


# EdgeLabel has no defaults and SuiteResult has two: each meets every kind of bad binding
_KEY_ARGS = (KEY, E.ElementClass.ODD, -2)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: G.EdgeLabel(KEY, E.ElementClass.ODD), "missing field 'square'"),
        (lambda: G.EdgeLabel(*_KEY_ARGS, colour="red"), "unexpected field 'colour'"),
        (lambda: G.EdgeLabel(*_KEY_ARGS, origin=KEY), "repeated field 'origin'"),
        (lambda: G.EdgeLabel(*_KEY_ARGS, 0), "takes 3 fields, got 4"),
        (lambda: V.SuiteResult(failures=[]), "missing field 'name'"),
        (lambda: V.SuiteResult("lattice", extra=[]), "unexpected field 'extra'"),
        (lambda: V.SuiteResult("lattice", [], name="graphs"), "repeated field 'name'"),
        (lambda: V.SuiteResult("lattice", [], [], []), "takes 3 fields, got 4"),
    ],
)
def test_binder_refuses_bad_fields(make, message):
    with pytest.raises(TypeError, match=message):
        make()


def test_binder_takes_keywords_in_any_order():
    assert G.EdgeLabel(square=-2, origin=KEY, cls=E.ElementClass.ODD) == LABEL
    res = V.SuiteResult(notes=["n"], name="lattice")
    assert (res.name, res.failures, res.notes) == ("lattice", [], ["n"])

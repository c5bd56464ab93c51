"""Exact lattice arithmetic and the adjacency graphs of real K3 involutions
and real nonsingular cubic fourfolds.

The submodules load on first use.  Importing the package registers
``gram``, ``lattice``, ``finite_forms``, ``catalog``, ``elements``,
``graphs``, ``graph_checks`` and ``verification`` in ``sys.modules`` through
``importlib.util.LazyLoader``, and each is compiled and executed on the first
access to one of its attributes (``from .catalog import build_catalog`` is
one).  So a ``k4graph`` command executes only the modules it calls, and each
module holds what its commands run: ``catalog`` (and ``build_catalog``)
executes ``gram``, the data model, and ``catalog``; ``build`` and ``export``
add ``graphs``; ``classify`` adds ``lattice``, the exact kernels, and
``elements``; and only ``verify`` executes ``finite_forms`` and
``graph_checks``.  The modules are registered rather than imported inside
functions so that code which looks all eight up in ``sys.modules`` after
``import k4graph.cli`` still finds them.  ``k4graph.cli`` is imported
normally, because ``python -m k4graph.cli`` runs it as ``__main__``.

The public names of the submodules are re-exported through a module
``__getattr__`` (PEP 562): ``from k4graph import search_witness`` loads
``elements`` then.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# The verify suites in run order: ``verification.SUITES`` maps each name to its
# ``suite_<name>`` function, and ``cli`` offers the names without loading it.
SUITE_NAMES = ("lattice", "forms", "catalog", "predicates", "graphs", "synthesis")

# Each submodule, in dependency order, with the public names it re-exports.
_EXPORTS = {
    "gram": """GramLattice LatticeError LatticeVector direct_sum direct_sum_all
        from_summands is_even make_standard rescale""".split(),
    "lattice": """DiscriminantGroup find_characteristic inner lattices_equivalent norm
        orthogonal_sublattice reflect signature twist""".split(),
    "finite_forms": """FiniteQuadraticForm FormError brown_invariant discriminant_group
        discriminant_quadratic forms_isomorphic parity smith_normal_form""".split(),
    "catalog": "Catalog CatalogError K3Vertex TopType VertexKey build_catalog".split(),
    # ElementClass and exists_class live in catalog, but resolve through elements:
    # a caller that reads them first has then compiled elements before its first
    # search, as the benchmark's library workload does
    "elements": """ElementClass SearchBudgetError WitnessError classify_element
        construct_witness enumerate_vectors exists_class search_witness""".split(),
    "graphs": """DeformationGraph EdgeLabel GraphEdge IRR_ID K4VertexData StructuralError
        build_k3_graph build_k4_graph graph_dot graph_json_dict""".split(),
    "graph_checks": """FlipTriple basic_cycles_regular construct_flip_triple
        find_flip_triple flip k4_equals_k3_after_swap regular_subgraphs_and_F
        structural_checks synthesize_k4_plus verify_flip_cycle""".split(),
    "verification": [],
}

_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)


def _register_lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


(gram, lattice, finite_forms, catalog, elements, graphs, graph_checks,
 verification) = map(_register_lazy, _EXPORTS)


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[module], name)
    return value

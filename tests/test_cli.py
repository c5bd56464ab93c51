import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from k4graph import build_catalog
from k4graph.cli import main
from k4graph.verification import SUITES


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_table(capsys):
    code, out, _ = run_cli(["catalog", "--format", "table"], capsys)
    assert code == 0
    rows = [l for l in out.splitlines() if l.startswith("[")]
    assert len(rows) == 75


def test_catalog_json_round_trip(capsys):
    code, out, _ = run_cli(["catalog", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "k4graph/1"
    assert len(payload["catalog"]) == 75
    entry = next(e for e in payload["catalog"] if e["id"] == "[7S]")
    assert (entry["r"], entry["d"], entry["type"]) == (17, 5, "II")
    assert (entry["s"], entry["t"]) == (2, 3)
    assert json.loads(json.dumps(payload)) == payload


def test_catalog_rejects_unknown_format():
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "--format", "xml"])
    assert exc.value.code == 2


def test_build_k4_json(capsys):
    code, out, err = run_cli(["build", "--graph", "k4", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["vertices"]) == 75
    assert "vertices=75 edges=126 irregular=irr" in err


def test_build_k3_dot(capsys):
    code, out, err = run_cli(["build", "--graph", "k3", "--format", "dot"], capsys)
    assert code == 0
    assert out.startswith("digraph k3 {")
    assert out.rstrip().endswith("}")
    assert out.count("->") == 126
    assert "irregular=[8S]_I" in err


def test_build_summaries_differ_in_one_vertex_two_edges(capsys):
    _, out3, _ = run_cli(["build", "--graph", "k3", "--format", "json"], capsys)
    _, out4, _ = run_cli(["build", "--graph", "k4", "--format", "json"], capsys)
    g3, g4 = json.loads(out3), json.loads(out4)
    v3 = {v["id"] for v in g3["vertices"]}
    v4 = {v["id"] for v in g4["vertices"]}
    assert v3 - v4 == {"[8S]_I"}
    assert v4 - v3 == {"irr"}
    e3 = {(e["from"], e["to"], e["class"]) for e in g3["edges"]}
    e4 = {(e["from"], e["to"], e["class"]) for e in g4["edges"]}
    assert e3 - e4 == {("[7S]", "[8S]_I", "wu")}
    assert e4 - e3 == {("[3S]", "irr", "wu")}


# sha256 of stdout, pinned at commit 3b2ff15, before block-diagonal Grams were
# eliminated per block; a kernel change must leave these bytes alone
_STDOUT_SHA256 = {
    "catalog --format json": "48be2b04a1695e1e2ea51c5da0a929c6b471d7c0a78a8db1bede3a7f40916319",
    "catalog --format table": "18889c9f23d4136210564a457b4ba825de9cec6cb32dedd43f6db953ef07ee1d",
    "build --graph k3 --format json": "b569519aa2c14bc726c798898b65061dfc928300d801686cb393f42391092e3d",
    "build --graph k3 --format dot": "08877101ecbdae70360308cacadd0401ff63ae3552ca2631a3e20c72bbda0ff6",
    "build --graph k4 --format json": "9b021c860b290b5023a723c3f5a4d97b7f66509057546d4716a52df8d7d5d5d1",
    "build --graph k4 --format dot": "9b5e9473a3d4917a0c5504ebe05e3ea304ac9cf69762a3b17d20e7e847458aad",
}


@pytest.mark.parametrize("argv", sorted(_STDOUT_SHA256))
def test_output_bytes_are_pinned(argv, capsys):
    code, out, _ = run_cli(argv.split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _STDOUT_SHA256[argv]


# sha256 of the concatenated stdout of constructive `classify` on every vertex,
# squares -2 then 6, pinned at commit 880c876; it reads the residue-mask fold,
# the block-route tables and G·x over the support
_CLASSIFY_SHA256 = "438733b476055c66063aa3af1b8b06e76391808cf7c252485c1954493b5cd18c"


def test_classify_bytes_are_pinned(capsys):
    digest = hashlib.sha256()
    for v in build_catalog():
        for square in ("-2", "6"):
            code, out, _ = run_cli(["classify", "--vertex", v.vid, "--square", square], capsys)
            assert code == 0
            digest.update(out.encode())
    assert digest.hexdigest() == _CLASSIFY_SHA256


def test_export_writes_file(tmp_path, capsys):
    out_file = tmp_path / "k3.json"
    code, out, _ = run_cli(
        ["export", "--graph", "k3", "--format", "json", "--out", str(out_file)], capsys
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["kind"] == "k3"
    assert "vertices=75" in out


def test_determinism_byte_for_byte(tmp_path):
    outputs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code = main(["build", "--graph", "k4", "--format", "json", "--out", str(path)])
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


def test_classify_output(capsys):
    code, out, _ = run_cli(["classify", "--vertex", "[7S]", "--square", "-2"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].endswith("odd: no")
    assert "wu: yes" in lines[1] and "witness=" in lines[1]


def test_classify_with_search_bound(capsys):
    code, out, _ = run_cli(
        ["classify", "--vertex", "[7S]", "--square", "-2", "--bound", "2"], capsys
    )
    assert code == 0
    assert "witness=[1, 1, 1, 1, 1]" in out


def test_classify_bound_says_when_it_found_no_witness(capsys):
    # L- of rank 13 to 15 is searched on its leading blocks only, so the
    # bounded search can miss an element that exists: the line says so
    lines = []
    for vid in ("[S2]", "[S4+2S]", "[S4+S]", "[S4]"):
        for square in ("-2", "6"):
            argv = ["classify", "--vertex", vid, "--square", square, "--bound", "3"]
            code, out, _ = run_cli(argv, capsys)
            assert code == 0 and "witness=None" not in out
            lines += [l for l in out.splitlines() if "yes" in l and "witness=" not in l]
    assert lines == [
        f"{vid} square={square} {cls}: yes  (no witness within --bound 3)"
        for vid, square, cls in [
            ("[S2]", -2, "wu"), ("[S2]", 6, "wu"), ("[S4+2S]", -2, "odd"), ("[S4+2S]", 6, "odd"),
            ("[S4+2S]", 6, "wu"), ("[S4+S]", -2, "odd"), ("[S4+S]", 6, "odd"), ("[S4]", -2, "odd"),
            ("[S4]", 6, "odd"),
        ]
    ]


def test_classify_unknown_vertex(capsys):
    code, _, err = run_cli(["classify", "--vertex", "[99S]", "--square", "-2"], capsys)
    assert code == 2
    assert "unknown vertex" in err


def test_classify_rejects_bad_square():
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--vertex", "[7S]", "--square", "5"])
    assert exc.value.code == 2


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(["verify", "--suite", "catalog"], capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("catalog")
    assert "pass" in out


def test_run_suites_reads_signatures_through_wrappers(monkeypatch):
    # a suite takes the catalog iff its signature has one, also when it is
    # wrapped (as a tracer does) under functools.wraps
    import functools

    from k4graph import verification

    seen = {}
    for name, fn in list(verification.SUITES.items()):
        def wrapper(*args, _fn=fn, _name=name):
            seen[_name] = len(args)
            return _fn(*args)
        monkeypatch.setitem(verification.SUITES, name, functools.wraps(fn)(wrapper))

    def suite_local(*args):
        catalog = verification.SuiteResult("local")  # a local, not a parameter
        seen["local"] = len(args)
        return catalog

    monkeypatch.setitem(verification.SUITES, "local", suite_local)
    results = verification.run_suites(["lattice", "catalog", "local"])
    assert [r.name for r in results] == ["lattice", "catalog", "local"]
    assert all(r.ok for r in results)
    assert seen == {"lattice": 0, "catalog": 1, "local": 0}


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "k4graph.cli", "catalog", "--format", "table"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.count("\n") >= 75


def _fresh_process(code, *args):
    """Run code in a fresh interpreter with this checkout's src first on sys.path."""
    import k4graph

    src = str(Path(k4graph.__file__).resolve().parent.parent)
    code = "import sys; sys.path.insert(0, sys.argv[1])\n" + code
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, src, *args], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# the package's submodules in registration order
_SUBMODULES = (
    "lattice", "finite_forms", "catalog", "elements", "graphs", "graph_checks", "verification"
)


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # every short CLI process pays for what `import k4graph.cli` loads; the seven
    # submodules are registered (loaded lazily), because a benchmark tracer
    # looks them up in sys.modules right after this import
    code = "import k4graph.cli; print(*sorted(m for m in sys.modules if m in sys.argv[2:]))"
    wanted = ["dataclasses", "inspect", "json"] + [f"k4graph.{m}" for m in _SUBMODULES]
    assert _fresh_process(code, *wanted).split() == sorted(wanted[3:])


@pytest.mark.parametrize(
    "argv, executed",
    [
        ("catalog --format json", ""),
        ("classify --vertex [3S] --square 6", "elements"),
        ("classify --vertex [7S] --square -2 --bound 2", "elements"),
        ("build --graph k3 --format dot", "graphs"),
        ("export --graph k4 --out {tmp}/k4.json", "graphs"),
        ("verify --suite lattice", "verification"),
        ("verify --suite forms", "verification"),
        ("verify --suite catalog", "verification"),
        ("verify --suite predicates", "elements verification"),
    ],
)
def test_a_command_executes_only_the_modules_it_calls(argv, executed, tmp_path):
    # type() reads a registered module's class without loading it: it stays a
    # lazy module until the first access to one of its attributes
    code = (
        "import io, types\n"
        "from contextlib import redirect_stdout\n"
        "import k4graph.cli\n"
        "with redirect_stdout(io.StringIO()):\n"
        "    assert k4graph.cli.main(sys.argv[2:]) == 0\n"
        f"names = {_SUBMODULES!r}\n"
        "print(*(n for n in names if type(sys.modules['k4graph.' + n]) is types.ModuleType))\n"
    )
    out = _fresh_process(code, *argv.format(tmp=tmp_path).split())
    # every command executes lattice and catalog; of the commands, only verify
    # executes finite_forms, and only in the suites that call it
    forms = argv.startswith("verify") and "predicates" not in argv
    base = ["lattice", "catalog"] + ["finite_forms"] * forms
    assert out.split() == [n for n in _SUBMODULES if n in base + executed.split()]


@pytest.mark.parametrize("collecting", [True, False])
def test_main_leaves_the_collector_as_it_found_it(collecting, tmp_path):
    # a command runs with the cyclic collector paused; the caller gets back the
    # state it left, after a command, an i/o failure and a usage error alike
    runs = [
        (["verify", "--suite", "lattice"], 0),
        (["catalog", "--out", str(tmp_path / "missing" / "c.txt")], 1),
        (["classify", "--vertex", "[nope]", "--square", "6"], 2),
        (["catalog", "--format", "xml"], SystemExit),
    ]
    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        for argv, expect in runs:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                if expect is SystemExit:
                    with pytest.raises(SystemExit):
                        main(argv)
                else:
                    assert main(argv) == expect
            assert gc.isenabled() is collecting, argv
    finally:
        (gc.enable if was else gc.disable)()


def test_benchmark_tracer_installs_after_the_cli_import():
    # perfbench/tracer.py rebinds the traced functions in all six submodules
    # and in verification.SUITES right after `import k4graph.cli`
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    code = (
        "import io\n"
        "from contextlib import redirect_stdout\n"
        "import k4graph.cli\n"
        "sys.path.insert(0, sys.argv[2])\n"
        "from tracer import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "from k4graph import verification\n"
        "assert verification.SUITES['graphs'].__wrapped__.__name__ == 'suite_graphs'\n"
        "with tracer, redirect_stdout(io.StringIO()):\n"
        "    k4graph.cli.main(['verify', '--suite', 'lattice'])\n"
        "print(tracer.summary()['functions']['verification.suite_lattice']['calls'])\n"
    )
    assert _fresh_process(code, perfbench) == "1\n"


def test_benchmark_tracer_reaches_the_moved_graph_checks():
    # verify reads the flip, synthesis and structural checks through graphs,
    # which forwards them to graph_checks; the tracer rebinds them there only
    # because graph_checks is registered at import.  The counts are the ones
    # the tracer read when the checks lived in graphs itself.
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    code = (
        "import io\n"
        "from contextlib import redirect_stdout\n"
        "import k4graph.cli\n"
        "sys.path.insert(0, sys.argv[2])\n"
        "from tracer import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "with tracer, redirect_stdout(io.StringIO()):\n"
        "    for suite in ('graphs', 'synthesis'):\n"
        "        assert k4graph.cli.main(['verify', '--suite', suite]) == 0\n"
        "calls = {k: v['calls'] for k, v in tracer.summary()['functions'].items()}\n"
        "print(*(calls[n] for n in sys.argv[3:]))\n"
    )
    counts = {
        "graphs.verify_flip_cycle": 71,
        "graphs.synthesize_k4_plus": 126,
        "lattice.twist": 126,
        "finite_forms.lattices_equivalent": 201,
    }
    out = _fresh_process(code, perfbench, *counts)
    assert dict(zip(counts, map(int, out.split()))) == counts


# the names the package exported when it imported its submodules eagerly
_EXPORTED = """
    GramLattice LatticeError LatticeVector direct_sum direct_sum_all find_characteristic
    from_summands inner is_even make_standard norm orthogonal_sublattice reflect rescale
    signature twist DiscriminantGroup FiniteQuadraticForm FormError brown_invariant
    discriminant_group discriminant_quadratic forms_isomorphic lattices_equivalent parity
    smith_normal_form Catalog CatalogError K3Vertex TopType VertexKey build_catalog
    ElementClass SearchBudgetError WitnessError classify_element construct_witness
    enumerate_vectors exists_class search_witness DeformationGraph EdgeLabel FlipTriple
    GraphEdge IRR_ID K4VertexData StructuralError basic_cycles_regular build_k3_graph
    build_k4_graph construct_flip_triple find_flip_triple flip graph_dot graph_json_dict
    k4_equals_k3_after_swap regular_subgraphs_and_F structural_checks synthesize_k4_plus
    verify_flip_cycle
""".split()


def test_package_reexports_every_public_name():
    import k4graph

    assert sorted(k4graph.__all__) == sorted(_EXPORTED)
    namespace = {}
    exec(f"from k4graph import {', '.join(_EXPORTED)}", namespace)
    for name in _EXPORTED:
        module = sys.modules[f"k4graph.{k4graph._ORIGIN[name]}"]
        assert namespace[name] is getattr(k4graph, name) is getattr(module, name)
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        k4graph.nope
    with pytest.raises(ImportError):
        exec("from k4graph import nope", {})


# `verify -h` and the error on an unknown suite, as the parent commit printed
# them (80 columns); the suite names reach argparse without loading verification
_VERIFY_USAGE = """\
usage: k4graph verify [-h]
                      [--suite {catalog,forms,graphs,lattice,predicates,synthesis}]
"""
_VERIFY_HELP = _VERIFY_USAGE + """
options:
  -h, --help            show this help message and exit
  --suite {catalog,forms,graphs,lattice,predicates,synthesis}
                        run a single suite
"""


def test_verify_help_and_unknown_suite_bytes(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr() == (_VERIFY_HELP, "")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    # argparse releases differ in whether they quote the offered choices
    names = ("catalog", "forms", "graphs", "lattice", "predicates", "synthesis")
    error = "k4graph verify: error: argument --suite: invalid choice: 'bogus' (choose from {})\n"
    assert out == ""
    assert err in [
        _VERIFY_USAGE + error.format(", ".join(map(quote, names)))
        for quote in (repr, str)
    ]


def test_json_writer_matches_json_dumps_on_every_payload(capsys):
    # the three JSON payloads of the CLI, read back and written by json.dumps
    for argv in ("catalog --format json", "build --graph k3", "build --graph k4"):
        code, out, _ = run_cli(argv.split(), capsys)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=1) + "\n"


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None)
@given(value=_JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
    from k4graph.cli import _json_text

    assert _json_text(value) == json.dumps(value, indent=1) + "\n"


@pytest.mark.parametrize("bound", ["0", "-1", "x"])
def test_classify_rejects_non_positive_bound(bound, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--vertex", "[7S]", "--square", "-2", "--bound", bound])
    assert exc.value.code == 2
    assert "--bound" in capsys.readouterr().err


# sha256 of the stdout of `verify`, pinned at commit 880c876 (as in CI)
_VERIFY_SHA256 = "d3e437b5fd31ea8e0bcf052359b8eceeefcd4388cd0ee237f600f474737e5db7"


@pytest.mark.parametrize("budget", ["abc", "5"])
def test_verify_ignores_search_budget(budget, monkeypatch, capsys):
    # no suite searches: flip pairs are constructed and their absence is proved
    # by the K3-edge census, so neither a malformed nor a tiny budget reaches
    # verify (the budget errors stay covered by the classify and search tests)
    monkeypatch.setenv("K4GRAPH_SEARCH_BUDGET", budget)
    code, out, err = run_cli(["verify"], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _VERIFY_SHA256


@pytest.mark.parametrize(
    "budget, reason",
    [("abc", "K4GRAPH_SEARCH_BUDGET must be an integer, got 'abc'"), ("1", "budget exceeded")],
)
def test_classify_bound_reports_bad_search_budget(budget, reason, monkeypatch, capsys):
    # a search that cannot run is reported next to its class, and classify exits 0
    monkeypatch.setenv("K4GRAPH_SEARCH_BUDGET", budget)
    argv = ["classify", "--vertex", "[7S]", "--square", "-2", "--bound", "3"]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "[7S] square=-2 odd: no"
    assert all(reason in line and "(search aborted: " in line for line in lines[1:])
    assert len(lines) == 3


def test_predicates_suite_runs_no_search(monkeypatch, capsys):
    # negatives are proved by the block tables and positives by constructed
    # witnesses, so a budget too small for any search does not reach the suite
    monkeypatch.setenv("K4GRAPH_SEARCH_BUDGET", "5")
    assert run_cli(["verify", "--suite", "predicates"], capsys) == (0, "predicates   pass\n", "")


@pytest.mark.parametrize(
    "argv",
    [["verify", "--suite", "predicates"], ["classify", "--vertex", "[9S]", "--square", "-2"]],
)
def test_failed_witness_construction_exits_1(argv, monkeypatch, capsys):
    # a witness the constructions cannot deliver is a verification failure,
    # reported on stderr, not a traceback
    from k4graph import elements

    monkeypatch.setattr(elements, "_even_witness", lambda v, n: None)
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert err == "verification failed: witness construction failed for [9S], n=0, even-non-wu\n"


_JUNK = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=4)


@st.composite
def _cheap_argv(draw, out_dir):
    """A command line from the real subcommands and flags with junk values mixed
    in.  Junk never names a suite, so verify runs one cheap suite at most, and
    every --out is under out_dir."""
    def value(*real):
        return st.one_of(st.sampled_from(real), _JUNK.filter(lambda s: s not in SUITES))

    out = st.sampled_from([str(out_dir / "out.txt"), str(out_dir), str(out_dir / "no" / "out.txt")])
    graph = {"--graph": value("k3", "k4"), "--format": value("json", "dot"), "--out": out}
    flags = {
        "catalog": {"--format": value("json", "table"), "--out": out},
        "build": graph,
        "export": graph,
        "classify": {
            "--vertex": value("[7S]", "[3S]", "[S1]", "[empty]", "[8S]_I"),
            "--square": value("-2", "6"),
            "--bound": st.sampled_from(["1", "2", "3", "0", "-1", "x", ""]),
        },
        "verify": {"--suite": value("lattice", "forms")},
    }
    command = draw(st.one_of(st.sampled_from(sorted(flags)), _JUNK))
    argv = [command]
    if command in flags:
        for flag in draw(st.lists(st.sampled_from(sorted(flags[command])), max_size=4)):
            argv += [flag, draw(flags[command][flag])]
    if command == "verify":
        argv += ["--suite", draw(flags["verify"]["--suite"])]
    return argv


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data(), budget=_JUNK)
def test_cli_exits_with_a_documented_code_on_any_input(data, budget, tmp_path):
    argv = data.draw(_cheap_argv(tmp_path))
    err = io.StringIO()
    with patch.dict(os.environ, {"K4GRAPH_SEARCH_BUDGET": budget}):
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()

"""The mutant list: one-edit corruptions of the package that ``verify`` must
fail by suite, with exit status 1, an empty stderr and no traceback.

Run it from anywhere, with the standard library only::

    python3 tests/mutants.py

Each row names a file under ``src/k4graph``, a text in it, the text that
replaces it, and the suite that must print ``FAIL``.  For each row the script
copies ``src/`` to a temporary directory and refuses the row unless the old
text occurs exactly once.  It then runs ``python -m k4graph.cli verify
--suite <suite>`` and the full ``verify``.  Both must exit 1 with that
suite's FAIL line, write nothing to stderr and show no ``Traceback``, and the
full run must print the line of every suite.  A row whose corruption stops
the catalog from building must also fail the four catalog suites with
``catalog build failed``, and ``k4graph catalog`` must exit 1 with one
``catalog error`` line on stderr.

A survivor is a corruption that ``verify`` does not catch yet.  It is kept on
the list with its reason, must exit 0, and is printed as a survivor, so the
day a suite catches it the script fails and the row moves to the killed ones.

The script exits 0 when every row behaves as listed, 1 otherwise.  It is not
a pytest module and is not part of the tier-1 run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, NamedTuple, Optional

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
from k4graph import SUITE_NAMES  # the suite names, as the unmutated package states them

CATALOG_SUITES = ("catalog", "predicates", "graphs", "synthesis")


class Mutant(NamedTuple):
    file: str  # under src/k4graph
    old: str
    new: str
    suite: Optional[str]  # the suite that must FAIL; None for a survivor
    first: str = ""  # the end of that suite's first failing invariant
    build_fails: bool = False  # the corrupted catalog no longer builds
    why: str = ""  # why a survivor survives


def _survivor(file: str, old: str, new: str, why: str) -> Mutant:
    return Mutant(file, old, new, None, why=why)


_S9 = '("[S9]_I", ("U(2)",), ("U", "U(2)", "E8", "E8")),'
_U2_SQUARES = '"U(2)": frozenset({(0, _N), (0, _W), (4, _N), (8, _N), (12, _N)}),'
_D4_SQUARES = (
    '"D4": frozenset({(0, _W), (4, _N), (8, _W), (12, _N), (2, _O), (6, _O), (10, _O), (14, _O)}),'
)

MUTANTS: List[Mutant] = [
    # the stated block table: a row the kernels recompute otherwise
    Mutant("catalog.py", '"D4": ((0, 4), 2, 0),', '"D4": ((0, 4), 3, 0),', "lattice",
           first=" of D4", build_fails=True),
    Mutant("catalog.py", '"U(2)": ((1, 1), 2, 0),', '"U(2)": ((1, 1), 2, 1),', "lattice",
           first=" of U(2)", build_fails=True),
    # the class of a sum: Wu if either part is Wu
    Mutant("catalog.py", "return _W if a is _W and b is _W else _N",
           "return _W if a is _W or b is _W else _N", "predicates"),
    # [S9]_I's positive eigenlattice: a unimodular block, and a block no table states
    Mutant("catalog.py", _S9, _S9.replace('("U(2)",)', '("U",)'), "catalog", build_fails=True),
    Mutant("catalog.py", _S9, _S9.replace('("U(2)",)', '("E9",)'), "catalog", build_fails=True),
    # a residue <2> reaches, dropped from the per-block square table
    Mutant("catalog.py", '"<2>": frozenset({(0, _N), (2, _W), (8, _N)}),',
           '"<2>": frozenset({(0, _N), (2, _W)}),', "graphs"),
    # the standard Grams: a Dynkin edge moved, a diagonal entry changed
    Mutant("gram.py", "_D4_EDGES = ((0, 1), (0, 2), (0, 3))",
           "_D4_EDGES = ((0, 1), (0, 2), (2, 3))", "lattice", first=" of D4"),
    Mutant("gram.py", "_E7_EDGES = ((0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6))",
           "_E7_EDGES = ((0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (4, 6))", "lattice",
           first=" of E7"),
    Mutant("gram.py", "_E8_EDGES = ((0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 7))",
           "_E8_EDGES = ((0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6), (5, 7))", "lattice",
           first=" of E8"),
    Mutant("gram.py", '"<2>": ((2,),),', '"<2>": ((4,),),', "lattice", first=" of <2>"),
    # the root a flip pair is built on in U
    Mutant("graph_checks.py", '"U": (1, -1)}', '"U": (1, 1)}', "graphs"),
    # the graph constants: the irregular key, the swapped edge's class, the
    # irregular vertex's lattice and an edge's terminal type
    Mutant("graphs.py", 'IRR_KEY = VertexKey(14, 8, "I")', 'IRR_KEY = VertexKey(14, 6, "I")',
           "graphs"),
    Mutant("graphs.py", '"k3": ("[7S]", ElementClass.WU, "[8S]_I"),',
           '"k3": ("[7S]", ElementClass.EVEN_NON_WU, "[8S]_I"),', "graphs"),
    Mutant("graphs.py", '= ("U(2)", "D4", "D4", "D4")', '= ("U(2)", "D4", "D4", "E8")', "graphs"),
    Mutant("graphs.py", 'return VertexKey(r + 1, d + 1, "II")',
           'return VertexKey(r + 1, d + 1, "I")', "graphs"),
    # no suite recomputes the square table's rows yet
    _survivor("catalog.py", _U2_SQUARES, _U2_SQUARES.replace("(4, _N)", "(4, _N), (4, _W)"),
              "no suite recomputes SQUARES['U(2)'] from the block"),
    _survivor("catalog.py", _D4_SQUARES, _D4_SQUARES.replace("(8, _W), ", ""),
              "no suite recomputes SQUARES['D4'] from the block"),
]


def _run(src: Path, args: List[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-m", "k4graph.cli", *args], capture_output=True, text=True, env=env
    )


_FIRST = "  first failing invariant: "


def _verify_problems(m: Mutant, src: Path, args: List[str]) -> List[str]:
    """What a killed row's verify run does wrong, or nothing."""
    proc = _run(src, args)
    problems = []
    if proc.returncode != 1:
        problems.append(f"exit status {proc.returncode}, not 1")
    if proc.stderr:
        problems.append(f"stderr is not empty: {proc.stderr.splitlines()[-1]}")
    if "Traceback" in proc.stdout + proc.stderr:
        problems.append("a traceback")
    # each suite's status line, then its notes and failures, indented
    status, first, name = {}, {}, None
    for line in proc.stdout.splitlines():
        if not line.startswith(" "):
            name, _, state = line.partition(" ")
            status[name] = state.strip()
        elif line.startswith(_FIRST):
            first[name] = line[len(_FIRST):]
    if list(status) != ([m.suite] if "--suite" in args else list(SUITE_NAMES)):
        problems.append(f"the suite lines are {list(status)}")
    if status.get(m.suite) != "FAIL":
        problems.append(f"no '{m.suite} FAIL' line")
    elif not first.get(m.suite, "").endswith(m.first):
        problems.append(f"{m.suite}'s first failing invariant is {first.get(m.suite)!r}")
    if m.build_fails and "--suite" not in args:
        for name in CATALOG_SUITES:
            if not first.get(name, "").startswith("catalog build failed: "):
                problems.append(f"{name} does not fail with 'catalog build failed'")
    return [f"{' '.join(args)}: {p}" for p in problems]


def check(m: Mutant) -> List[str]:
    """The ways the row misbehaves; empty when it behaves as listed."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "k4graph" / m.file
        text = path.read_text(encoding="utf-8")
        if text.count(m.old) != 1:
            return [f"refused: the old text occurs {text.count(m.old)} times in {m.file}, not once"]
        path.write_text(text.replace(m.old, m.new), encoding="utf-8")
        if m.suite is None:
            proc = _run(src, ["verify"])
            return [] if proc.returncode == 0 else [
                f"a survivor, but verify exits {proc.returncode}: move it to the killed rows"
            ]
        problems = _verify_problems(m, src, ["verify", "--suite", m.suite])
        problems += _verify_problems(m, src, ["verify"])
        if m.build_fails:
            proc = _run(src, ["catalog"])
            err = proc.stderr.splitlines()
            if not (proc.returncode == 1 and not proc.stdout and len(err) == 1
                    and err[0].startswith("catalog error: ")):
                problems.append("catalog: not exit 1 with one 'catalog error' line on stderr")
        return problems


def main() -> int:
    failed = 0
    for m in MUTANTS:
        problems = check(m)
        label = f"{m.file}: {m.old!r} -> {m.new!r}"
        if problems:
            failed += 1
            print(f"WRONG     {label}")
            for p in problems:
                print(f"  {p}")
        elif m.suite is None:
            print(f"SURVIVOR  {label}\n  {m.why}")
        else:
            print(f"killed    {label}\n  {m.suite} FAIL")
    killed = sum(m.suite is not None for m in MUTANTS)
    print(f"{len(MUTANTS)} mutants: {killed} to kill, {len(MUTANTS) - killed} survivors, "
          f"{failed} not as listed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Output checks for the CLI workloads; each returns a list of failure strings.

The checks test structure (schema, vertex counts, pass lines, witnesses), not
golden bytes.  Byte identity is checked separately, between repeated runs of
the same command within one benchmark run.
"""

from __future__ import annotations

import json
import re
from typing import List, Optional, Sequence

SUITE_NAMES = ("lattice", "forms", "catalog", "predicates", "graphs", "synthesis")
CATALOG_SIZE = 75
IRREGULAR = {"k3": "[8S]_I", "k4": "irr"}


def check_verify(rc: int, stdout: str) -> List[str]:
    fails = [] if rc == 0 else [f"verify exited {rc}"]
    status = dict(re.findall(r"^(\S+) +(pass|FAIL)$", stdout, re.M))
    for name in SUITE_NAMES:
        if status.get(name) != "pass":
            fails.append(f"verify: suite {name} reports {status.get(name, 'nothing')}")
    if len(status) != len(SUITE_NAMES):
        fails.append(f"verify: {len(status)} suite lines, expected {len(SUITE_NAMES)}")
    return fails


def _check_graph_text(kind: str, fmt: str, text: str) -> List[str]:
    if fmt == "json":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            return [f"build {kind} json does not parse: {exc}"]
        n = len(doc.get("vertices", ()))
        ok = doc.get("schema") == "k4graph/1" and doc.get("kind") == kind
        if not ok:
            return [f"build {kind} json: wrong schema or kind"]
    else:
        if not text.startswith(f"digraph {kind} {{"):
            return [f"build {kind} dot: missing digraph header"]
        n = len(re.findall(r"^  \"[^\"]+\" \[label=", text, re.M))
    if n != CATALOG_SIZE:
        return [f"build {kind} {fmt}: {n} vertices, expected {CATALOG_SIZE}"]
    return []


def _check_summary(kind: str, text: str) -> List[str]:
    m = re.search(r"^vertices=(\d+) edges=(\d+) irregular=(\S+)$", text, re.M)
    if m is None:
        return [f"build {kind}: no summary line"]
    if int(m.group(1)) != CATALOG_SIZE or m.group(3) != IRREGULAR[kind]:
        return [f"build {kind}: summary {m.group(0)!r}"]
    return []


def check_command(
    argv: Sequence[str], rc: int, stdout: str, stderr: str, out_text: Optional[str]
) -> List[str]:
    """Check one k4graph CLI command's result; ``out_text`` is its --out file."""
    if rc != 0:
        return [f"{' '.join(argv)}: exit code {rc}"]
    cmd = argv[0]
    opt = dict(zip(argv[1::2], argv[2::2]))
    if cmd == "catalog":
        if opt["--format"] == "table":
            rows = stdout.splitlines()[2:]
            if len(rows) != CATALOG_SIZE:
                return [f"catalog table: {len(rows)} rows"]
            return []
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"catalog json does not parse: {exc}"]
        if doc.get("schema") != "k4graph/1" or len(doc.get("catalog", ())) != CATALOG_SIZE:
            return ["catalog json: wrong schema or entry count"]
        return []
    if cmd in ("build", "export"):
        kind, fmt = opt["--graph"], opt["--format"]
        if "--out" in opt:
            if out_text is None:
                return [f"{cmd} {kind}: --out file missing"]
            return _check_graph_text(kind, fmt, out_text) + _check_summary(kind, stdout)
        return _check_graph_text(kind, fmt, stdout) + _check_summary(kind, stderr)
    if cmd == "classify":
        lines = stdout.splitlines()
        fails = [] if len(lines) == 3 else [f"classify: {len(lines)} lines, expected 3"]
        for line in lines:
            if ": yes" in line and not re.search(r"witness=\[-?\d", line):
                fails.append(f"classify: yes without a witness: {line!r}")
        return fails
    return [f"unknown command {cmd!r}"]

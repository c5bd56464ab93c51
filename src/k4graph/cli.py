"""Command-line frontend: catalog dumps, graph builds, classification, verification.

The grammar is one table, ``_COMMANDS``; argparse is imported only for help,
other spellings (``--flag=value``, abbreviations) and usage errors.  Exit
codes: 0 success, 1 verification failure, 2 usage error.  Output is
deterministic byte-for-byte for identical flags.
"""

from __future__ import annotations

import gc
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional, Sequence

from . import SUITE_NAMES, elements, graphs, verification
from .catalog import Catalog, CatalogError, ElementClass, build_catalog, exists_class

if TYPE_CHECKING:
    import argparse

USAGE_ERROR = 2
VERIFY_ERROR = 1


def _write_out(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_INTS = {int}


def _json_text(value) -> str:
    """``json.dumps(value, indent=1) + "\\n"`` for str, int, bool and None
    leaves in lists and in dicts with str keys.

    The standard encoder drops to its pure-Python path whenever an indent is
    set; this writer joins each list or dict in one ``str.join``, a list of
    ints with no call per item.  It quotes strings with the C function that
    ``json.encoder`` binds, read from the ``_json`` accelerator, so the
    ``json`` package is never imported.
    """
    try:
        from _json import encode_basestring_ascii as quote
    except ImportError:  # an interpreter without the accelerator
        from json.encoder import encode_basestring_ascii as quote

    def encode(o, pad: str) -> str:
        cls = o.__class__
        if cls is str:
            return quote(o)
        if cls is int:
            return int.__repr__(o)
        inner = pad + " "
        if cls is list:
            if not o:
                return "[]"
            if set(map(type, o)) == _INTS:
                items = map(int.__repr__, o)
            else:
                items = [encode(x, inner) for x in o]
            return "[" + inner + ("," + inner).join(items) + pad + "]"
        if cls is dict:
            if not o:
                return "{}"
            items = [quote(k) + ": " + encode(v, inner) for k, v in o.items()]
            return "{" + inner + ("," + inner).join(items) + pad + "}"
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")

    return encode(value, "\n") + "\n"


def _catalog_json(cat: Catalog) -> str:
    entries = []
    for v in cat:
        entries.append(
            {
                "id": v.vid,
                "r": v.r,
                "d": v.d,
                "type": v.vtype,
                "s": v.diag_s,
                "t": v.diag_t,
                "lplus": v.lplus.to_json_dict(),
                "lminus": v.lminus.to_json_dict(),
            }
        )
    return _json_text({"schema": "k4graph/1", "catalog": entries})


def _catalog_table(cat: Catalog) -> str:
    header = f"{'vertex':14s} {'r':>2s} {'d':>2s} type {'s':>2s} {'t':>2s}  L+ / L-"
    lines = [header, "-" * len(header)]
    for v in cat:
        lplus = "+".join(v.lplus_summands)
        lminus = "+".join(v.lminus_summands)
        lines.append(
            f"{v.vid:14s} {v.r:2d} {v.d:2d} {v.vtype:4s} {v.diag_s:2d} {v.diag_t:2d}  "
            f"{lplus} / {lminus}"
        )
    return "\n".join(lines) + "\n"


def cmd_catalog(args: SimpleNamespace) -> int:
    render = _catalog_json if args.format == "json" else _catalog_table
    _write_out(render(build_catalog()), args.out)
    return 0


def cmd_build(args: SimpleNamespace) -> int:
    cat = build_catalog()
    try:
        g = graphs._build_graph(cat, args.graph)
    except graphs.StructuralError as exc:
        print(f"structural verification failed: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    if args.format == "json":
        text = _json_text(graphs.graph_json_dict(g, cat))
    else:
        text = graphs.graph_dot(g, cat)
    _write_out(text, args.out)
    irregular = graphs.IRREGULAR[args.graph][2]
    summary = f"vertices={len(g.vertex_ids)} edges={len(g.edges)} irregular={irregular}"
    print(summary, file=sys.stderr if not args.out else sys.stdout)
    return 0


def cmd_classify(args: SimpleNamespace) -> int:
    cat = build_catalog()
    try:
        v = cat.by_id(args.vertex)
    except CatalogError:
        print(f"unknown vertex id {args.vertex!r}", file=sys.stderr)
        return USAGE_ERROR
    n = 0 if args.square == -2 else 1
    for cls in ElementClass:
        exists = exists_class(v, n, cls)
        line = f"{v.vid} square={args.square} {cls.value}: {'yes' if exists else 'no'}"
        if exists:
            if args.bound is not None:
                try:
                    witness = elements.search_witness(v.lminus, args.square, cls, bound=args.bound)
                except elements.SearchBudgetError as exc:
                    print(f"{line}  (search aborted: {exc})")
                    continue
                if witness is None:
                    print(f"{line}  (no witness within --bound {args.bound})")
                    continue
            else:
                witness = elements.construct_witness(v, n, cls)
            line += f"  witness={list(witness.coords)}"
        print(line)
    return 0


def cmd_verify(args: SimpleNamespace) -> int:
    exit_code = 0
    for res in verification.run_suites([args.suite] if args.suite else None):
        status = "pass" if res.ok else "FAIL"
        print(f"{res.name:12s} {status}")
        for note in res.notes:
            print(f"  note: {note}")
        if not res.ok:
            exit_code = VERIFY_ERROR
            print(f"  first failing invariant: {res.failures[0]}")
            for extra in res.failures[1:4]:
                print(f"  also: {extra}")
    return exit_code


def _positive_int(text: str) -> int:
    try:
        value = int(text)
        if value >= 1:
            return value
        error = f"must be a positive integer, got {value}"
    except ValueError:
        error = f"invalid int value: {text!r}"
    from argparse import ArgumentTypeError  # a bad value, which argparse reports
    raise ArgumentTypeError(error)


_OUT = {"help": "write to a file instead of stdout"}
_GRAPH = {"--graph": {"choices": ("k3", "k4"), "required": True},
          "--format": {"choices": ("json", "dot"), "default": "json"}}
_COMMANDS = {  # command -> (handler, help, {flag: argparse keywords})
    "catalog": (cmd_catalog, "dump the 75-entry vertex catalog",
                {"--format": {"choices": ("json", "table"), "default": "table"}, "--out": _OUT}),
    "build": (cmd_build, "build a deformation graph", {**_GRAPH, "--out": _OUT}),
    "export": (cmd_build, "build a graph and write it to a file",
               {**_GRAPH, "--out": {"required": True}}),
    "classify": (cmd_classify, "existence and witnesses per element class", {
        "--vertex": {"required": True, "help": "catalog id, e.g. '[7S]'"},
        "--square": {"type": int, "choices": (-2, 6), "required": True},
        "--bound": {"type": _positive_int, "help": "search for witnesses instead of constructing"},
    }),
    "verify": (cmd_verify, "run the invariant suites",
               {"--suite": {"choices": sorted(SUITE_NAMES), "help": "run a single suite"}}),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(prog="k4graph", description="Exact lattice catalog and "
        "adjacency graphs of real K3 involutions and real cubic fourfolds")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options) in _COMMANDS.items():
        p_cmd = sub.add_parser(name, help=help_text)
        for flag, keywords in options.items():
            p_cmd.add_argument(flag, **keywords)
        p_cmd.set_defaults(func=func)
    return parser


def _read_argv(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """argparse's namespace for ``COMMAND --flag value ...``: exact flags, each
    at most once, every value converted and among its choices, every required
    flag given, a value that starts with ``-`` only if a negative integer.  None
    for all else (help, ``--flag=value``, abbreviations, ``--``, usage errors)."""
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    func, _, options = _COMMANDS[argv[0]]
    given = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        keywords = options.get(flag)
        if keywords is None or flag in given or text[:1] == "-" and not text[1:].isdecimal():
            return None
        try:
            given[flag] = keywords.get("type", str)(text)
        except Exception:  # a bad value, which argparse words
            return None
        if given[flag] not in keywords.get("choices", (given[flag],)):
            return None
    if any(kw.get("required") and flag not in given for flag, kw in options.items()):
        return None
    values = {flag[2:]: given.get(flag, kw.get("default")) for flag, kw in options.items()}
    return SimpleNamespace(command=argv[0], func=func, **values)


def main(argv: Optional[Sequence[str]] = None) -> int:
    # argparse loads only for a line the reader leaves: help, another spelling, a usage error
    args = _read_argv(sys.argv[1:] if argv is None else argv) or build_parser().parse_args(argv)
    # a command makes few reference cycles, so the cyclic collector's passes
    # free next to nothing; it is paused for the command and then restored
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 1
    # a catalog that fails to build; verify reports it as its catalog suites' failure
    except CatalogError as exc:
        print(f"catalog error: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    # classify's predicate promised a witness; the class is read only when
    # an exception gets here, so no other command loads elements
    except elements.WitnessError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    finally:
        if collecting:
            gc.enable()


def run() -> int:
    """Process entry point (``python -m k4graph.cli``, the ``k4graph`` script):
    ``main()``, then the collector frozen before the interpreter shuts down."""
    try:
        return main()
    finally:
        # the interpreter's shutdown collections walk every tracked object
        # (memos, catalog, modules) only to free memory the exiting process
        # hands back anyway; frozen objects are skipped, which saves 8-14 ms
        # of CPU per command on Python 3.11.  atexit handlers and the
        # std-stream flush still run, which os._exit would skip.
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())

"""Command-line frontend: catalog dumps, graph builds, classification, verification.

Exit codes: 0 success, 1 verification failure, 2 usage error.  Output is
deterministic byte-for-byte for identical flags.
"""

from __future__ import annotations

import argparse
import gc
import sys
from typing import Optional, Sequence

from . import SUITE_NAMES, elements, graphs, verification
from .catalog import Catalog, CatalogError, build_catalog

USAGE_ERROR = 2
VERIFY_ERROR = 1


def _write_out(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(value) -> str:
    """``json.dumps(value, indent=1) + "\\n"`` for str, int, bool and None
    leaves in lists and in dicts with str keys.

    The standard encoder drops to its pure-Python path whenever an indent is
    set; this writer joins each list or dict in one ``str.join``.
    """
    # only the commands that print JSON pay for the import
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
            return "[" + inner + ("," + inner).join([encode(x, inner) for x in o]) + pad + "]"
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


def cmd_catalog(args: argparse.Namespace) -> int:
    cat = build_catalog()
    if args.format == "json":
        _write_out(_catalog_json(cat), args.out)
    else:
        _write_out(_catalog_table(cat), args.out)
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    cat = build_catalog()
    try:
        if args.graph == "k3":
            g = graphs.build_k3_graph(cat)
        else:
            g, _ = graphs.build_k4_graph(cat)
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


def cmd_classify(args: argparse.Namespace) -> int:
    cat = build_catalog()
    try:
        v = cat.by_id(args.vertex)
    except CatalogError:
        print(f"unknown vertex id {args.vertex!r}", file=sys.stderr)
        return USAGE_ERROR
    n = 0 if args.square == -2 else 1
    for cls in elements.ElementClass:
        exists = elements.exists_class(v, n, cls)
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


def cmd_verify(args: argparse.Namespace) -> int:
    names = [args.suite] if args.suite else None
    try:
        results = verification.run_suites(names)
    except (CatalogError, graphs.StructuralError) as exc:
        print(f"verification aborted: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    exit_code = 0
    for res in results:
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
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="k4graph",
        description=(
            "Exact lattice catalog and adjacency graphs of real K3 involutions "
            "and real cubic fourfolds"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", help="dump the 75-entry vertex catalog")
    p_cat.add_argument("--format", choices=("json", "table"), default="table")
    p_cat.add_argument("--out", help="write to a file instead of stdout")
    p_cat.set_defaults(func=cmd_catalog)

    p_build = sub.add_parser("build", help="build a deformation graph")
    p_build.add_argument("--graph", choices=("k3", "k4"), required=True)
    p_build.add_argument("--format", choices=("json", "dot"), default="json")
    p_build.add_argument("--out", help="write to a file instead of stdout")
    p_build.set_defaults(func=cmd_build)

    p_exp = sub.add_parser("export", help="build a graph and write it to a file")
    p_exp.add_argument("--graph", choices=("k3", "k4"), required=True)
    p_exp.add_argument("--format", choices=("json", "dot"), default="json")
    p_exp.add_argument("--out", required=True)
    p_exp.set_defaults(func=cmd_build)

    p_cls = sub.add_parser("classify", help="existence and witnesses per element class")
    p_cls.add_argument("--vertex", required=True, help="catalog id, e.g. '[7S]'")
    p_cls.add_argument("--square", type=int, choices=(-2, 6), required=True)
    p_cls.add_argument(
        "--bound", type=_positive_int, help="search for witnesses instead of constructing"
    )
    p_cls.set_defaults(func=cmd_classify)

    p_ver = sub.add_parser("verify", help="run the invariant suites")
    p_ver.add_argument("--suite", choices=sorted(SUITE_NAMES), help="run a single suite")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a command makes few reference cycles, so the cyclic collector's passes
    # free next to nothing; it is paused for the command and then restored
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 1
    # a predicate promised a witness (verify or classify); the class is read
    # only when an exception gets here, so no other command loads elements
    except elements.WitnessError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())

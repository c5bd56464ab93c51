"""Child-process side of the benchmark; prints one JSON object on stdout.

    worker.py library SEED [--trace]   one library pass, timed per call
    worker.py cli ARGV...              one k4graph command, traced in-process

``run.py`` starts it with ``src`` on PYTHONPATH, one process at a time.  In
traced mode the tracer is installed after ``import k4graph.cli`` and before
the timed work, in a fresh process, so the ``lru_cache``s start cold.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def _import_cli() -> float:
    start = time.perf_counter()
    import k4graph.cli  # noqa: F401

    return time.perf_counter() - start


def _tracer():
    from tracer import Tracer

    tr = Tracer()
    tr.install()
    return tr


def library(seed: int, trace: bool) -> dict:
    import_s = _import_cli()
    import k4graph
    import library as lib

    ops = lib.make_ops(k4graph.build_catalog(), seed)
    tr = _tracer() if trace else None
    with tr or contextlib.nullcontext():
        timed = lib.run_ops(ops)
    results = timed.pop("results")
    failures = [msg for op, res in zip(ops, results) if (msg := op.check(res))]
    kinds = [op.kind for op in ops]
    return {
        "import_s": import_s,
        **timed,
        "kinds": kinds,
        "failures": failures,
        "search_misses": sum(1 for k, r in zip(kinds, results) if k == "search" and r is None),
        "trace": tr.summary() if tr else None,
    }


def cli(argv: list) -> dict:
    import_s = _import_cli()
    from k4graph.cli import main

    tr = _tracer()
    out, err = io.StringIO(), io.StringIO()
    with tr:
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        wall_s = time.perf_counter() - start
    return {
        "import_s": import_s,
        "wall_s": wall_s,
        "rc": rc,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "trace": tr.summary(),
    }


def main(args: list) -> int:
    if args[0] == "library":
        result = library(int(args[1]), "--trace" in args[2:])
    elif args[0] == "cli":
        result = cli(args[1:])
    else:
        print(f"unknown worker mode {args[0]!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

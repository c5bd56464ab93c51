"""Compare two benchmark result records layer by layer.

    python3 perfbench/diff.py BASE.json NEW.json

Both files come from ``run.py --out``; per-layer numbers need ``--trace 1``.
Each metric is printed with its base value, the new value and the ratio
new/base, so a change can be quoted with its base.  A ratio is left blank
where the base is 0.
"""

from __future__ import annotations

import json
import sys
from typing import List


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def diff_lines(base: dict, new: dict) -> List[str]:
    bp, np_ = base["provenance"], new["provenance"]
    lines = [
        f"base: {bp['workload']} seed={bp['seed']} commit={bp['commit'][:12]} src={bp['source_sha256']}",
        f"new:  {np_['workload']} seed={np_['seed']} commit={np_['commit'][:12]} src={np_['source_sha256']}",
    ]
    if bp["workload"] != np_["workload"]:
        lines.append("warning: the two records are of different workloads")
    for section in ("end_to_end", "raw", "per_layer"):
        b, n = base.get(section, {}), new.get(section, {})
        if not b and not n:
            continue
        lines.append(f"{section}:")
        lines.append(f"  {'metric':44s} {'base':>12s} {'new':>12s} {'new/base':>9s}")
        for name in list(b) + [k for k in n if k not in b]:
            bv, nv = b.get(name), n.get(name)
            ratio = f"{nv / bv:.3f}" if bv and nv is not None else ""
            lines.append(f"  {name:44s} {_fmt(bv):>12s} {_fmt(nv):>12s} {ratio:>9s}")
    return lines


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(open(path, encoding="utf-8").read()) for path in argv)
    print("\n".join(diff_lines(base, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Entry point of the k4graph benchmark.

    python3 perfbench/run.py --workload {verify,export,library} --seed N \
        --seconds S --trace {0,1} [--out results.json]

Run it from anywhere inside a Linux source checkout; nothing needs
installing: every child process is ``sys.executable`` with ``src`` on
PYTHONPATH.  Children run one at a time, started from this single process
and pinned with it to one core.  Each is reaped with ``os.wait4``, which
gives its CPU time and peak RSS.  While a child runs, this process times the
reference probe of ``reference.py`` on the same core every 50 ms; the timed
end-to-end metrics are the children's CPU times scaled by those probes.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``).  The lines before
it print every metric by name with its unit.  ``--out`` also writes the full
record with provenance; ``perfbench/diff.py`` compares two such records.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import checks
import reference
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
HARD_LIMIT_S = 170.0  # every run must end within 180 s
SETUP_PROBES = 5  # at least this many, more when the run has more passes
SETUP_CODE = "import k4graph; k4graph.build_catalog()"
CLI = ("-m", "k4graph.cli")


@dataclass
class Child:
    rc: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    probes_s: List[float]

    @property
    def scale(self) -> float:
        """Normalized seconds per CPU second while this child ran."""
        return reference.NOMINAL_S / statistics.mean(self.probes_s)

    @property
    def norm_s(self) -> float:
        return self.cpu_s * self.scale


@dataclass
class Pass:
    wall_s: float  # raw wall time
    norm_s: float  # normalized CPU time
    lat_s: List[float] = field(default_factory=list)  # raw wall time per op
    norm_lat_s: List[float] = field(default_factory=list)  # normalized, per op
    maxrss_kb: int = 0
    failures: List[str] = field(default_factory=list)
    failed: int = 0  # operations with at least one failure
    outputs: Dict[str, str] = field(default_factory=dict)  # for byte identity
    kinds: List[str] = field(default_factory=list)
    trace: List[dict] = field(default_factory=list)
    import_s: List[float] = field(default_factory=list)
    cli_s: Dict[str, float] = field(default_factory=dict)


class Runner:
    """Starts one child at a time, probes the core's speed while it runs, and
    kills any child that outlives the run."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.ref_inputs = reference.make_inputs()
        reference.probe(self.ref_inputs)  # warm-up
        self.probes_s: List[float] = []  # every probe of the run
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        env["PYTHONHASHSEED"] = "0"
        self.env = env

    def run(self, args: List[str]) -> Child:
        with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], stdout=out, stderr=err, env=self.env, cwd=ROOT
            )
            probes = []
            pidfd = os.pidfd_open(proc.pid)
            try:
                # the pidfd turns readable when the child exits
                while not select.select([pidfd], [], [], 0)[0]:
                    if time.monotonic() > self.deadline:
                        proc.kill()
                        break
                    probes.append(reference.probe(self.ref_inputs))
                    select.select([pidfd], [], [], reference.INTERVAL_S)
            finally:
                os.close(pidfd)
                _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            probes = probes or [reference.probe(self.ref_inputs)]
            self.probes_s += probes
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Child(
                proc.returncode,
                out.read().decode("utf-8", "replace"),
                err.read().decode("utf-8", "replace"),
                wall,
                usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss,
                probes,
            )

    def worker(self, args: List[str]) -> tuple:
        """Run perfbench/worker.py; returns the child and its parsed JSON (or None)."""
        child = self.run([str(Path(__file__).with_name("worker.py")), *args])
        try:
            return child, json.loads(child.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return child, None


# ---------------------------------------------------------------------------
# workloads: each pass function returns one Pass
# ---------------------------------------------------------------------------

def verify_pass(runner: Runner, ctx: dict, traced: bool) -> Pass:
    if traced:
        child, res = runner.worker(["cli", "verify"])
        p = Pass(child.wall_s, child.norm_s, maxrss_kb=child.maxrss_kb, kinds=["verify"])
        if res is None:
            p.failures.append(f"traced verify crashed: {child.stderr[-300:]}")
        else:
            p.failures += checks.check_verify(res["rc"], res["stdout"])
            p.trace.append(res["trace"])
            p.import_s.append(res["import_s"])
            p.cli_s["verify"] = res["wall_s"]
    else:
        child = runner.run([*CLI, "verify"])
        p = Pass(child.wall_s, child.norm_s, [child.wall_s], [child.norm_s], child.maxrss_kb)
        p.kinds.append("verify")
        p.failures += checks.check_verify(child.rc, child.stdout)
        p.outputs["verify"] = child.stdout + child.stderr
    p.failed = int(bool(p.failures))
    return p


def export_commands(ctx: dict) -> List[List[str]]:
    out_file = str(WORK / "k4.json")
    return [
        ["catalog", "--format", "json"],
        ["catalog", "--format", "table"],
        ["build", "--graph", "k3", "--format", "json"],
        ["build", "--graph", "k3", "--format", "dot"],
        ["build", "--graph", "k4", "--format", "json"],
        ["build", "--graph", "k4", "--format", "dot"],
        ["export", "--graph", "k4", "--format", "json", "--out", out_file],
        ["classify", "--vertex", ctx["classify"][0], "--square", ctx["classify"][1]],
        [
            "classify", "--vertex", ctx["search"][0], "--square", ctx["search"][1],
            "--bound", "3",
        ],
    ]


def _read_out(argv: List[str]) -> Optional[str]:
    if "--out" not in argv:
        return None
    path = Path(argv[argv.index("--out") + 1])
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    path.unlink()
    return text


def export_pass(runner: Runner, ctx: dict, traced: bool) -> Pass:
    p = Pass(0.0, 0.0)
    start = time.perf_counter()
    for argv in export_commands(ctx):
        key = " ".join(argv)
        p.kinds.append(argv[0])
        if traced:
            child, res = runner.worker(["cli", *argv])
            if res is None:
                p.failures.append(f"traced {key} crashed: {child.stderr[-300:]}")
                p.failed += 1
                continue
            rc, stdout, stderr = res["rc"], res["stdout"], res["stderr"]
            p.trace.append(res["trace"])
            p.import_s.append(res["import_s"])
            p.cli_s[argv[0]] = p.cli_s.get(argv[0], 0.0) + res["wall_s"]
        else:
            child = runner.run([*CLI, *argv])
            rc, stdout, stderr = child.rc, child.stdout, child.stderr
            p.lat_s.append(child.wall_s)
            p.norm_lat_s.append(child.norm_s)
        p.norm_s += child.norm_s
        p.maxrss_kb = max(p.maxrss_kb, child.maxrss_kb)
        out_text = _read_out(argv)
        fails = checks.check_command(argv, rc, stdout, stderr, out_text)
        p.failures += fails
        p.failed += int(bool(fails))
        p.outputs[key] = stdout + "\0" + stderr + "\0" + (out_text or "")
    p.wall_s = time.perf_counter() - start
    return p


def library_pass(runner: Runner, ctx: dict, traced: bool) -> Pass:
    args = ["library", str(ctx["seed"])]
    child, res = runner.worker(args + (["--trace"] if traced else []))
    if res is None:
        p = Pass(child.wall_s, child.norm_s, maxrss_kb=child.maxrss_kb, failed=1)
        p.kinds.append("library")
        p.failures.append(f"library worker crashed: {child.stderr[-300:]}")
        return p
    # the worker normalizes each call by its own probes between the calls
    p = Pass(sum(res["lat_ns"]) / 1e9, sum(res["norm_ns"]) / 1e9, maxrss_kb=child.maxrss_kb)
    p.lat_s = [ns / 1e9 for ns in res["lat_ns"]]
    p.norm_lat_s = [ns / 1e9 for ns in res["norm_ns"]]
    runner.probes_s += res["probes_s"]
    p.kinds = res["kinds"]
    p.failures = res["failures"]
    p.failed = len(p.failures)
    ctx["search_misses"] = res["search_misses"]
    if traced:
        p.trace.append(res["trace"])
        p.import_s.append(res["import_s"])
    return p


WORKLOADS: Dict[str, Callable[[Runner, dict, bool], Pass]] = {
    "verify": verify_pass,
    "export": export_pass,
    "library": library_pass,
}


# ---------------------------------------------------------------------------
# inputs and set-up, before any timing
# ---------------------------------------------------------------------------

def prepare(runner: Runner, workload: str, seed: int) -> dict:
    """Warm the bytecode cache and derive the seeded inputs from the catalog.

    The ``classify --bound`` vertex is drawn from the vertices whose L- has
    rank at most 12, where the bounded search is not restricted to leading
    summands and so finds a witness for every positive class.
    """
    ctx: dict = {"seed": seed}
    child = runner.run([*CLI, "catalog", "--format", "json"])
    if child.rc != 0:
        raise RuntimeError(f"k4graph catalog failed: {child.stderr[-300:]}")
    entries = json.loads(child.stdout)["catalog"]
    if workload == "export":
        rng = random.Random(f"export/{seed}")
        squares = ("-2", "6")
        ctx["classify"] = (rng.choice([e["id"] for e in entries]), rng.choice(squares))
        small = [e["id"] for e in entries if e["lminus"]["rank"] <= 12]
        ctx["search"] = (rng.choice(small), rng.choice(squares))
    elif workload == "verify":
        ctx["inputs"] = "fixed: k4graph verify takes no input"
    return ctx


def setup_probe(runner: Runner, probes: List[Child], failures: List[str]) -> None:
    """Time one fresh interpreter that imports k4graph and builds the catalog."""
    child = runner.run(["-c", SETUP_CODE])
    probes.append(child)
    if child.rc != 0:
        failures.append(f"set-up probe exited {child.rc}: {child.stderr[-300:]}")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def percentile(values: List[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def per_layer_value(name: str, functions: Dict[str, dict], extra: Dict[str, float]) -> float:
    if name in extra:
        return extra[name]
    prefix, field_name = name.rsplit(".", 1)
    row = functions.get(prefix, {})
    if field_name == "hit_ratio":
        return row.get("hits", 0) / row["calls"] if row.get("calls") else 0.0
    return row.get(field_name, 0)


def traced_layers(
    traced: Pass, untraced_norm_s: float, raw: Dict[str, float], spec: List[dict]
) -> Dict[str, float]:
    functions = tracer.aggregate(traced.trace)
    extra = dict(raw)
    extra.update({
        "cli.import_s": statistics.median(traced.import_s) if traced.import_s else 0.0,
        "trace.overhead_s": traced.norm_s - untraced_norm_s,
        "trace.gram_repeat_share": tracer.gram_repeat_share(functions),
    })
    extra.update({f"cli.{cmd}.wall_s": s for cmd, s in traced.cli_s.items()})
    return {m["name"]: per_layer_value(m["name"], functions, extra) for m in spec}


def provenance(args: argparse.Namespace) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "k4graph").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------

def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full results record here")
    return ap.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    if not (SRC / "k4graph" / "cli.py").is_file():
        print(f"perfbench: no k4graph sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if hasattr(os, "sched_setaffinity"):
        # One core for this process, the reference blocks and every child: a
        # slowdown from other tenants hits one core at a time, and the
        # reference can only gauge the core that the program runs on.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    try:
        record = run(args, spec, Runner(started + HARD_LIMIT_S), started)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    report(record, spec, args)
    return 0


def run(args: argparse.Namespace, spec: dict, runner: Runner, started: float) -> dict:
    pass_fn = WORKLOADS[args.workload]
    ctx = prepare(runner, args.workload, args.seed)
    setups: List[Child] = []
    failures: List[str] = []

    # One set-up probe before each pass, so that the probes are spread over
    # the run instead of sampling one moment of a noisy machine.
    passes: List[Pass] = []
    t0 = time.monotonic()
    while True:
        setup_probe(runner, setups, failures)
        passes.append(pass_fn(runner, ctx, False))
        elapsed = time.monotonic() - t0
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
        if time.monotonic() - started > HARD_LIMIT_S / 2:
            break  # a slow program still leaves time for the traced pass
    while len(setups) < SETUP_PROBES:
        setup_probe(runner, setups, failures)

    # repeated runs of one command within this run must be byte-identical
    for p in passes[1:]:
        for key, text in passes[0].outputs.items():
            if p.outputs.get(key) != text:
                p.failures.append(f"output of {key!r} differs between repeated runs")
                p.failed += 1
    for p in passes:
        failures += p.failures

    # Each pass repeats the same operations.  An operation's latency is its
    # median over the passes, so one pass caught in a slow stretch of a shared
    # machine (or one lucky fast pass) does not move the result.
    def op_medians(per_pass: List[List[float]]) -> List[float]:
        return [statistics.median(times) for times in zip(*per_pass)]

    lat = op_medians([p.norm_lat_s for p in passes]) or [p.norm_s for p in passes]
    raw_lat = op_medians([p.lat_s for p in passes]) or [p.wall_s for p in passes]
    kinds = [k for p in passes for k in p.kinds]
    attempted = len(kinds)
    failed = sum(p.failed for p in passes)
    end_to_end = {
        "pass_norm_s": statistics.median(p.norm_s for p in passes),
        "op_p50_norm_ms": statistics.median(lat) * 1e3,
        "op_p90_norm_ms": percentile(lat, 90) * 1e3,
        "setup_s": statistics.median(c.norm_s for c in setups),
        "peak_rss_mb": max(p.maxrss_kb for p in passes) / 1024,
        "error_rate": failed / attempted,
    }
    raw = {
        "run.wall_s": statistics.median(p.wall_s for p in passes),
        "run.op_p50_ms": statistics.median(raw_lat) * 1e3,
        "run.op_p90_ms": percentile(raw_lat, 90) * 1e3,
        "run.setup_wall_s": statistics.median(c.wall_s for c in setups),
        "run.probe_ms": statistics.median(runner.probes_s) * 1e3,
    }
    record = {
        "schema": "perfbench/1",
        "provenance": provenance(args),
        "passes": len(passes),
        "pass_walls_s": [p.wall_s for p in passes],
        "pass_norm_s": [p.norm_s for p in passes],
        "setup_walls_s": [c.wall_s for c in setups],
        "setup_norm_s": [c.norm_s for c in setups],
        "ops": {k: kinds.count(k) for k in sorted(set(kinds))},
        "context": ctx,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "correct": not failures,
        "end_to_end": end_to_end,
        "raw": raw,
    }
    if args.trace:
        traced = pass_fn(runner, ctx, True)
        record["attempted"] += len(traced.kinds)
        record["failed"] += traced.failed
        record["failures"] += traced.failures[:20]
        record["correct"] = record["correct"] and not traced.failures
        layers = traced_layers(traced, end_to_end["pass_norm_s"], raw, spec["per_layer"])
        record["per_layer"] = layers
        record["traced_wall_s"] = traced.wall_s
    return record


def report(record: dict, spec: dict, args: argparse.Namespace) -> None:
    prov = record["provenance"]
    print(
        f"perfbench {prov['workload']} seed={prov['seed']} passes={record['passes']} "
        f"ops={record['ops']} python={prov['python']} nproc={prov['nproc']} "
        f"commit={prov['commit'][:12]} src={prov['source_sha256']}"
    )
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["error_rate"] = "ratio"
    rows = dict(record["end_to_end"])
    rows.update(record["raw"])
    rows.update(record.get("per_layer", {}))
    for name, value in rows.items():
        print(f"  {name:44s} {value:>14.6g} {units.get(name, '')}")
    for msg in record["failures"]:
        print(f"  FAILED: {msg}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {
        m["name"]: {"value": rows[m["name"]], "unit": m["unit"]} for m in spec[section]
    }
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    sys.exit(main())

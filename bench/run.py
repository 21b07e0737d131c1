"""Benchmark of the chm package: three seeded workloads, checked outputs.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--trace 0|1]   all three, in turn
    python3 bench/run.py --quick                        tiny sizes, both traces
    python3 bench/run.py --compare DIR_A DIR_B          two sets of run records

Workloads (a single client each, in a closed loop):

  grid-sweep   repeated `chm scan --grid 16` processes (--workers 1), forked
               from a worker with chm imported: the compute-bound regime
               (family, census, H2 hit, Gram residual).
  matrix-mix   in-process per-matrix checks on a seeded stream of registry
               images, family points and their images, and near-corner
               points, in one worker process: equivalence, 3x3 census,
               H2 misses and repeated validation dominate.
  cli-oneshot  fresh `chm <cmd>` processes over the documented commands:
               interpreter start, numpy import and registry validation
               dominate.

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 the per-layer metrics, from spans taken in
a worker process around calls into each chm module (bench/tracing.py).
The end-to-end times are each operation's fastest sample in the run
(see bench/README.md). Each run also writes a run record (environment,
inputs, every raw sample) to --results, which --compare reads. Exit
status: 0 when every output check passed, 1 when one failed, 2 when chm
cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("grid-sweep", "matrix-mix", "cli-oneshot")
CHILD_TIMEOUT_S = 150
# The console-script entry point of `chm`, run from source.
CHM_ENTRY = "import sys; from chm.cli import main; sys.exit(main())"


def mono_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def median(values):
    return statistics.median(values) if values else 0.0


# --- child processes --------------------------------------------------------


class Child(NamedTuple):
    """A finished child process: exit code, output, wall time, peak RSS."""

    code: int
    stdout: str
    stderr: str
    launch_ns: int
    wall_ns: int
    maxrss_kb: int


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "CHM_"))}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, workdir: Path) -> Child:
    """Run argv to completion with stdout/stderr in files; wall time from
    just before the launch to the reaped exit, peak RSS from wait4."""
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        launch = mono_ns()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = mono_ns() - launch
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Child(
        code,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
        launch,
        wall,
        usage.ru_maxrss,
    )


def traced_process(child: Child, spans_path: Path) -> tuple[dict, dict]:
    """Aggregated spans of one traced CLI process, and its per-process
    times: imports, and start = (launch until cli.main returns) - imports
    - cli.main."""
    record = json.loads(spans_path.read_text(encoding="utf-8"))
    group = tracing.aggregate(record["spans"]).get(0, {})
    main_ns = group["cli.main"]["total_ns"] if "cli.main" in group else 0
    times = {
        "numpy.import_ms": record["numpy_import_ns"] / 1e6,
        "chm.import_ms": record["chm_import_ns"] / 1e6,
        "cli.start_ms": (record["main_return_ns"] - child.launch_ns - record["numpy_import_ns"]
                         - record["chm_import_ns"] - main_ns) / 1e6,
    }
    return group, times


def pass_layers(processes) -> dict:
    """Per-layer metrics of one pass of traced processes: span metrics over
    the whole pass, per-process times as medians."""
    layers = tracing.layer_metrics(tracing.merge(group for group, _ in processes))
    for key in processes[0][1]:
        layers[key] = median([times[key] for _, times in processes])
    return layers


def summarize_passes(passes) -> tuple[dict, bool]:
    """Per-layer metrics over passes: medians of times and ratios; counts
    from the first pass, with a flag telling whether every pass agreed."""
    out, stable = {}, True
    for key in passes[0]:
        values = [p[key] for p in passes]
        if key.endswith((".calls", ".bytes", ".pairings_tried")):
            out[key] = values[0]
            stable = stable and len(set(values)) == 1
        else:
            out[key] = median(values)
    return out, stable


# --- workloads --------------------------------------------------------------


class Run:
    """Everything one workload run measures, checks and records."""

    def __init__(self, workload, seed, seconds, trace, quick):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.quick = trace, quick
        self.attempted = self.failed = 0
        self.problems = []
        self.metrics, self.extras, self.layers = {}, {}, {}
        self.sizes, self.inputs, self.raw = {}, {}, {}


def run_grid(run: Run, workdir: Path) -> None:
    n = 8 if run.quick else workloads.GRID_N
    sample = workloads.grid_sample(run.seed, n)
    run.sizes = {"grid_n": n, "points_per_process": n * n, "workers": 1, "oracle_sample": len(sample)}
    run.inputs = {"oracle_sample_points": [list(p) for p in sample]}

    out_path = workdir / "scan.json"
    argv = [sys.executable, str(BENCH / "worker.py"), "scan", str(n), str(workdir), str(out_path),
            repr(run.seconds), str(run.trace)]
    child = run_child(argv, workdir)
    if child.code != 0:
        raise RuntimeError(f"grid-sweep worker exited {child.code}: {child.stderr.strip()[-500:]}")
    record = json.loads(out_path.read_text(encoding="utf-8"))
    forks = record["forks"]
    run.raw["setup_s"] = record["setup_s"]

    # Checks, outside the timed region: the first file in full, and every
    # later scan by its digest and summary line (a file that differs from
    # the first was kept and is checked in full too).
    first = forks[0]
    for k, fork in enumerate(forks):
        run.attempted += n * n
        if fork["code"] != 0:
            run.failed += n * n
            run.problems.append(f"scan {k} exited {fork['code']}: {child.stderr.strip()[-300:]}")
            continue
        kept = workdir / f"scan-{k}.csv"
        if k > 0 and fork["sha256"] == first["sha256"] and fork["stdout"] == first["stdout"]:
            continue  # byte-identical to a scan that is checked in full
        data = kept.read_bytes() if kept.exists() else b""
        bad, problems = workloads.check_scan(data, fork["stdout"], n, sample)
        if k > 0:
            bad = n * n
            problems.append(f"scan {k} differs from the first: file hash {fork['sha256'][:16]}, "
                            f"summary {fork['stdout'].strip()!r}")
        run.failed += bad
        run.problems.extend(problems[:20])

    plain = [f for f in forks if not f["traced"]]
    walls = [f["wall_ns"] / 1e6 for f in plain]
    rss = [f["maxrss_kb"] / 1024 for f in plain]
    best_ms = min(walls)
    run.raw.update(process_wall_ms=walls, peak_rss_mb=rss,
                   file_sha256=sorted({f["sha256"] for f in forks}))
    run.extras.update(
        file_sha256=first["sha256"],
        samples=len(walls),
        # Over the summed wall time of the run's scans, not the fastest.
        points_per_s=n * n * len(walls) / (sum(walls) / 1e3),
        latency_p50_ms=median(walls),
    )
    tail = workloads.percentile_tail(walls)
    if tail is not None:
        run.extras.update(latency_tail_ms=tail[0], latency_tail_pct=tail[1], latency_tail_beyond=tail[2])
    run.metrics.update(
        best_ops_per_s=n * n / (best_ms / 1e3),
        best_latency_ms=best_ms,
        peak_rss_mb=median(rss),
    )
    if run.trace:
        traced = [f for f in forks if "layers" in f]  # a failed child left no spans
        passes = []
        for f in traced:
            layers = dict(f["layers"])
            layers.update({"numpy.import_ms": record["numpy_import_ns"] / 1e6,
                           "chm.import_ms": record["chm_import_ns"] / 1e6,
                           "cli.start_ms": f["start_ns"] / 1e6})
            passes.append(layers)
        run.raw["traced_main_return_ms"] = [f["main_return_ns"] / 1e6 for f in traced]
        run.layers, stable = summarize_passes(passes)
        run.layers["trace.overhead_ratio"] = (
            median(run.raw["traced_main_return_ms"]) / median(walls) - 1)
        run.extras["calls_stable"] = stable


def run_mix(run: Run, workdir: Path) -> None:
    reqs, invariants, shares = workloads.mix_inputs(run.seed, 2 if run.quick else workloads.MIX_FAMILY_POINTS)
    n = len(reqs)
    inputs_path = workdir / "inputs.json"
    inputs_path.write_text(json.dumps([workloads.worker_request(r) for r in reqs]), encoding="utf-8")
    run.sizes = {"requests_per_pass": n, "checks_per_request": 7}
    run.inputs = shares

    out_path = workdir / "mix.json"
    argv = [sys.executable, str(BENCH / "worker.py"), "mix", str(inputs_path), str(out_path),
            repr(run.seconds), str(run.trace)]
    child = run_child(argv, workdir)
    if child.code != 0:
        raise RuntimeError(f"matrix-mix worker exited {child.code}: {child.stderr.strip()[-500:]}")
    record = json.loads(out_path.read_text(encoding="utf-8"))
    run.raw["setup_s"] = record["setup_s"]

    # Checks, outside the timed region: each first-pass result, and any
    # later-pass result that differs from it.
    status = []
    for req, entry in zip(reqs, record["results"]):
        verdict, problems = workloads.check_mix(req, invariants[json.dumps(req["source"])], entry)
        status.append(verdict)
        run.problems.extend(problems[:5])
    per_op = [status[k % n] for k in range(len(record["latency_ns"]))]
    for k, entry in record["mismatches"]:
        per_op[k] = "wrong"
        run.problems.append(f"request {k % n} pass {k // n}: output differs from the first pass")
    run.attempted = len(per_op)
    run.failed = sum(s != "ok" for s in per_op)
    run.extras["known_defect_failures"] = sum(s == "failed" for s in per_op)

    ok_latency = [ns / 1e6 for ns, s in zip(record["latency_ns"], per_op) if s == "ok"]
    run.raw.update(latency_ms=[ns / 1e6 for ns in record["latency_ns"]], status=per_op,
                   pass_s=[ns / 1e9 for ns in record["pass_ns"]], peak_rss_mb=child.maxrss_kb / 1024)
    # Each request's fastest untraced pass; a pass at those times is the
    # pass an uncontended machine gives.
    plain = [k for k in range(len(per_op)) if not record["pass_traced"][k // n]]
    best_ms = [min(record["latency_ns"][k] for k in plain if k % n == i) / 1e6 for i in range(n)]
    ok = [i for i in range(n) if status[i] == "ok"]
    run.extras.update(
        # Successful requests over the loop's wall time (the passes, not
        # the output bookkeeping between them).
        matrices_per_s=(run.attempted - run.failed) / (sum(record["pass_ns"]) / 1e9),
        latency_p50_ms=median(ok_latency),
        samples=len(ok_latency),
    )
    tail = workloads.percentile_tail(ok_latency)
    if tail is not None:
        run.extras.update(latency_tail_ms=tail[0], latency_tail_pct=tail[1], latency_tail_beyond=tail[2])
    run.metrics.update(
        best_ops_per_s=len(ok) / (sum(best_ms) / 1e3),
        best_latency_ms=median([best_ms[i] for i in ok]),
        peak_rss_mb=child.maxrss_kb / 1024,
    )
    if run.trace:
        groups = tracing.aggregate(record["spans"], key=lambda s: s[4] // n)
        passes, traced_ns, plain_ns = [], [], []
        for p, (ns, traced) in enumerate(zip(record["pass_ns"], record["pass_traced"])):
            if not traced:
                plain_ns.append(ns)
                continue
            traced_ns.append(ns)
            layers = tracing.layer_metrics(groups.get(p, {}))
            layers.update({"numpy.import_ms": record["numpy_import_ns"] / 1e6,
                           "chm.import_ms": record["chm_import_ns"] / 1e6, "cli.start_ms": 0.0})
            passes.append(layers)
        run.layers, stable = summarize_passes(passes)
        run.layers["trace.overhead_ratio"] = median(traced_ns) / median(plain_ns) - 1
        run.extras["calls_stable"] = stable
        run.raw["pass_traced"] = record["pass_traced"]


def run_cli(run: Run, workdir: Path) -> None:
    commands = workloads.cli_inputs(run.seed, workdir)
    spans_path = workdir / "spans.json"
    run.sizes = {"commands_per_pass": len(commands), "commands": [c[0][0] for c in commands]}
    run.inputs = {"argv": [c[0] for c in commands]}

    walls, rss, traced_pass_walls, plain_pass_walls, traced_passes = [], [], [], [], []
    ok_walls, best_ms = [], [None] * len(commands)
    probes = worker.SetupProbes(enabled=not run.trace, env=child_env(), cwd=ROOT)
    deadline = mono_ns() + int(run.seconds * 1e9)
    start = mono_ns()
    p = 0
    while p < (2 if run.trace else 1) or mono_ns() < deadline:
        probes.between()
        traced = run.trace and p % 2 == 1
        pass_wall, process_layers = 0, []
        for slot, (argv, code, expected) in enumerate(commands):
            prefix = ([sys.executable, str(BENCH / "worker.py"), "cli", str(spans_path), "--"]
                      if traced else [sys.executable, "-c", CHM_ENTRY])
            child = run_child(prefix + argv, workdir)
            pass_wall += child.wall_ns
            problems = workloads.check_cli(code, expected, child.code, child.stdout)
            run.attempted += 1
            if problems:
                run.failed += 1
                run.problems.extend(f"{' '.join(argv)}: {x}" for x in problems)
            if traced:
                process_layers.append(traced_process(child, spans_path))
            else:
                walls.append(child.wall_ns / 1e6)
                rss.append(child.maxrss_kb / 1024)
                if not problems:
                    ok_walls.append(child.wall_ns / 1e6)
                    best_ms[slot] = min(child.wall_ns / 1e6, best_ms[slot] or math.inf)
        p += 1
        if traced:
            traced_pass_walls.append(pass_wall / 1e6)
            traced_passes.append(pass_layers(process_layers))
        else:
            plain_pass_walls.append(pass_wall / 1e6)
    loop_s = (mono_ns() - start) / 1e9

    run.raw.update(process_wall_ms=walls, peak_rss_mb=rss, passes=p, loop_s=loop_s,
                   setup_s=probes.values)
    run.raw["best_ms"] = best_ms
    run.extras.update(
        commands_per_s=len(walls) / (sum(plain_pass_walls) / 1e3),
        latency_p50_ms=median(ok_walls),
        samples=len(ok_walls),
    )
    tail = workloads.percentile_tail(ok_walls)
    if tail is not None:
        run.extras.update(latency_tail_ms=tail[0], latency_tail_pct=tail[1], latency_tail_beyond=tail[2])
    # Each command slot's fastest untraced process.
    ok = [ms for ms in best_ms if ms is not None]
    run.metrics.update(
        best_ops_per_s=len(ok) / (sum(ok) / 1e3) if ok else 0.0,
        best_latency_ms=median(ok),
        peak_rss_mb=median(rss),
    )
    if run.trace:
        run.raw["traced_pass_wall_ms"] = traced_pass_walls
        run.raw["untraced_pass_wall_ms"] = plain_pass_walls
        run.layers, stable = summarize_passes(traced_passes)
        run.layers["trace.overhead_ratio"] = median(traced_pass_walls) / median(plain_pass_walls) - 1
        run.extras["calls_stable"] = stable


RUNNERS = {"grid-sweep": run_grid, "matrix-mix": run_mix, "cli-oneshot": run_cli}


# --- the run record ---------------------------------------------------------


def _read(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def environment() -> dict:
    import numpy

    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), "")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        caches[f"L{level}{kind[0].lower() if kind else ''}"] = _read(index / "size")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "commit": commit,
        "source_sha256": source_digest(),
    }


def source_digest() -> str:
    """Hash of the chm sources under test (the checkout may lack git)."""
    h = hashlib.sha256()
    for path in sorted((SRC / "chm").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


# --- output -----------------------------------------------------------------


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


UNITS = {
    "latency_p50_ms": "ms", "latency_tail_ms": "ms", "points_per_s": "points/s",
    "matrices_per_s": "matrices/s", "commands_per_s": "commands/s",
}


def layer_unit(name) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("_ratio", ".perm_rank_mean")):
        return "ratio" if name.endswith("_ratio") else "rank"
    return "count"


def report(run: Run, spec: dict) -> dict:
    """Print the human-readable table; return the contract's result line."""
    correct = not run.problems
    print(f"== {run.workload}  seed={run.seed} seconds={run.seconds} trace={run.trace} "
          f"sizes={json.dumps(run.sizes)}")
    ratio = run.failed / run.attempted if run.attempted else 0.0
    print(f"  correct={str(correct).lower()} attempted={run.attempted} failed={run.failed}")
    print(f"  failed_ratio = {ratio:.6g} ratio ({run.failed} of {run.attempted})")
    if "base" in run.inputs:
        print(f"  input shares per pass = {json.dumps(run.inputs)}")
    if run.trace:
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name in sorted(run.layers):
            print(f"  {name} = {run.layers[name]:.6g} {layer_unit(name)}")
        metrics = {k: {"value": run.layers[k], "unit": u} for k, u in wanted.items()}
    else:
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for name, unit in wanted.items():
            print(f"  {name} = {run.metrics[name]:.6g} {unit}")
        for name in ("points_per_s", "matrices_per_s", "commands_per_s", "latency_p50_ms",
                     "latency_tail_ms"):
            if name in run.extras:
                extra = ""
                if name == "latency_tail_ms":
                    extra = (f" (p{run.extras['latency_tail_pct']:.1f}, "
                             f"{run.extras['latency_tail_beyond']} of {run.extras['samples']} beyond)")
                print(f"  {name} = {run.extras[name]:.6g} {UNITS[name]}{extra}")
        if "latency_tail_ms" not in run.extras:
            print(f"  latency_tail_ms = n/a (needs 20 samples, have {run.extras['samples']})")
        metrics = {k: {"value": run.metrics[k], "unit": u} for k, u in wanted.items()}
    run.extras["failed_ratio"] = ratio
    for p in run.problems[:10]:
        print(f"  CHECK FAILED: {p}")
    return {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}


def execute(workload, seed, seconds, trace, quick, results_dir: Path, spec) -> dict:
    run = Run(workload, seed, seconds, trace, quick)
    load_start = os.getloadavg()
    work_parent = ROOT / ".bench_work"
    work_parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_parent) as tmp:
        workdir = Path(tmp)
        if not trace:
            # Untimed: also compiles the bytecode cache.
            worker.SetupProbes(env=child_env(), cwd=ROOT).probe()
        RUNNERS[workload](run, workdir)
        if not trace:
            run.metrics["setup_s"] = median(run.raw["setup_s"])
    try:
        work_parent.rmdir()
    except OSError:
        pass  # another run still uses it
    result = report(run, spec)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "quick": quick,
        "environment": environment(), "load_average": {"start": load_start, "end": os.getloadavg()},
        "sizes": run.sizes, "inputs": run.inputs, "result": result, "extras": run.extras,
        "layers": run.layers, "raw": run.raw, "problems": run.problems,
    }
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{workload}-seed{seed}-trace{trace}{'-quick' if quick else ''}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"  run record: {path}")
    return result


# --- compare ----------------------------------------------------------------


def load_records(directory) -> dict:
    """{workload: [record, ...]} of the untraced, full-size runs in a directory."""
    out = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("trace") == 0 and not record.get("quick"):
            out.setdefault(record["workload"], []).append(record)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare_metric(a, b, better, bound) -> str:
    """Verdict for B against A on one metric (lists of per-run values)."""
    qa, qb = quartiles(a), quartiles(b)
    sign = 1 if better == "lower" else -1
    worse = sign * (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
    spread = max((qa[2] - qa[0]) / abs(qa[1]) if qa[1] else 0.0,
                 (qb[2] - qb[0]) / abs(qb[1]) if qb[1] else 0.0)
    b_better = all(sign * (y - x) < 0 for x in a for y in b)
    b_worse = all(sign * (y - x) > 0 for x in a for y in b)
    if spread > bound and not (b_better or b_worse):
        return f"unresolved (spread {spread:.1%} > bound {bound:.0%})"
    if worse > bound:
        return f"WORSE by {worse:.1%} (bound {bound:.0%})"
    return f"{-worse:+.1%} better" if worse < 0 else f"{worse:.1%} worse, within bound"


def compare(dir_a, dir_b, spec) -> int:
    a, b = load_records(dir_a), load_records(dir_b)
    flagged = 0
    for workload in WORKLOADS:
        if workload not in a or workload not in b:
            continue
        cells = []
        for m in spec["end_to_end"]:
            va = [r["result"]["metrics"][m["name"]]["value"] for r in a[workload]]
            vb = [r["result"]["metrics"][m["name"]]["value"] for r in b[workload]]
            verdict = compare_metric(va, vb, m["better"], m["bound"])
            flagged += verdict.startswith("WORSE")
            qa, qb = quartiles(va), quartiles(vb)
            cells.append(f"{m['name']} [{m['unit']}] A {qa[1]:.5g} ({qa[0]:.5g}-{qa[2]:.5g}) "
                         f"B {qb[1]:.5g} ({qb[0]:.5g}-{qb[2]:.5g}) {verdict}")
        fa = [r["extras"].get("failed_ratio", 0.0) for r in a[workload]]
        fb = [r["extras"].get("failed_ratio", 0.0) for r in b[workload]]
        cells.append(f"failed_ratio A {median(fa):.4g} B {median(fb):.4g}")
        print(f"{workload} (runs A={len(a[workload])} B={len(b[workload])}): " + " | ".join(cells))
    return 1 if flagged else 0


# --- main -------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, all workloads, both traces")
    parser.add_argument("--results", default=str(ROOT / ".bench_results"), help="run record directory")
    parser.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"))
    args = parser.parse_args(argv)

    if not (SRC / "chm" / "__init__.py").is_file():
        print(f"error: no chm sources at {SRC / 'chm'}", file=sys.stderr)
        return 2
    # chm is imported from this checkout's src/ only after checking that it
    # is there; workloads and tracing import it in turn.
    sys.path.insert(0, str(SRC))
    global chm, tracing, worker, workloads
    import chm
    import tracing
    import worker
    import workloads

    if Path(chm.__file__).resolve().parent != (SRC / "chm").resolve():
        print(f"error: imported chm from {chm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = contract()
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)

    names = WORKLOADS if args.workload == "all" or args.quick else (args.workload,)
    traces = (0, 1) if args.quick else (args.trace,)
    seconds = args.seconds if args.seconds is not None else (1.0 if args.quick else spec["run_seconds"])
    results = [execute(w, args.seed, seconds, t, args.quick, Path(args.results), spec)
               for w in names for t in traces]
    ok = all(r["correct"] for r in results)
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({"correct": ok, "attempted": sum(r["attempted"] for r in results),
                          "failed": sum(r["failed"] for r in results)}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

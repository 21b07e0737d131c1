"""Worker process the benchmark launches; it runs chm on generated inputs.

    worker.py mix INPUTS OUT SECONDS TRACE    matrix-mix closed loop, in-process
    worker.py scan GRID DIR OUT SECONDS TRACE grid-sweep: forked `chm scan` processes
    worker.py cli OUT -- CHM_ARGS...          one traced `chm` command

Every mode times `import numpy` and then `import chm` itself. Tracing
wraps chm functions only when asked (TRACE=1 for mix and scan, always for
cli, whose untraced counterpart is the plain console-script entry point).
Results go to OUT as JSON after the timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

clock = time.perf_counter_ns

SETUP_PROBE = "import time\nimport chm\nprint(time.clock_gettime_ns(time.CLOCK_MONOTONIC))"
SETUP_EVERY_NS = 2_000_000_000


class SetupProbes:
    """Fresh-process set-up times: seconds from launch until `import chm`
    returns. `between` takes one at most every SETUP_EVERY_NS, between
    operations and outside their timing, so that the probes cover the
    whole run rather than one moment of the machine's state."""

    def __init__(self, enabled=True, env=None, cwd=None):
        self.values, self.enabled, self.env, self.cwd = [], enabled, env, cwd
        self._next = 0

    def probe(self) -> float:
        launch = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], capture_output=True,
                              text=True, env=self.env, cwd=self.cwd, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import chm failed: {proc.stderr.strip()[-300:]}")
        return (int(proc.stdout.strip()) - launch) / 1e9

    def between(self) -> None:
        if self.enabled and clock() >= self._next:
            self.values.append(self.probe())
            self._next = clock() + SETUP_EVERY_NS


def _timed_imports(extra=()):
    t0 = clock()
    import numpy  # noqa: F401

    t1 = clock()
    import chm

    for name in extra:
        __import__(name)
    t2 = clock()
    return chm, {"numpy_import_ns": t1 - t0, "chm_import_ns": t2 - t1}


def _matrix(chm, spec):
    if "matrix" in spec:
        return chm.matrix_from_obj(spec["matrix"])
    if "point" in spec:
        return chm.family_h(chm.FamilyPoint(*spec["point"]))
    return chm.named(spec["name"]).matrix


def check_matrix(chm, req):
    """The per-matrix checks of one matrix-mix request, in the order a user
    runs them. Every chm function is looked up at call time."""
    M = _matrix(chm, req["input"])
    return (
        chm.census_2x2(M),
        chm.h2_block_structure(M),
        chm.find_3x3_sub_chms(M),
        chm.real_submatrices_3x2(M),
        chm.exclusion_report(M),
        chm.mu_pair(M, _matrix(chm, req["mu"])),
        chm.are_equivalent(M, _matrix(chm, req["equiv"])),
    )


def outputs_obj(result) -> dict:
    census, h2, locs3, real, report, mu, witness = result
    return {
        "census": census.to_obj(),
        "h2": None if h2 is None else h2.to_obj(),
        "census3": [loc.to_obj() for loc in locs3],
        "real": [[list(r.rows), list(r.cols), r.rank] for r in real],
        "exclusions": report.to_obj(),
        "mu": mu.to_obj(),
        "equiv": None if witness is None else witness.to_obj(),
    }


def run_mix(inputs_path, out_path, seconds, traced) -> int:
    chm, record = _timed_imports()
    with open(inputs_path, encoding="utf-8") as fh:
        requests = json.load(fh)
    n = len(requests)
    # One untimed, untraced pass first, so lazy set-up in numpy is done.
    for req in requests:
        try:
            check_matrix(chm, req)
        except Exception:  # counted in the timed passes
            pass
    # A traced run alternates untraced and traced passes, so the tracing
    # overhead is measured on the same inputs at nearly the same moment.
    recorder = tracing.Recorder() if traced else None
    bindings = tracing.install(recorder) if traced else []

    latency_ns, pass_ns, pass_traced, first, mismatches = [], [], [], [], []
    probes = SetupProbes(enabled=not traced)
    start = clock()
    deadline = start + int(seconds * 1e9)
    while len(pass_ns) < (2 if traced else 1) or clock() < deadline:
        probes.between()
        p = len(pass_ns)
        pass_traced.append(traced and p % 2 == 1)
        tracing.switch(bindings, pass_traced[-1])
        raw = []
        pass_start = clock()
        for i, req in enumerate(requests):
            if recorder is not None:
                recorder.request = p * n + i
            t = clock()
            try:
                result, error = check_matrix(chm, req), None
            except Exception as exc:  # a failed operation; counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            raw.append((clock() - t, result, error))
        pass_ns.append(clock() - pass_start)
        # Between passes, outside the timed region: keep the first pass's
        # outputs and any later output that differs (the inputs repeat
        # every pass), so memory does not grow with the number of passes.
        for i, (ns, result, error) in enumerate(raw):
            latency_ns.append(ns)
            entry = {"output": None if result is None else outputs_obj(result), "error": error}
            if p == 0:
                first.append((entry, json.dumps(entry, sort_keys=True)))
            elif json.dumps(entry, sort_keys=True) != first[i][1]:
                mismatches.append([p * n + i, entry])
    record["pass_ns"] = pass_ns
    record["pass_traced"] = pass_traced
    record["latency_ns"] = latency_ns
    record["results"] = [entry for entry, _ in first]
    record["mismatches"] = mismatches
    record["setup_s"] = probes.values
    if recorder is not None:
        record["spans"] = recorder.spans
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


def _fork_scan(chm, argv, stdout_path, recorder):
    """Run `chm scan` in a forked child of this process, which has numpy
    and chm imported already, so the child does only the command's work
    and whatever it caches dies with it. Returns the exit code, the wall
    ns from fork to reaped exit, the child's peak RSS in kB, the fork
    time, and (traced only) the child's main-return time and spans."""
    stamp = stdout_path.with_suffix(".stamp")
    launch = clock()
    pid = os.fork()
    if pid == 0:
        code = 70
        try:
            fd = os.open(stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            os.dup2(fd, 1)
            os.close(fd)
            if recorder is not None:
                tracing.install(recorder)
            code = chm.cli.main(argv)
            done = clock()
            sys.stdout.flush()
            if recorder is not None:
                with open(stamp, "w", encoding="utf-8") as fh:
                    json.dump({"main_return_ns": done, "spans": recorder.spans}, fh)
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    _, status, usage = os.wait4(pid, 0)
    wall = clock() - launch
    done = None
    if recorder is not None and stamp.exists():
        done = json.loads(stamp.read_text(encoding="utf-8"))
        stamp.unlink()
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss, launch, done


def run_scan(grid, workdir, out_path, seconds, traced) -> int:
    chm, record = _timed_imports(("chm.cli",))
    workdir = Path(workdir)
    csv_path, stdout_path = workdir / "scan.csv", workdir / "scan.out"
    argv = ["scan", "--grid", str(grid), "--out", str(csv_path)]
    # One untimed scan first, so the first timed one finds warm file caches.
    _fork_scan(chm, argv, stdout_path, None)
    forks = []
    probes = SetupProbes(enabled=not traced, cwd=workdir)
    deadline = clock() + int(seconds * 1e9)
    while len(forks) < (2 if traced else 1) or clock() < deadline:
        probes.between()
        # A traced run alternates untraced and traced scans, so the
        # tracing overhead is measured on the same input at nearly the
        # same moment.
        recorder = tracing.Recorder() if traced and len(forks) % 2 == 1 else None
        code, wall, rss, launch, done = _fork_scan(chm, argv, stdout_path, recorder)
        # Outside the timed region: keep every digest, the first file, and
        # any file that differs from the first, for the benchmark to check.
        data = csv_path.read_bytes() if csv_path.exists() else b""
        digest = hashlib.sha256(data).hexdigest()
        if data and (not forks or digest != forks[0]["sha256"]):
            shutil.copyfile(csv_path, workdir / f"scan-{len(forks)}.csv")
        entry = {
            "code": code,
            "wall_ns": wall,
            "maxrss_kb": rss,
            "sha256": digest,
            "stdout": stdout_path.read_text(encoding="utf-8", errors="replace"),
            "traced": recorder is not None,
        }
        if done is not None:
            group = tracing.aggregate(done["spans"]).get(0, {})
            main_ns = group["cli.main"]["total_ns"] if "cli.main" in group else 0
            entry["main_return_ns"] = done["main_return_ns"] - launch
            entry["layers"] = tracing.layer_metrics(group)
            entry["start_ns"] = done["main_return_ns"] - launch - main_ns
        csv_path.unlink(missing_ok=True)
        forks.append(entry)
    record["forks"] = forks
    record["setup_s"] = probes.values
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


def run_cli(out_path, argv) -> int:
    chm, record = _timed_imports(("chm.cli",))
    recorder = tracing.Recorder()
    tracing.install(recorder)
    try:
        return chm.cli.main(argv)
    finally:
        # On the clock the parent stamps the launch with, so it can leave
        # the span dump and interpreter exit out of the start-up time.
        record["main_return_ns"] = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        sys.stdout.flush()
        record["spans"] = recorder.spans
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


def main(argv) -> int:
    if argv[:1] == ["mix"] and len(argv) == 5:
        return run_mix(argv[1], argv[2], float(argv[3]), argv[4] == "1")
    if argv[:1] == ["scan"] and len(argv) == 6:
        return run_scan(int(argv[1]), argv[2], argv[3], float(argv[4]), argv[5] == "1")
    if argv[:1] == ["cli"] and len(argv) >= 3 and argv[2] == "--":
        return run_cli(argv[1], argv[3:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""sbmfit benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload sweep-n200 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Workloads (see BENCHMARK.json for why each exists):

* ``sweep-n200``: sweep_separation at n=200 over the acceptance-07 grids,
  rendered to CSV and SVG like the CLI does; an operation is one greedy fit.
* ``cli-fit-n3000``: ``sbmfit sample``, ``fit --objective ml`` and
  ``fit --objective icl`` at n=3000 as child processes; an operation is one
  command, timed including interpreter start.
* ``exact-n10``: acceptance-06 toy instances through exact_argmax and
  greedy_argmax, then verify_all(seed) calls; an operation is one
  (graph, objective) instance.

With ``--trace 0`` the last stdout line holds the end-to-end metrics,
measured with tracing off. With ``--trace 1`` the worker replays the same
operations a second time with spans around every public sbmfit function
and the line holds the per-layer metrics instead. The line before it
records provenance. Outputs are checked on every seed; at the
fingerprint seed, SHA-256 digests of the artifacts must also match
perfbench/fingerprint.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("sweep-n200", "cli-fit-n3000", "exact-n10")
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Set-up is sampled this many times per run (setup-only workers plus the
# measuring worker) and reported as the median.
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 150.0


def run_worker(args, workdir, name, setup_only=False):
    """Start a fresh worker, wait for it, return (result, setup seconds, peak RSS MB)."""
    out = workdir / f"{name}.json"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True)
    deadline = spawned + WORKER_TIMEOUT_S
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                raise RuntimeError(f"worker {name} exceeded {WORKER_TIMEOUT_S:.0f} s")
            time.sleep(0.02)
    except BaseException:
        # Timed out or interrupted: stop the worker and its CLI children.
        os.killpg(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {name} exited with code {proc.returncode}")
    result = json.loads(out.read_text())
    return result, result["ready"] - spawned, usage.ru_maxrss / 1024.0


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args, versions):
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = done.stdout.strip() or None
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches[f"l{level}"] = size

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "src_sha256": source_digest(),
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model, "l2": caches.get("l2"), "l3": caches.get("l3"),
        "threads": THREAD_ENV, **versions,
    }


def check_fingerprint(args, digests):
    """Artifacts compared against the recorded digests, and the names that differ."""
    recorded = json.loads((BENCH_DIR / "fingerprint.json").read_text())
    if args.seed != recorded["seed"]:
        return 0, []
    expected = recorded["workloads"][args.workload]
    return len(expected), [name for name, digest in sorted(expected.items())
                           if digests.get(name) != digest]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "sbmfit" / "__init__.py").is_file():
        print(f"error: no sbmfit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    # A traced run keeps its span record; everything else in workdir is scratch.
    span_record = workdir.parent / f"spans-{args.workload}-{args.seed}.npz"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(args, workdir, f"setup{i}", setup_only=True)[1])
        result, setup_s, worker_rss = run_worker(args, workdir, "worker")
        setups.append(setup_s)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if (workdir / "spans.npz").exists():
            os.replace(workdir / "spans.npz", span_record)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    failures = list(result["failures"])
    compared, mismatched = check_fingerprint(args, result["digests"])
    failures += [f"fingerprint mismatch: {name}" for name in mismatched]
    attempted = result["attempted"] + compared
    for line in failures:
        print(f"failed: {line}", file=sys.stderr)

    values = dict(result["metrics"])
    if args.trace:
        specs = spec["per_layer"]
    else:
        specs = spec["end_to_end"]
        values["setup_s"] = statistics.median(setups)
        values["success_rate"] = (attempted - len(failures)) / attempted
        values["peak_rss_mb"] = result["child_peak_rss_mb"] or worker_rss
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    print(json.dumps({"provenance": provenance(args, result["versions"]),
                      "fingerprint": result["digests"], "ops": result["ops"],
                      "spans": str(span_record.relative_to(ROOT)) if args.trace else None}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

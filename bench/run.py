"""gxcat benchmark: cold time-to-answer on four job mixes, with layer spans.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --record

Run from the root of a checkout that holds ``src/gxcat``.  Each workload
is a fixed list of ``gxcat`` CLI jobs (see ``jobs.py`` and ``NOTES.md``).
The benchmark is one process running a closed loop with one client: it starts
the next job only after the previous child has exited.  It runs the list
once, then keeps cycling through it until ``--seconds`` have been spent,
checks every job's stdout and exit code, and prints one line of JSON last.

``--trace 0`` times cold ``python -m gxcat.cli`` children and reports the
end-to-end metrics.  ``--trace 1`` runs each job twice in a fresh child
(``child.py``), once plain and once with spans around every function of
every ``gxcat`` module, and reports the per-layer metrics.  ``--record``
runs seed 0 once and stores each job's stdout sha256 and label-free fields
in ``expected.json``, the reference the checks compare against.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import jobs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CORPUS = SRC / "gxcat" / "corpus"
WORK = BENCH / ".work"
RESULTS = BENCH / "results"
EXPECTED = BENCH / "expected.json"

SETUP_RUNS = 7
JOB_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 165.0  # a run must end within 180 s
LAYERS = ("groups", "snf", "cyclo", "exact", "cohomology", "chartab", "fusion", "gauging", "pointed",
          "serialize", "corpus", "cli")
PER_LAYER_UNITS = {f"{layer}.{field}": unit for layer in LAYERS for field, unit in (("calls", "count"), ("self_s", "s"))}
PER_LAYER_UNITS.update({"snf.cells_in": "count", "snf.repeat_share": "ratio", "cli.import_s": "s",
                        "trace.residual_s": "s", "trace.overhead_share": "ratio"})
# A fixed process that runs no gxcat code: interpreter start-up, the numpy,
# click and json imports and a short pure-Python loop.  It runs right before
# every timed child, and the child's wall time is divided by its wall time.
# The speed of a shared host drifts by up to a third within minutes, and both
# processes drift together, so the ratio stays steady (see NOTES.md).
REF_CMD = [sys.executable, "-c", "import numpy, click, json\nx = 0\nfor i in range(400000):\n    x += i * i"]
REF_S = 0.24  # median wall time of REF_CMD on the host the benchmark was calibrated on


def child_env():
    """Children import gxcat from the absolute src path, so they work from any
    cwd without an installed package, and run numpy on one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def launch(cmd, env, timeout):
    """Run ``cmd`` to completion; return (exit code or None on timeout, wall
    seconds, peak RSS in MB of this child from ``os.wait4``, stdout)."""
    out_path = WORK / "stdout"
    with open(out_path, "wb") as out, open(WORK / "stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if killed.is_set() else proc.returncode
    stdout = out_path.read_bytes().replace(str(SRC).encode(), b"$SRC")
    return code, wall, usage.ru_maxrss / 1024.0, stdout


def build(env):
    """Byte-compile the sources once, as an install would."""
    proc = subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "gxcat")],
                          env=env, cwd=ROOT, capture_output=True, timeout=120)
    if proc.returncode:
        raise SystemExit(f"error: compileall failed:\n{proc.stdout.decode()}{proc.stderr.decode()}")


def timed(cmd, env, timeout):
    """launch() after the reference process; also return the reference's wall
    time and the normalized wall time ``wall / reference * REF_S``."""
    ref_code, ref_wall, _, _ = launch(REF_CMD, env, 60)
    code, wall, rss, stdout = launch(cmd, env, timeout)
    return code, wall, ref_wall, wall / ref_wall * REF_S if ref_code == 0 else None, rss, stdout


def measure_setup(env):
    """Median normalized cold start until the CLI is ready: ``python -m
    gxcat.cli --help``.  Also returns the raw (wall, reference) pairs."""
    norms, pairs = [], []
    for _ in range(SETUP_RUNS):
        code, wall, ref_wall, norm, _, stdout = timed([sys.executable, "-m", "gxcat.cli", "--help"], env, 60)
        if code != 0 or norm is None or b"Usage" not in stdout:
            return None, pairs
        norms.append(norm)
        pairs.append((wall, ref_wall))
    return statistics.median(norms), pairs


def run_loop(workload, seed, seconds, trace, env, expected, deadline):
    """Cycle through the workload's jobs; return one record per job run."""
    job_list = jobs.workload_jobs(workload, CORPUS)
    records, by_id = [], {}
    t0 = time.perf_counter()
    rep = 0
    while True:
        for job, argv in jobs.materialize(job_list, seed, rep, CORPUS, WORK):
            now = time.perf_counter()
            if rep and now - t0 + statistics.median(by_id[job["id"]]) > seconds:
                return records
            rec = {"id": job["id"], "rep": rep, "argv": argv}
            if now >= deadline:
                rec.update(code=None, wall_s=None, rss_mb=None, error="exit >T, not started before the deadline")
            elif trace:
                rec.update(run_traced(job, argv, env, expected, deadline))
            else:
                code, wall, ref_wall, norm, rss, stdout = timed([sys.executable, "-m", "gxcat.cli", *argv], env,
                                                                min(JOB_TIMEOUT_S, deadline - now))
                error = verify(job, argv, code, stdout, expected)
                if error is None and norm is None:
                    error = "the reference process failed"
                rec.update(code=code, wall_s=wall, ref_s=ref_wall, norm_s=norm, rss_mb=rss, error=error)
            records.append(rec)
            by_id.setdefault(job["id"], []).append((rec["wall_s"] or JOB_TIMEOUT_S) + rec.get("ref_s", 0.0))
        rep += 1


def run_traced(job, argv, env, expected, deadline):
    """Run the job in-process in two fresh children, plain then spanned."""
    out = {}
    for mode in ("plain", "traced"):
        summary = WORK / f"summary_{mode}.json"
        summary.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "child.py"), "--out", str(summary)]
        cmd += ["--trace", "--", *argv] if mode == "traced" else ["--", *argv]
        code, wall, rss, stdout = launch(cmd, env, min(JOB_TIMEOUT_S, deadline - time.perf_counter()))
        out[mode] = {"code": code, "wall_s": wall, "rss_mb": rss, "stdout": stdout,
                     "summary": json.loads(summary.read_text()) if summary.exists() else None}
    plain, traced = out["plain"], out["traced"]
    error = verify(job, argv, plain["code"], plain["stdout"], expected)
    if error is None and (traced["stdout"] != plain["stdout"] or traced["code"] != plain["code"]):
        error = "traced stdout or exit code differs from the plain run"
    if error is None and None in (plain["summary"], traced["summary"]):
        error = "child wrote no summary"
    return {"code": plain["code"], "wall_s": plain["wall_s"] + traced["wall_s"],
            "rss_mb": max(plain["rss_mb"], traced["rss_mb"]), "error": error,
            "plain": plain["summary"], "traced": traced["summary"]}


def verify(job, argv, code, stdout, expected):
    golden = (CORPUS / job["golden"]).read_bytes() if job["golden"] else None
    return jobs.check(job, argv, code, stdout, expected[job["id"]], golden)


def per_job(records, key):
    """Per job id, the values of ``key`` over the runs that completed."""
    out = {}
    for r in records:
        if r["error"] is None:
            out.setdefault(r["id"], []).append(key(r))
    return out


def end_to_end(records, setup_s):
    """Normalized timings count every job that ran, whether or not its output
    was right."""
    norms = {}
    for r in records:
        if r.get("norm_s") is not None:
            norms.setdefault(r["id"], []).append(r["norm_s"])
    medians = [statistics.median(v) for v in norms.values()]
    return {
        "wall_s": (sum(medians), "s"),
        "job_s.p50": (statistics.median(medians), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in records if r["rss_mb"] is not None), "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(records):
    """Layer metrics for one pass over the job list: per job, the mean over
    its runs, summed over jobs; shares are taken over all runs."""
    done = [r for r in records if r["error"] is None]
    if not done:
        return {name: (0.0, unit) for name, unit in PER_LAYER_UNITS.items()}

    def per_pass(key):
        return sum(statistics.fmean(v) for v in per_job(done, key).values())

    def layer(r, name, field):
        return r["traced"]["layers"].get(name, {}).get(field, 0)

    values = {}
    for name in LAYERS:
        values[f"{name}.calls"] = per_pass(lambda r: layer(r, name, "calls"))
        values[f"{name}.self_s"] = per_pass(lambda r: layer(r, name, "self_s"))
    snf_calls = sum(layer(r, "snf", "calls") for r in done)
    values["snf.cells_in"] = per_pass(lambda r: r["traced"]["snf_cells_in"])
    values["snf.repeat_share"] = sum(r["traced"]["snf_repeats"] for r in done) / max(snf_calls, 1)
    values["cli.import_s"] = statistics.median(r["plain"]["import_s"] for r in done)
    values["trace.residual_s"] = per_pass(residual)
    values["trace.overhead_share"] = (sum(r["traced"]["inproc_s"] for r in done)
                                      / sum(r["plain"]["inproc_s"] for r in done) - 1)
    return {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def residual(r):
    """Traced in-process time that no layer's self time accounts for."""
    return r["traced"]["inproc_s"] - sum(v["self_s"] for v in r["traced"]["layers"].values())


def metadata(seed):
    def git(*args):
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    is_repo = (ROOT / ".git").exists()  # a plain checkout has no git metadata to read
    sources = sorted((SRC / "gxcat").rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": git("rev-parse", "HEAD") if is_repo else None,
        "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")) if is_repo else None,
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "click": importlib.metadata.version("click"),
        "seed": seed,
    }


def report(workload, trace, records, setup_pairs):
    """Print one line per job and name every failure."""
    print(f"# {workload}: {len({r['id'] for r in records})} jobs, {len(records)} job runs"
          + (", traced" if trace else ""))
    for job_id, walls in per_job(records, lambda r: r["wall_s"]).items():
        runs = [r for r in records if r["id"] == job_id and r["error"] is None]
        rss = max(r["rss_mb"] for r in runs)
        line = f"#   {statistics.median(walls):8.3f} s"
        if trace:
            line += f"  {rss:6.1f} MB  x{len(walls)}  {job_id}"
            line += f"  residual {statistics.fmean(residual(r) for r in runs) * 1e3:.2f} ms"
        else:
            line += f" ({statistics.median(r['norm_s'] for r in runs):.3f} s normalized)"
            line += f"  {rss:6.1f} MB  x{len(walls)}  {job_id}"
        print(line)
    for r in records:
        if r["error"]:
            print(f"# FAILED {r['id']} (pass {r['rep']}): {r['error']}")
    if setup_pairs:
        print("# setup runs (wall/reference): " + " ".join(f"{w:.3f}/{r:.3f}" for w, r in setup_pairs))


def record_expected(workload, env):
    """Store the seed-0 reference outputs of ``workload`` in expected.json."""
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    entries = {}
    for job, argv in jobs.materialize(jobs.workload_jobs(workload, CORPUS), 0, 0, CORPUS, WORK):
        code, _, _, stdout = launch([sys.executable, "-m", "gxcat.cli", *argv], env, JOB_TIMEOUT_S)
        if code != job["exit"]:
            raise SystemExit(f"error: {job['id']} exited {code}, expected {job['exit']}")
        entry = {"sha256": jobs.digest(stdout)}
        if job["group"]:
            entry["label_free"] = jobs.label_free(argv, json.loads(stdout))
        entries[job["id"]] = entry
    expected[workload] = entries
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(entries)} jobs of {workload} in {EXPECTED}")


def main():
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if not (SRC / "gxcat" / "cli.py").is_file():
        print(f"error: no gxcat sources at {SRC / 'gxcat'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    env = child_env()
    build(env)
    if args.record:
        record_expected(args.workload, env)
        return 0
    expected = json.loads(EXPECTED.read_text())[args.workload]
    meta = metadata(args.seed)
    setup_s, setup_pairs = (None, []) if args.trace else measure_setup(env)
    setup_ok = bool(args.trace) or setup_s is not None
    records = run_loop(args.workload, args.seed, args.seconds, args.trace, env, expected,
                       start + RUN_DEADLINE_S)
    failed = sum(r["error"] is not None for r in records)
    metrics = per_layer(records) if args.trace else end_to_end(records, setup_s or 0.0)
    meta["loadavg_end"] = list(os.getloadavg())
    report(args.workload, args.trace, records, setup_pairs)
    print(f"# fail_share = {failed}/{len(records)} = {failed / len(records):.4f}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {"meta": meta, "metrics": metrics, "records": records}, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": failed == 0 and setup_ok,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""shiftsieve benchmark: one workload, closed loop, one client.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload eigen-tables --seed 1 --seconds 20 --trace 0

The process imports `shiftsieve` from `src/`, builds the workload's job list
from the seed, then runs whole rounds of that list (every job once, in
order, each waiting for the previous one) until `--seconds` have passed.
Jobs call `shiftsieve.cli.main(argv)` in-process; `sieve-shifts` also calls
`shifted.sieve_side_bound`.  After each round every output is checked by
`checks.py`, and a job whose call raised, exited with the wrong code or
wrote an output that fails its check counts as failed.

With `--trace 0` the last line of standard output is the end-to-end
result.  With `--trace 1` rounds alternate untraced and traced (`spans.py`),
every output must stay byte-identical, and the per-layer metrics are
printed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s", "job_max_s": "s",
                    "peak_rss_mb": "MB"}


def import_program(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "shiftsieve", "__init__.py")):
        raise SystemExit(f"error: no shiftsieve sources under {src}")
    sys.path.insert(0, src)
    from shiftsieve import cli
    return cli


def measure_setup(args) -> float:
    """Median, over fresh interpreters, of the time from spawn until the
    program is imported and the inputs are generated."""
    cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py"),
           args.workload, str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit(f"setup probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(times)


def environment() -> dict:
    from shiftsieve import intpoly

    try:
        mpmath_version = metadata.version("mpmath")
    except metadata.PackageNotFoundError:
        mpmath_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath_version,
        "bigint_backend": "CPython" if getattr(intpoly, "_mpz", int) is int else "gmpy2",
        "nproc": len(os.sched_getaffinity(0)),
    }


def reset_program_caches() -> None:
    """Return the library's process-wide caches (lru caches, the grown prime
    table) to their import-time state, so that every round does the work a
    fresh process would."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("shiftsieve"):
            continue
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    from shiftsieve import arith
    if hasattr(arith, "_primes_limit"):
        arith._primes = arith._primes[:0]
        arith._primes_limit = 0


@dataclass
class JobResult:
    seconds: float = 0.0
    rc: int | None = None
    stderr: str = ""
    exc: Exception | None = None
    out: str | None = None        # output file of a CLI job
    value: tuple | None = None    # (value, cells, contributing) of a library call


def run_job(cli, job: workloads.Job, work: str) -> JobResult:
    res = JobResult()
    if job.check == "sieve_bound":
        from shiftsieve import arith, shifted
        p = job.params
        limit = int(p["x"]) + abs(p["ell"])
        start = time.perf_counter()
        try:
            if p["function"] == "one":
                handle = shifted.unit_handle(limit)
            else:
                handle = shifted.tau_handle(int(p["function"][3:]), limit)
            params = arith.make_params(p["x"], p["epsilon"])
            bound = shifted.sieve_side_bound(handle, handle, params, p["ell"])
            res.value = (bound.value, bound.cells, bound.contributing_cells)
        except Exception as exc:  # counted as a failed operation
            res.exc = exc
        res.seconds = time.perf_counter() - start
        return res

    res.out = os.path.join(work, f"{job.name}.{job.fmt}")
    if os.path.exists(res.out):
        os.remove(res.out)
    argv = list(job.argv) + ["--out", res.out, "--format", job.fmt]
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            res.rc = cli.main(argv)
    except Exception as exc:  # counted as a failed operation
        res.exc = exc
    res.seconds = time.perf_counter() - start
    res.stderr = err.getvalue()
    return res


def check_job(job: workloads.Job, res: JobResult, done: dict, rng) -> list[str]:
    """Problems with one job's result; `done` carries tables between jobs."""
    if job.check == "rejected":
        return checks.check_one_error_line(res.rc, res.stderr, res.exc)
    if res.exc is not None:
        return [f"{type(res.exc).__name__}: {res.exc}"]
    p = job.params
    if job.check == "sieve_bound":
        s_small = done.get(("s_small", p["shifted"]))
        if s_small is None:
            return ["no checked shifted output to compare with"]
        return checks.check_sieve_bound(*res.value, s_small)
    if res.rc != 0 or res.stderr:
        return [f"exit {res.rc}, stderr {res.stderr.strip()!r}"]
    rows = checks.read_rows(res.out, job.fmt)

    if job.check == "eigenform":
        a, lam = checks.parse_eigenform(rows)
        done[("table", job.name)] = lam
        return checks.check_eigenform(a, lam, p["weight"], p["cutoff"], rng)
    if job.check == "mk":
        lam = done.get(("table", p["table"]))
        if lam is None or len(rows) != 1:
            return ["no eigenvalue table, or not one row"]
        return checks.check_mk(rows[0], p["weight"], p["cutoff"], lam)
    if job.check == "shifted":
        if len(rows) != 1:
            return [f"{len(rows)} rows"]
        limit = int(p["x"]) + abs(p["ell"])
        if "table" in p:
            lam = done.get(("table", p["table"]))
            if lam is None:
                return ["no eigenvalue table"]
            values, exact = np.abs(np.array(lam[: limit + 1])), False
        elif p["function"] == "one":
            values, exact = np.ones(limit + 1, dtype=np.int64), True
            values[0] = 0
        else:
            values, exact = checks.tau_m_table(int(p["function"][3:]), limit), True
        problems = checks.check_shifted(rows[0], values, p["x"], p["ell"], p["epsilon"], exact)
        if not problems:
            done[("s_small", job.name)] = float(rows[0]["s_small"])
        return problems
    if job.check == "sievecheck":
        return checks.check_sievecheck(rows, p["count"], rng)
    if job.check == "aell":
        problems = checks.check_aell(rows, p["ell"], p["y"])
        value = done[("aell", job.name)] = float(rows[0]["value"])
        if "mirror" in p:
            mirror = done.get(("aell", p["mirror"]))
            if mirror is None or abs(value - mirror) > 1e-12:
                problems.append(f"a_{p['ell']}({p['y']}) = {value!r}, a_{-p['ell']} = {mirror!r}")
        return problems
    if job.check == "wweight":
        return checks.check_wweight(rows, p["ell"])
    return {
        "bessel": checks.check_bessel,
        "theta": checks.check_theta,
        "gammaratio": checks.check_gammaratio,
    }[job.check](rows)


def output_digest(res: JobResult) -> str:
    if res.out is None:
        return repr((res.value, type(res.exc).__name__ if res.exc else None))
    if not os.path.exists(res.out):
        return "missing"
    with open(res.out, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def run_rounds(args, cli, jobs, work, log) -> dict:
    """Whole rounds until the deadline.  Untraced: every round is measured.
    Traced: rounds alternate untraced (even) and traced (odd), ending after
    a traced one; every output must match round 0 byte for byte."""
    deadline = time.perf_counter() + args.seconds
    tracer = spans.Tracer() if args.trace else None
    walls, job_times, round_max = [], [], []
    untraced_walls, layer_rounds = [], []
    baseline = None
    peak_rss_mb = 0.0
    attempted = failed = 0
    unexpected = []
    check_s = 0.0
    round_no = 0
    while True:
        traced = args.trace and round_no % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        reset_program_caches()
        start = time.perf_counter()
        results = [run_job(cli, job, work) for job in jobs]
        wall = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        if round_no == 0:
            # the program's own peak: before any check allocates, and the
            # same however many rounds fit in the run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        start = time.perf_counter()
        done: dict = {}
        rng = random.Random(f"check/{args.workload}/{args.seed}/{round_no}")
        for job, res in zip(jobs, results):
            attempted += 1
            try:
                problems = check_job(job, res, done, rng)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            if problems:
                failed += 1
                if not job.fault:
                    unexpected.append(f"{job.name}: {problems[0]}")
                if round_no == 0:
                    log(f"failed {'(known fault) ' if job.fault else ''}{job.name}: {problems[0]}")
        check_s += time.perf_counter() - start

        if args.trace:
            digests = [output_digest(r) for r in results]
            baseline = baseline or digests
            for job, a, b in zip(jobs, baseline, digests):
                if a != b:
                    unexpected.append(f"{job.name}: output of round {round_no} differs")
            if traced:
                layer = tracer.snapshot()
                layer["cli.output_bytes"] = float(sum(
                    os.path.getsize(r.out) for r in results if r.out and os.path.exists(r.out)))
                layer["trace.wall_s"] = wall
                layer_rounds.append(layer)
            else:
                untraced_walls.append(wall)
        else:
            walls.append(wall)
            job_times.extend(r.seconds for r in results)
            round_max.append(max(r.seconds for r in results))
        round_no += 1
        if time.perf_counter() >= deadline and (not args.trace or traced):
            break

    med = statistics.median
    if args.trace:
        metrics = {key: med([r[key] for r in layer_rounds]) for key in layer_rounds[0]}
        # round 0 also pays first-use costs; leave it out when there are others
        untraced = med(untraced_walls[1:] or untraced_walls)
        metrics["trace.untraced_wall_s"] = untraced
        metrics["trace.overhead_pct"] = 100.0 * (metrics["trace.wall_s"] / untraced - 1.0)
    else:
        metrics = {
            "wall_s": med(walls),
            "job_p50_s": med(job_times),
            "job_max_s": med(round_max),
            "peak_rss_mb": peak_rss_mb,
        }
    return {"attempted": attempted, "failed": failed, "unexpected": unexpected,
            "rounds": round_no, "check_s": check_s, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    root = os.getcwd()
    cli = import_program(root)
    setup_s = None if args.trace else measure_setup(args)
    jobs = workloads.make_jobs(args.workload, args.seed)
    print("env " + json.dumps(environment(), sort_keys=True), flush=True)

    work = os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        outcome = run_rounds(args, cli, jobs, work, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = outcome["metrics"]
    if setup_s is not None:
        metrics["setup_s"] = setup_s
    report = {
        name: {"value": value,
               "unit": END_TO_END_UNITS[name] if name in END_TO_END_UNITS
               else spans.PER_LAYER[name][0]}
        for name, value in metrics.items()
    }
    for line in outcome["unexpected"][:20]:
        log(f"unexpected failure: {line}")
    log(f"{outcome['rounds']} rounds, {outcome['attempted']} operations, "
        f"{outcome['failed']} failed, {outcome['check_s']:.2f} s checking")
    print(json.dumps({
        "correct": not outcome["unexpected"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

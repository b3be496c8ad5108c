"""One workload process: set-up, then a timed closed loop or a traced run.

Started by run.py with the thread pins and PYTHONPATH already in its
environment.  It prints "READY" once set-up is done (inputs generated and
one warm-up job of each kind run), then one JSON line with the run's
result.  With --setup-only it sets up, prints one JSON line with the CPU
seconds the set-up took and the CPU times of probes run right after, and
exits; the timed run starts such processes to measure set-up.  Every file
it writes lives in a private directory under bench/.work/, removed on
exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import jobs  # sibling modules: the script's directory is sys.path[0]
from tracer import Tracer

BENCH = Path(__file__).resolve().parent

# Time of probe() on a fast stretch of the reference host (Python 3.11.7,
# numpy 2.4.6).  Scaled times read as if every probe had taken this long.
PROBE_REF_S = 0.0038
PROBE_EVERY_S = 0.2
# Probes on each side of a job whose median scales the job's time.
PROBE_WINDOW = 2
# Set-up processes per timed run, spread over the timed phase, and the
# probes run just before and just after each of them.
SETUPS = 5
SETUP_PROBES = 8
SETUP_TIMEOUT_S = 60.0
_PROBE_RNG = np.random.default_rng(0)
_PROBE_INTS = _PROBE_RNG.integers(0, 1 << 20, (3000, 2))
_PROBE_MATS = _PROBE_RNG.standard_normal((40, 5, 3))


def probe():
    """Time a fixed slice of interpreter, small-LAPACK and sorting work that
    uses no furstlab code; return its (wall, CPU) seconds.  Against its
    time on the reference host, it tells how fast the host is just now."""
    t0 = time.perf_counter()
    c0 = time.process_time()
    acc = {}
    for i in range(4000):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + i * i
    for m in _PROBE_MATS:
        np.linalg.qr(m)
        np.linalg.svd(m)
    np.unique(_PROBE_INTS >> 2, axis=0)
    return time.perf_counter() - t0, time.process_time() - c0


def pin_fastest_cpu(probes: int = 15):
    """Pin this process, and so every process it starts, to the allowed CPU
    on which probe() runs fastest now.  The CPUs of a shared host can differ
    in speed by 1.5x; pinned, the jobs, the set-ups and the probes that
    scale them all run on the same one.  Returns the CPU, or None where
    affinity cannot be set."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    allowed = os.sched_getaffinity(0)
    speed = {}
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = statistics.median(probe()[1] for _ in range(probes))
        best = min(speed, key=speed.get)
        os.sched_setaffinity(0, {best})
    except OSError:
        os.sched_setaffinity(0, allowed)
        return None
    return best


def run_jobs(joblist, outs: Path, prefix: str, tracer=None, probes=None):
    """Closed loop with one client: each job starts when the last returns.
    With a `probes` list, a probe runs between jobs at most every
    PROBE_EVERY_S seconds, outside every job's timer, and each record keeps
    the index of the last probe before its job."""
    records = []
    last = -PROBE_EVERY_S
    for i, job in enumerate(joblist):
        if probes is not None and time.perf_counter() - last >= PROBE_EVERY_S:
            probes.append(probe())
            last = time.perf_counter()
        if tracer is not None:
            tracer.job = i
        records.append(jobs.execute(job, outs / f"{prefix}{i}"))
        if probes is not None:
            records[-1].probe = len(probes) - 1
        if tracer is not None:
            tracer.job = None
    return records


def judge(records) -> dict:
    """Per-job verdicts, read after every timer has stopped."""
    reasons = {}
    for i, rec in enumerate(records):
        jobs.collect(rec)
        why = jobs.verdict(rec)
        if why is not None:
            reasons[i] = why
    return reasons


def determinism(wl, work: Path, warm) -> dict:
    """Re-run each kind's warm-up with the same inputs; the artifacts must
    match byte for byte.  Returns {kind name: reason} for kinds whose
    warm-up gave a wrong output or differed on the repeat."""
    again = run_jobs([k.warmup for k in wl.kinds], work / "out", "again-")
    bad = {}
    for kind, first, second in zip(wl.kinds, warm, again):
        jobs.collect(second)
        why = jobs.verdict(first)
        if why is None and first.artifacts != second.artifacts:
            why = "artifacts differ from a same-seed repeat"
        if why is not None and not why.startswith("raised"):
            bad[kind.name] = f"warm-up: {why}"
    return bad


def percentile(values, pct: int):
    """Nearest-rank percentile, and how many values lie beyond it."""
    ordered = sorted(values)
    idx = max(0, -(-pct * len(ordered) // 100) - 1)
    return ordered[idx], len(ordered) - 1 - idx


def timing(records, reasons, wall: float, tail_pct: int, probes):
    """End-to-end timing metrics from each kind's median scaled job time.

    The host's speed changes by 1.5x to 2x within seconds, so a raw job
    time mostly measures the host.  Each job's time is multiplied by
    PROBE_REF_S over the median wall time of the probes around it
    (PROBE_WINDOW on each side, about a second, on the same CPU), so a job
    run on a slow stretch reads as it would on the reference host.  A
    kind's time is the median of its scaled jobs, and every run holds whole
    cycles, so each kind counts once:
      jobs_per_s  = passing share per kind, summed, over the summed kind times
      job_p50_s   = median of the kind times
      job_tail_s  = the workload's tail percentile of the kind times
    The raw figures go to the info line."""
    walls = [wall_s for wall_s, _ in probes]
    scaled, passed, raw = {}, {}, []
    for i, rec in enumerate(records):
        near = walls[max(0, rec.probe - PROBE_WINDOW):rec.probe + PROBE_WINDOW + 1]
        scaled.setdefault(rec.job.kind, []).append(rec.seconds * PROBE_REF_S / statistics.median(near))
        passed.setdefault(rec.job.kind, []).append(i not in reasons)
        raw.append(rec.seconds)
    kind_s = {kind: statistics.median(v) for kind, v in scaled.items()}
    times = list(kind_s.values())
    share = sum(sum(v) / len(v) for v in passed.values())
    tail_s, _ = percentile(times, tail_pct)
    raw_tail, beyond = percentile(raw, tail_pct)
    metrics = {
        "jobs_per_s": {"value": share / sum(times), "unit": "1/s"},
        "job_p50_s": {"value": statistics.median(times), "unit": "s"},
        "job_tail_s": {"value": tail_s, "unit": "s"},
    }
    info = {
        "kind_s": kind_s,
        "raw": {"jobs_per_s": (len(records) - len(reasons)) / wall, "job_p50_s": statistics.median(raw),
                "job_tail_s": raw_tail, "wall_s": wall},
        "job_tail": {"percentile": tail_pct, "jobs": len(raw), "raw_jobs_beyond": beyond},
    }
    return metrics, info


def summarize(records, reasons, bad_kinds):
    """A kind whose warm-up failed its check fails every job of that kind.
    Returns (failed jobs, whether every output was right, first failure
    reason per kind)."""
    for i, rec in enumerate(records):
        if i not in reasons and rec.job.kind in bad_kinds:
            reasons[i] = bad_kinds[rec.job.kind]
    correct = all(r.startswith("raised") for r in reasons.values())
    by_kind = {}
    for i, why in sorted(reasons.items()):
        by_kind.setdefault(records[i].job.kind, why)
    return len(reasons), correct, by_kind


def setup_process(argv):
    """Run one fresh workload process that only sets up.  Returns the CPU
    seconds it spent from its start to the end of its set-up, and the
    median CPU time of the probes run on the same CPU just before it (here)
    and just after its set-up (in it): the host's speed changes within
    seconds, so only probes next to a set-up tell how fast the host was
    during it."""
    before = [probe()[1] for _ in range(SETUP_PROBES)]
    done = subprocess.run([sys.executable, str(BENCH / "workload.py"), *argv, "--setup-only"],
                          stdout=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    report = json.loads(done.stdout.splitlines()[-1])
    return report["setup_cpu_s"], statistics.median(before + report["probe_cpu_s"])


def timed_phase(wl, work: Path, seconds: float, setup_argv):
    """The closed loop, with SETUPS set-up processes run between cycles and
    spread over it, outside the loop's clock, so the set-ups and the probes
    sample the same stretch of the host."""
    records, probes, setups = [], [], []
    paused = 0.0
    start = time.perf_counter()
    cycles = 0
    while True:
        records += run_jobs(wl.cycle(cycles), work / "out", f"c{cycles}-", probes=probes)
        cycles += 1
        elapsed = time.perf_counter() - start - paused
        while len(setups) < min(SETUPS, SETUPS * elapsed / seconds):
            t0 = time.perf_counter()
            setups.append(setup_process(setup_argv))
            paused += time.perf_counter() - t0
        # Whole cycles only, so every run holds the same mix of kinds.
        if elapsed + 0.5 * elapsed / cycles >= seconds:
            break
    wall = time.perf_counter() - start - paused
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups) < SETUPS:
        setups.append(setup_process(setup_argv))
    return records, wall, cycles, rss_mb, probes, setups


def traced_phase(wl, work: Path):
    """One cycle untraced, then the same cycle traced."""
    joblist = wl.cycle(0)
    t0 = time.perf_counter()
    plain = run_jobs(joblist, work / "out", "plain-")
    plain_wall = time.perf_counter() - t0
    tr = Tracer()
    tr.install()
    t0 = time.perf_counter()
    traced = run_jobs(joblist, work / "out", "traced-", tr)
    traced_wall = time.perf_counter() - t0
    job_s = sum(r.seconds for r in traced)
    span_s = sum(tr.self_s.values())
    metrics = tr.metrics()
    metrics.update({
        "trace.jobs_per_s": {"value": len(traced) / traced_wall, "unit": "1/s"},
        "trace.untraced_jobs_per_s": {"value": len(plain) / plain_wall, "unit": "1/s"},
        "trace.overhead": {"value": traced_wall / plain_wall, "unit": "ratio"},
        "trace.job_s": {"value": job_s, "unit": "s"},
        "trace.self_s": {"value": span_s, "unit": "s"},
        "trace.coverage": {"value": span_s / job_s, "unit": "ratio"},
    })
    return plain + traced, metrics, tr


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(jobs.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    cpu = None if args.setup_only else pin_fastest_cpu()
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / ".work"))
    try:
        wl = jobs.build(args.workload, work, args.seed)
        warm = []
        for kind in wl.kinds:
            rec = jobs.execute(kind.warmup, jobs.warmup_dir(work, kind.name))
            jobs.collect(rec)
            warm.append(rec)
        if args.setup_only:
            setup_cpu = time.process_time()
            after = [probe()[1] for _ in range(SETUP_PROBES)]
            print(json.dumps({"setup_cpu_s": setup_cpu, "probe_cpu_s": after}), flush=True)
            return 0
        print("READY", flush=True)

        info = {
            "workload": args.workload,
            "seed": args.seed,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "pinned_cpu": cpu,
            "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        }
        if args.trace:
            records, metrics, tr = traced_phase(wl, work)
            info["spans"] = len(tr.spans)
        else:
            setup_argv = ["--workload", args.workload, "--seed", str(args.seed)]
            records, wall, cycles, rss_mb, probes, setups = timed_phase(wl, work, args.seconds, setup_argv)
        reasons = judge(records)
        failed, correct, by_kind = summarize(records, reasons, determinism(wl, work, warm))
        attempted = len(records)
        if not args.trace:
            metrics, extra = timing(records, reasons, wall, wl.tail_pct, probes)
            metrics["pass_frac"] = {"value": (attempted - failed) / attempted, "unit": "ratio"}
            metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
            # Each set-up scaled by its own probes, like the job times by theirs.
            scaled = [cpu_s * PROBE_REF_S / probe_s for cpu_s, probe_s in setups]
            metrics["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
            info.update(extra, cycles=cycles, probes=len(probes),
                        probe_median_s=statistics.median(wall_s for wall_s, _ in probes),
                        setup_cpu_s=[cpu_s for cpu_s, _ in setups],
                        setup_probe_s=[probe_s for _, probe_s in setups])
        info["failures"] = by_kind
        print(json.dumps({"info": info, "correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": metrics}), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""furstlab benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload fractal --seed 1 --seconds 22 --trace 0

Run from the root of a checkout; furstlab is imported from its src/.
Each run starts one fresh workload process with single-threaded BLAS.  It
sets up and then either runs the timed closed loop (--trace 0) or the
traced run (--trace 1).  The timed loop also measures setup_s: it starts
workload.SETUPS fresh processes that only set up, spread over the loop,
and reports the median of their CPU times from process start to the end
of set-up, scaled to the reference host by the probe (see workload.py).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the environment,
the job counts and the first failure reason of each job kind.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ["fractal", "sampling", "finite", "sweep"]
DEADLINE_S = 170.0
PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RunError(RuntimeError):
    pass


def stop_group(proc) -> None:
    """Kill whatever is left of the workload process's group and wait, a
    few seconds at most, until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(50):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.1)


def workload_process(args, deadline: float):
    """Start the workload process; return (set-up seconds, last stdout line)."""
    env = dict(os.environ, **PINS, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    start = time.perf_counter()
    # A session of its own, so that the set-up processes it starts can be
    # stopped with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    setup = None
    lines = []
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                left = deadline - time.perf_counter()
                if left <= 0 or not sel.select(timeout=left):
                    raise RunError("workload process ran past the deadline")
                line = proc.stdout.readline()
                if not line:
                    break
                if line.strip() == "READY" and setup is None:
                    setup = time.perf_counter() - start
                else:
                    lines.append(line)
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        stop_group(proc)
        proc.stdout.close()
    if code != 0 or setup is None:
        raise RunError(f"workload process exited with {code} before finishing")
    return setup, (lines[-1] if lines else None)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "furstlab" / "__init__.py").is_file():
        print(f"no furstlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    try:
        setup, line = workload_process(args, deadline)
        result = json.loads(line)
    except (RunError, subprocess.TimeoutExpired, TypeError, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    result["info"]["setup_wall_s"] = setup
    print(json.dumps(result.pop("info"), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

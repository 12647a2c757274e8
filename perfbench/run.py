"""Layered benchmark of the PA generator and its analysis stack.

Run from the repository root::

    python3 perfbench/run.py --workload copy-mp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

A run sets the workload up three times (imports, inputs, any cold
analyser, one warm-up operation), then repeats the timed operation for
``--seconds`` in a closed loop, one operation at a time, each under a
wall-clock deadline.  Afterwards it checks the outputs independently and
prints one JSON object as the last line of stdout: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import multiprocessing
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPS = 3
MIN_ROUNDS = 3
#: far above any operation's 0.5-2 s, and low enough that one hung
#: operation still leaves the run inside 180 s
DEADLINE_S = 40.0
IMPORTS = "import repro, repro.distgraph, repro.dyngraph"


class DeadlineExceeded(Exception):
    """An operation outlived its wall-clock deadline."""


@contextmanager
def deadline(seconds: float):
    """Raise :class:`DeadlineExceeded` in the main thread after ``seconds``.

    The program may wrap the exception (a rank program's failure becomes a
    ``RankFailure``); callers count any exception as a failed operation.
    """
    def on_alarm(signum, frame):
        raise DeadlineExceeded(f"no result within {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def reap_children() -> None:
    """Stop and wait for every worker a failed operation left behind."""
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()


#: from <linux/prctl.h>
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants.

    A forked worker that creates shared memory starts a multiprocessing
    resource tracker of its own, which outlives the worker.  As a
    subreaper this process inherits such orphans and waits for them
    (:func:`reap_orphans`) instead of leaving them to init.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        sys.exit("perfbench: prctl(PR_SET_CHILD_SUBREAPER): "
                 + os.strerror(ctypes.get_errno()))


def child_pids() -> list[int]:
    """Pids whose parent is this process, read from ``/proc/<pid>/stat``."""
    me, pids = os.getpid(), []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            stat = Path(entry.path, "stat").read_text()
        except OSError:  # it exited meanwhile
            continue
        if int(stat.rpartition(")")[2].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def reap_orphans(grace: float = 0.0) -> None:
    """Wait for the adopted children, those multiprocessing does not manage.

    With ``grace`` 0 only those that have exited are reaped; otherwise each
    gets ``grace`` seconds to exit before it is killed.
    """
    managed = {p.pid for p in multiprocessing.active_children()}
    for pid in child_pids():
        if pid in managed:
            continue
        end = time.monotonic() + grace
        try:
            while os.waitpid(pid, os.WNOHANG)[0] == 0:
                if time.monotonic() >= end:
                    if grace > 0:
                        os.kill(pid, signal.SIGKILL)
                        os.waitpid(pid, 0)
                    break
                time.sleep(0.01)
        except ChildProcessError:  # reaped meanwhile
            pass


def stop_tracker() -> None:
    """Stop this process's own resource tracker, if it started one (the
    telemetry ring buffer creates shared memory here): close its pipe and
    wait for it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def attempt(op, *args, limit: float = DEADLINE_S):
    """Run ``op(*args)`` under a deadline: ``(outcome, seconds)``, or
    ``(None, None)`` when it raised or timed out."""
    try:
        with deadline(limit):
            t0 = time.perf_counter()
            out = op(*args)
            dt = time.perf_counter() - t0
    except Exception:
        traceback.print_exc(file=sys.stderr)
        reap_children()
        out = dt = None
    reap_orphans()
    return out, dt


def import_seconds() -> float:
    """Wall time to import the package in a fresh interpreter."""
    code = f"import time; t = time.perf_counter(); {IMPORTS}; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def load_package():
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import repro from {SRC}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    import workloads

    correct, reasons = True, []

    def same(i: int, out) -> None:
        """Keep instance i's first outcome; later ones must match it."""
        nonlocal correct
        if i not in refs:
            wl.keep(i, out)
            refs[i] = wl.finish(out)
        elif wl.finish(out) != refs[i]:
            correct = False
            reasons.append(f"instance {i}: an output differs from the first")

    builds, refs, wl = [], {}, None
    for _ in range(SETUP_REPS):
        wl = None  # drop the previous repetition before building the next
        wl = workloads.WORKLOADS[name](seed, workdir)
        gc.collect()
        warm, dt = attempt(wl.setup)
        if dt is None:
            sys.exit(f"perfbench: {name} set-up failed")
        builds.append(dt)
        wl.keep(0, warm)
        digest = wl.finish(warm)
        if refs and digest != refs[0]:
            correct = False
            reasons.append("set-up repetitions produced different outputs")
        refs, warm = {0: digest}, None

    # one round runs every instance once; a traced run alternates an
    # untraced round with a traced one, for trace.overhead
    plain, traced, per_layer, rate = [], [], [], []
    attempted = failed = rounds = 0
    end = time.perf_counter() + seconds
    while rounds < MIN_ROUNDS or time.perf_counter() < end:
        rounds += 1
        for with_trace in ((False, True) if trace else (False,)):
            round_s, round_edges, whole = 0.0, 0, True
            for i in range(wl.instances):
                attempted += 1
                out = None  # the previous outcome is not part of this operation
                gc.collect()
                out, dt = attempt(wl.op, i, with_trace)
                if dt is None:
                    failed += 1
                    whole = False
                    continue
                round_s += dt
                round_edges += wl.edges(out)
                if with_trace:
                    per_layer.append(wl.layers(out))
                same(i, out)
            out = None
            if whole:
                (traced if with_trace else plain).append(round_s)
                if not with_trace:
                    rate.append(round_edges / round_s)
    rss = peak_rss_mb()

    try:
        wl.check()
    except Exception as exc:  # any exception is a rejected output
        correct = False
        reasons.append(f"{type(exc).__name__}: {exc}")
    for reason in dict.fromkeys(reasons):
        print(f"perfbench: check failed: {reason}", file=sys.stderr)

    if trace:
        metrics = {}
        for key in workloads.LAYER_UNITS:
            values = [layer[key] for layer in per_layer if key in layer]
            metrics[key] = float(statistics.median(values)) if values else 0.0
        metrics.update(wl.trace_extra())
        if plain and traced:
            metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
        metrics = {k: {"value": v, "unit": workloads.LAYER_UNITS[k]}
                   for k, v in metrics.items()}
    else:
        setups = [b + import_seconds() for b in builds]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "edges_per_s": {"value": statistics.median(rate), "unit": "edges/s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=["copy-mp", "commfree-spill", "analyze", "evolve"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that every output check rejects a corrupted output")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    load_package()
    adopt_orphans()
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = WORK / f"run{os.getpid()}"
    try:
        if args.self_test:
            import selftest

            return selftest.main(workdir, attempt)
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     workdir)
    finally:
        reap_children()
        stop_tracker()
        reap_orphans(grace=5.0)
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

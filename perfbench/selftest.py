"""Self-test: every output check passes on real output and rejects a
deliberately corrupted one, and a hung operation ends as a counted failure.

Run it as ``python3 perfbench/run.py --self-test``; it exits 0 only if
every case behaves.  Inputs are small versions of the workloads' own.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

import checks
import workloads
from repro import generate

ROOT = Path(__file__).resolve().parent.parent


def _uniform_attachment(n: int, x: int, seed: int):
    """Valid structure (x distinct earlier targets per node) but uniform,
    not preferential, targets: an exponential degree tail."""
    rng = np.random.default_rng(seed)
    u, v = [], []
    for t in range(1, n):
        targets = np.arange(t) if t <= x else rng.choice(t, x, replace=False)
        u.extend([t] * len(targets))
        v.extend(targets.tolist())
    return np.array(u), np.array(v)


class _Report:
    def __init__(self) -> None:
        self.failures = 0

    def line(self, ok: bool, text: str) -> None:
        self.failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {text}", flush=True)

    def passes(self, label: str, fn) -> None:
        try:
            fn()
        except checks.CheckFailed as exc:
            self.line(False, f"{label}: rejected a correct output ({exc})")
        else:
            self.line(True, f"{label}: accepts the real output")

    def rejects(self, label: str, fn) -> None:
        try:
            fn()
        except checks.CheckFailed as exc:
            self.line(True, f"{label}: rejected ({exc})")
        else:
            self.line(False, f"{label}: accepted a corrupted output")


def _ready(wl, n: int):
    """A workload shrunk to n nodes, set up, with instance 0 kept."""
    wl.N = n
    warm = wl.setup()
    wl.keep(0, warm)
    wl.finish(warm)
    return wl


def _pa_cases(rep: _Report) -> None:
    n, x = 20_000, 4
    r = generate(n, x=x, seed=1)
    u, v = np.array(r.edges.sources), np.array(r.edges.targets)
    rep.passes("pa_graph", lambda: checks.pa_graph(u, v, n, x))
    k = int(np.flatnonzero(u >= x)[0])  # an edge of some node t >= x
    rep.rejects("pa_graph / edge count",
                lambda: checks.pa_graph(u[:-1], v[:-1], n, x))
    bad = v.copy(); bad[k] = u[k]
    rep.rejects("pa_graph / self-loop", lambda: checks.pa_graph(u, bad, n, x))
    bad = v.copy(); bad[k] = u[k] + 1
    rep.rejects("pa_graph / target below t", lambda: checks.pa_graph(u, bad, n, x))
    same = np.flatnonzero(u == u[k])
    bad = v.copy(); bad[same[1]] = bad[same[0]]
    rep.rejects("pa_graph / distinct targets", lambda: checks.pa_graph(u, bad, n, x))
    ua, va = _uniform_attachment(n, x, seed=1)
    rep.rejects("pa_graph / tail exponent", lambda: checks.pa_graph(ua, va, n, x))


def _spill_cases(rep: _Report, workdir: Path) -> None:
    wl = _ready(workloads.CommfreeSpill(1, workdir), 20_000)
    rep.passes("rank invariance", wl.check)
    u, v = wl.refs[0]["uv"]
    # two edges trade places: still a valid PA graph, no longer the same one
    a, b = 0, len(u) - 1
    wl.refs[0]["uv"] = (u[[b] + list(range(1, b)) + [a]],
                        v[[b] + list(range(1, b)) + [a]])
    rep.rejects("rank invariance / two spilled edges swapped", wl.check)


def _analyze_cases(rep: _Report, workdir: Path) -> None:
    wl = _ready(workloads.Analyze(1, workdir), 3_000)
    pr, labels, dist, core = wl.refs[0]["out"]
    args = wl._uv(0)
    rep.passes("analyze", wl.check)
    bad = pr.copy(); bad[7] += 1e-8
    rep.rejects("pagerank", lambda: checks.pagerank(bad, *args, wl.PR_ITERS))
    bad = labels.copy(); bad[5] = 5
    rep.rejects("components", lambda: checks.components(bad, *args))
    bad = dist.copy(); bad[10] += 1
    rep.rejects("bfs", lambda: checks.bfs(bad, *args, wl.BFS_SOURCE))
    bad = core.copy(); bad[3] -= 1
    rep.rejects("core numbers", lambda: checks.core_numbers(bad, *args))


def _evolve_cases(rep: _Report, workdir: Path) -> None:
    wl = _ready(workloads.Evolve(1, workdir), 3_000)
    rep.passes("evolve", wl.check)
    s = wl.refs[0]["state"]
    degrees, labels, pr = wl.refs[0]["folded"]
    live = int(s.u[0])

    def corrupt(i: int, value) -> tuple:
        folded = [degrees.copy(), labels.copy(), pr.copy()]
        folded[i][live] = value(folded[i][live])
        return tuple(folded)

    for i, label, value in ((0, "degrees", lambda d: d + 1),
                            (1, "labels", lambda _: live + 1),
                            (2, "pagerank", lambda p: p + 1e-8)):
        folded = corrupt(i, value)
        rep.rejects(f"evolve / {label}",
                    lambda f=folded: checks.evolved(s.alive, s.u, s.v, s.n, *f))
    alive = s.alive.copy(); alive[live] = False
    rep.rejects("evolve / live edge on a departed node",
                lambda: checks.evolved(alive, s.u, s.v, s.n, degrees, labels, pr))


def _deadline_cases(rep: _Report, attempt) -> None:
    def spin():
        while True:
            time.sleep(0.01)

    t0 = time.perf_counter()
    out, dt = attempt(spin, limit=2.0)
    rep.line(dt is None and time.perf_counter() - t0 < 10,
             "deadline: a spinning operation ends as a failure after 2 s")
    # copy x>1 with p=1 spins forever on the parallel engines (ROADMAP.md,
    # "fail fast, never hang"); hung or one day rejected, it must count
    out, dt = attempt(generate, 2_000, 2, 1.0, 2, limit=2.0)
    rep.line(dt is None, "deadline: generate(x=2, p=1, ranks=2) ends as a failure")


def _benchmark_json_case(rep: _Report) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    rep.line(declared == workloads.LAYER_UNITS,
             "BENCHMARK.json per_layer matches the metrics traced runs print")
    rep.line(sorted(w["name"] for w in spec["workloads"])
             == sorted(workloads.WORKLOADS),
             "BENCHMARK.json workloads match the implemented ones")


def main(workdir: Path, attempt) -> int:
    rep = _Report()
    _pa_cases(rep)
    _spill_cases(rep, workdir)
    _analyze_cases(rep, workdir)
    _evolve_cases(rep, workdir)
    _deadline_cases(rep, attempt)
    _benchmark_json_case(rep)
    print(f"self-test: {rep.failures} failure(s)")
    return 1 if rep.failures else 0

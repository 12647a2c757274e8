"""The four workloads: their inputs, the timed operation, and its outputs.

A workload has ``instances`` inputs, all made from the seed; one round
runs the operation once on each.  Rounds, not single operations, are the
unit the harness rates, so a run's figure does not hang on one input's
shape (one graph's diameter, one epoch's churn).  Each workload object has

* ``setup()`` — build the inputs (and any cold analyser), then run one
  warm-up operation on instance 0 and return its outcome;
* ``op(i, traced)`` — the timed operation on instance ``i``;
* ``keep(i, outcome)`` — retain the first outcome of instance ``i``, the
  reference that ``check()`` verifies;
* ``finish(outcome)`` — outside the timed window: the outcome's digest
  (every operation must reproduce its instance's reference bit for bit),
  freeing its files;
* ``layers(outcome)`` — per-layer metrics of a traced operation;
* ``edges(outcome)`` — edges the operation handled (for ``edges_per_s``);
* ``check()`` — verify the kept references independently (checks.py);
* ``trace_extra()`` — per-layer metrics measured once per traced run.

Sizes are fixed so one operation takes 0.5-1 s on a 2-CPU host; the seed
changes the inputs, never their sizes.
"""

from __future__ import annotations

import copy
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import checks
from repro import (
    ChurnSchedule,
    DistributedGraph,
    Telemetry,
    evolve,
    generate,
    make_partition,
)
from repro.distgraph import (
    distributed_bfs,
    distributed_components,
    distributed_core_numbers,
    distributed_pagerank,
)
from repro.dyngraph import EvolvingState, IncrementalAnalyzer

#: per-layer metrics every traced run prints (0 where a workload does not
#: exercise the layer) — kept equal to BENCHMARK.json's ``per_layer``
LAYER_UNITS = {
    "mpsim.supersteps": "count",
    "mpsim.messages": "count",
    "mpsim.bytes": "bytes",
    "mpsim.compute_s": "s",
    "mpsim.exchange_s": "s",
    "mpsim.barrier_s": "s",
    "mpsim.startup_s": "s",
    "mpsim.collect_s": "s",
    "core.commfree_s": "s",
    "core.spill_bytes": "bytes",
    "core.spill_files": "count",
    "distgraph.scatter_s": "s",
    "distgraph.pagerank_s": "s",
    "distgraph.pagerank_supersteps": "count",
    "distgraph.pagerank_bytes": "bytes",
    "distgraph.components_s": "s",
    "distgraph.components_supersteps": "count",
    "distgraph.bfs_s": "s",
    "distgraph.kcore_s": "s",
    "distgraph.pagerank_iter_vs_numpy": "ratio",
    "dyngraph.evolve_s": "s",
    "dyngraph.epoch_s": "s",
    "dyngraph.snapshot_io_s": "s",
    "dyngraph.advance_s": "s",
    "dyngraph.warm_over_cold": "ratio",
    "trace.overhead": "ratio",
}

_WORKER_EXCHANGE = ("exchange.write", "exchange.read")
_WORKER_WAIT = ("barrier.wait", "step.wait")


def _span_layers(tel: Telemetry, t_call: float, t_return: float) -> dict:
    """Split one mp generation's wall time by the spans its workers emit.

    ``t_call``/``t_return`` are ``time.monotonic()`` around the call, the
    clock the spans use.  Startup runs from the call to the first worker
    span; collect from the last worker span's end to the call's return
    (the coordinator emits ``job.collect`` only on the p2p transport).
    """
    worker = [s for s in tel.spans.spans if s.tid >= 0]
    out = {
        "mpsim.compute_s": sum(s.dur for s in worker if s.name == "compute"),
        "mpsim.exchange_s": sum(s.dur for s in worker if s.name in _WORKER_EXCHANGE),
        "mpsim.barrier_s": sum(s.dur for s in worker if s.name in _WORKER_WAIT),
    }
    if worker:
        out["mpsim.startup_s"] = min(s.ts for s in worker) - t_call
        out["mpsim.collect_s"] = t_return - max(s.ts + s.dur for s in worker)
    return out


def _add(total: dict, part: dict) -> None:
    for k, v in part.items():
        total[k] = total.get(k, 0.0) + v


class _Workload:
    instances = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed % (1 << 64)  # the API takes non-negative seeds only
        self.workdir = workdir
        self.refs: dict[int, dict] = {}
        self._dirs = 0

    def sub_seed(self, i: int) -> int:
        """Seed of instance ``i``: distinct across instances and seeds."""
        return self.seed * 1000 + i

    def fresh_dir(self) -> Path:
        self._dirs += 1
        return self.workdir / f"op{self._dirs:05d}"

    def keep(self, i: int, out: dict) -> None:
        self.refs[i] = out

    def trace_extra(self) -> dict:
        return {}


class CopyMP(_Workload):
    """Algorithms 3.1 (x=1) and 3.2 (x=4) on forked ranks, equal edge counts."""

    N4 = 100_000
    N1 = checks.edge_count(N4, 4) + 1  # an x=1 graph on n nodes has n-1 edges
    CASES = ((N1, 1), (N4, 4))

    def setup(self) -> dict:
        return self.op(0, False)

    def op(self, i: int, traced: bool) -> dict:
        runs, traces = [], []
        for n, x in self.CASES:
            tel = Telemetry() if traced else None
            t_call = time.monotonic()
            runs.append(generate(n, x=x, ranks=2, engine="mp",
                                 seed=self.sub_seed(i), telemetry=tel))
            traces.append((tel, t_call, time.monotonic()))
        return {"runs": runs, "traces": traces}

    def finish(self, out: dict) -> str:
        return checks.digest(*(a for r in out["runs"]
                                for a in (r.edges.sources, r.edges.targets)))

    def layers(self, out: dict) -> dict:
        """Summed over the operation's two generations."""
        layers: dict = {}
        for r, trace in zip(out["runs"], out["traces"]):
            _add(layers, _span_layers(*trace))
            _add(layers, {
                "mpsim.supersteps": r.supersteps,
                "mpsim.messages": r.world_stats.total_messages,
                "mpsim.bytes": r.world_stats.total_bytes,
            })
        return layers

    def edges(self, out: dict) -> int:
        return sum(len(r.edges) for r in out["runs"])

    def check(self) -> None:
        for ref in self.refs.values():
            for (n, x), r in zip(self.CASES, ref["runs"]):
                checks.pa_graph(r.edges.sources, r.edges.targets, n, x)


class CommfreeSpill(_Workload):
    """Sanders-Schulz commfree x=4 on forked ranks, spilled to sealed shards."""

    #: commfree's cost varies with the seed by about +-10 % per graph, so
    #: a round spans six graphs
    instances = 6
    N, X, RANKS = 50_000, 4, 2
    #: 512 KiB write budget against 3.2 MB of edges: seven shards per rank
    BUDGET = 1 << 19

    def setup(self) -> dict:
        return self.op(0, False)

    def op(self, i: int, traced: bool) -> dict:
        d = self.fresh_dir()
        tel = Telemetry() if traced else None
        r = generate(
            self.N, x=self.X, ranks=self.RANKS, engine="mp",
            seed=self.sub_seed(i), generator="commfree", out_of_core=str(d),
            spill_budget_bytes=self.BUDGET, telemetry=tel,
        )
        return {"i": i, "result": r, "dir": d, "tel": tel}

    def read_back(self, out: dict) -> tuple[np.ndarray, np.ndarray]:
        """The graph as the sealed per-rank shards hold it, in rank order."""
        from repro.core.spill import iter_edge_shards, rank_shard_dir

        blocks = [
            b for r in range(self.RANKS)
            for b in iter_edge_shards(
                rank_shard_dir(out["dir"] / "shards", r, self.RANKS))
        ]
        return (np.concatenate([u for u, _ in blocks]),
                np.concatenate([v for _, v in blocks]))

    def keep(self, i: int, out: dict) -> None:
        self.refs[i] = {"i": i, "uv": self.read_back(out)}

    def finish(self, out: dict) -> str:
        if "digest" not in out:
            out["digest"] = checks.digest(*self.read_back(out))
            files = [p for p in out["dir"].rglob("*") if p.is_file()]
            out["spill"] = (len(files), sum(p.stat().st_size for p in files))
            out["result"].edges.close()
            shutil.rmtree(out["dir"])
        return out["digest"]

    def layers(self, out: dict) -> dict:
        self.finish(out)
        span = [s for s in out["tel"].spans.spans if s.name == "commfree.mp"]
        return {
            "mpsim.supersteps": out["result"].supersteps,
            "core.commfree_s": sum(s.dur for s in span),
            "core.spill_files": out["spill"][0],
            "core.spill_bytes": out["spill"][1],
        }

    def edges(self, out: dict) -> int:
        return len(out["result"].edges)

    def check(self) -> None:
        for i, ref in self.refs.items():
            u, v = ref["uv"]
            checks.pa_graph(u, v, self.N, self.X)
            # rank invariance: an in-RAM run at another rank count is
            # bit-identical to what the P=2 run sealed on disk
            mem = generate(self.N, x=self.X, ranks=3, engine="bsp",
                           seed=self.sub_seed(i), generator="commfree")
            checks.expect(
                checks.digest(mem.edges.sources, mem.edges.targets)
                == checks.digest(u, v),
                "spilled shards at P=2 differ from the in-RAM run at P=3",
            )


class Analyze(_Workload):
    """Scatter a fixed PA graph at P=8 and run the four kernels cold."""

    instances = 3
    N, X, RANKS, PR_ITERS, BFS_SOURCE = 12_500, 4, 8, 20, 0

    def setup(self) -> dict:
        self.inputs = []
        for i in range(self.instances):
            g = generate(self.N, x=self.X, seed=self.sub_seed(i),
                         generator="commfree", engine="sequential")
            self.inputs.append(g.edges)
        self.part = make_partition("rrp", self.N, self.RANKS)
        self.pagerank_s: list[float] = []
        return self.op(0, False)

    def op(self, i: int, traced: bool) -> dict:
        t = [time.perf_counter()]
        g = DistributedGraph.from_edgelist(self.inputs[i], self.part)
        t.append(time.perf_counter())
        pr, e_pr = distributed_pagerank(g, iterations=self.PR_ITERS)
        t.append(time.perf_counter())
        labels, e_cc = distributed_components(g)
        t.append(time.perf_counter())
        dist, _ = distributed_bfs(g, self.BFS_SOURCE)
        t.append(time.perf_counter())
        core = distributed_core_numbers(g)
        t.append(time.perf_counter())
        scatter_s, pr_s, cc_s, bfs_s, kcore_s = np.diff(t)
        return {
            "i": i,
            "out": (pr, labels, dist, core),
            "layers": {
                "distgraph.scatter_s": scatter_s,
                "distgraph.pagerank_s": pr_s,
                "distgraph.pagerank_supersteps": e_pr.supersteps,
                "distgraph.pagerank_bytes": e_pr.stats.total_bytes,
                "distgraph.components_s": cc_s,
                "distgraph.components_supersteps": e_cc.supersteps,
                "distgraph.bfs_s": bfs_s,
                "distgraph.kcore_s": kcore_s,
            },
        }

    def finish(self, out: dict) -> str:
        return checks.digest(*out["out"])

    def layers(self, out: dict) -> dict:
        self.pagerank_s.append(out["layers"]["distgraph.pagerank_s"])
        return out["layers"]

    def edges(self, out: dict) -> int:
        return len(self.inputs[out["i"]])

    def _uv(self, i: int):
        return (np.asarray(self.inputs[i].sources),
                np.asarray(self.inputs[i].targets), self.N)

    def check(self) -> None:
        for i, ref in self.refs.items():
            pr, labels, dist, core = ref["out"]
            args = self._uv(i)
            checks.pagerank(pr, *args, self.PR_ITERS)
            checks.components(labels, *args)
            checks.bfs(dist, *args, self.BFS_SOURCE)
            checks.core_numbers(core, *args)

    def trace_extra(self) -> dict:
        """Distributed pagerank iteration over a plain NumPy iteration.

        Both run the same 20 iterations on the same graphs, so the ratio of
        their times is the ratio per iteration.
        """
        reps = []
        for _ in range(3):
            for i in range(self.instances):
                t0 = time.perf_counter()
                checks.pagerank_reference(*self._uv(i), self.PR_ITERS)
                reps.append(time.perf_counter() - t0)
        return {"distgraph.pagerank_iter_vs_numpy":
                statistics.median(self.pagerank_s) / statistics.median(reps)}


class Evolve(_Workload):
    """One ~1% churn epoch, its sealed snapshot, folded into a warm analyser.

    The instances share the base graph and its warm analyser and differ in
    their churn schedule: how far pagerank has to move again depends on
    which nodes an epoch takes away.
    """

    instances = 4
    N, X, RANKS = 10_000, 4, 8

    def setup(self) -> dict:
        g = generate(self.N, x=self.X, seed=self.seed, generator="commfree",
                     engine="sequential")
        self.input = g.edges
        m = len(g.edges)
        self.schedules = [
            ChurnSchedule(
                seed=self.sub_seed(i), epochs=1, arrival_rate=0.01 * self.N,
                attach_x=self.X, departure_prob=0.002,
                deletion_rate=0.005 * m, rewire_rate=0.002 * m,
            )
            for i in range(self.instances)
        ]
        self.analyzer = IncrementalAnalyzer(
            EvolvingState.from_edges(g.edges, self.N), ranks=self.RANKS
        )
        return self.op(0, False)

    def op(self, i: int, traced: bool) -> dict:
        d = self.fresh_dir()
        tel = Telemetry() if traced else None
        t0 = time.perf_counter()
        res = evolve(self.input, self.N, self.schedules[i], snapshot_dir=str(d),
                     telemetry=tel)
        t1 = time.perf_counter()
        snap = res.snapshots.load(1)
        state = snap.state()
        t2 = time.perf_counter()
        analyzer = copy.copy(self.analyzer)
        analyzer.advance(state, snap.delta)
        t3 = time.perf_counter()
        return {
            "state": state, "dir": d, "tel": tel,
            "folded": (analyzer.degrees, analyzer.labels, analyzer.pagerank),
            "layers": {
                "dyngraph.evolve_s": t1 - t0,
                "dyngraph.snapshot_io_s": t2 - t1,
                "dyngraph.advance_s": t3 - t2,
            },
        }

    def finish(self, out: dict) -> str:
        if out["dir"].exists():
            shutil.rmtree(out["dir"])
        s = out["state"]
        return checks.digest(s.alive, s.u, s.v, *out["folded"])

    def layers(self, out: dict) -> dict:
        layers = dict(out["layers"])
        layers["dyngraph.epoch_s"] = sum(
            s.dur for s in out["tel"].spans.spans if s.name == "evolve.epoch")
        t0 = time.perf_counter()
        self.analyzer.graph(out["state"])
        t1 = time.perf_counter()
        IncrementalAnalyzer(out["state"], ranks=self.RANKS)
        t2 = time.perf_counter()
        layers["distgraph.scatter_s"] = t1 - t0
        layers["dyngraph.warm_over_cold"] = layers["dyngraph.advance_s"] / (t2 - t1)
        return layers

    def edges(self, out: dict) -> int:
        return out["state"].num_edges

    def check(self) -> None:
        for ref in self.refs.values():
            s = ref["state"]
            checks.evolved(s.alive, s.u, s.v, s.n, *ref["folded"])


WORKLOADS = {
    "copy-mp": CopyMP,
    "commfree-spill": CommfreeSpill,
    "analyze": Analyze,
    "evolve": Evolve,
}

"""Output checks made apart from the program under test.

Every check recomputes its expectation with NumPy, SciPy or NetworkX from
the raw edge arrays, never through ``repro``, and raises
:class:`CheckFailed` with a one-line reason on the first mismatch.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: smallest degree the tail fit uses; below it the BA degree law
#: 2x(x+1)/(k(k+1)(k+2)) is still visibly curved on a log-log plot
TAIL_DMIN = 20
#: window around the BA tail exponent 3 (p=1/2); uniform attachment
#: fits above 6 at the same cut
TAIL_WINDOW = (2.6, 3.4)


class CheckFailed(AssertionError):
    """An output disagrees with the benchmark's own computation."""


def expect(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def digest(*arrays: np.ndarray) -> str:
    """sha256 over the arrays' dtypes, shapes and bytes, in order."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def edge_count(n: int, x: int) -> int:
    """x(x-1)/2 clique edges among the first x nodes, then x per node."""
    return x * (x - 1) // 2 + x * (n - x)


def tail_exponent(degrees: np.ndarray, dmin: int = TAIL_DMIN) -> float:
    """Discrete power-law MLE (Clauset et al. approximation) for d >= dmin."""
    d = degrees[degrees >= dmin].astype(np.float64)
    expect(len(d) >= 100, f"only {len(d)} degrees >= {dmin}: tail too thin to fit")
    return float(1.0 + len(d) / np.log(d / (dmin - 0.5)).sum())


def pa_graph(u: np.ndarray, v: np.ndarray, n: int, x: int) -> None:
    """A PA graph: edge count, x distinct earlier targets per node, BA tail."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    expect(len(u) == len(v) == edge_count(n, x),
           f"{len(u)} edges, expected x(x-1)/2 + x(n-x) = {edge_count(n, x)}")
    expect(bool((u != v).all()), "self-loop present")
    hi, lo = np.maximum(u, v), np.minimum(u, v)
    expect(bool(lo.min() >= 0) and bool(hi.max() < n), "endpoint outside [0, n)")
    per_node = np.bincount(hi, minlength=n)
    expect(np.array_equal(per_node, np.minimum(np.arange(n), x)),
           "some node t does not have min(t, x) targets below it")
    expect(len(np.unique(hi * n + lo)) == len(hi), "duplicate edge present")
    gamma = tail_exponent(np.bincount(np.concatenate([u, v]), minlength=n))
    expect(TAIL_WINDOW[0] <= gamma <= TAIL_WINDOW[1],
           f"tail exponent {gamma:.3f} outside {TAIL_WINDOW}")


def _sym(u: np.ndarray, v: np.ndarray, n: int):
    import scipy.sparse as sp

    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    ones = np.ones(2 * len(u), dtype=np.int8)
    return sp.csr_matrix(
        (ones, (np.concatenate([u, v]), np.concatenate([v, u]))), shape=(n, n)
    )


def pagerank_reference(
    u: np.ndarray, v: np.ndarray, n: int, iterations: int,
    damping: float = 0.85, tol: float | None = None,
) -> np.ndarray:
    """Plain single-threaded power iteration on the undirected edge list.

    Each edge carries mass both ways; degree-0 nodes spread their mass over
    all n nodes.  With ``tol`` it stops once the L1 step is below it.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    dangling = deg == 0
    inv = np.zeros(n)
    inv[~dangling] = 1.0 / deg[~dangling]
    pr = np.full(n, 1.0 / n)
    for _ in range(iterations):
        share = pr * inv
        incoming = (np.bincount(v, weights=share[u], minlength=n)
                    + np.bincount(u, weights=share[v], minlength=n))
        new = (1.0 - damping) / n + damping * (incoming + pr[dangling].sum() / n)
        step = np.abs(new - pr).sum()
        pr = new
        if tol is not None and step < tol:
            break
    return pr


def pagerank(pr, u, v, n, iterations, tol=None, atol=1e-9) -> None:
    ref = pagerank_reference(u, v, n, iterations, tol=tol)
    dev = float(np.abs(np.asarray(pr) - ref).max())
    expect(dev <= atol, f"pagerank deviates {dev:.3e} > {atol:.0e} from NumPy")


def components(labels, u, v, n) -> None:
    """Labels equal SciPy's components, each relabelled to its min member."""
    from scipy.sparse.csgraph import connected_components

    _, comp = connected_components(_sym(u, v, n), directed=False)
    low = np.full(comp.max() + 1, n, dtype=np.int64)
    np.minimum.at(low, comp, np.arange(n))
    expect(np.array_equal(np.asarray(labels), low[comp]),
           "component labels differ from scipy connected_components")


def bfs(dist, u, v, n, source) -> None:
    from scipy.sparse.csgraph import shortest_path

    ref = shortest_path(_sym(u, v, n), unweighted=True, indices=source)
    ref = np.where(np.isinf(ref), -1, ref).astype(np.int64)
    expect(np.array_equal(np.asarray(dist), ref),
           "bfs distances differ from scipy shortest_path")


def core_numbers(core, u, v, n) -> None:
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(zip(np.asarray(u).tolist(), np.asarray(v).tolist()))
    ref = nx.core_number(g)
    expect(np.array_equal(np.asarray(core), np.array([ref[i] for i in range(n)])),
           "core numbers differ from networkx core_number")


def evolved(alive, u, v, n, degrees, labels, pr) -> None:
    """A churned snapshot and the analyses folded onto it."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    expect(bool(np.asarray(alive)[u].all() and np.asarray(alive)[v].all()),
           "a live edge touches a departed node")
    expect(np.array_equal(np.asarray(degrees),
                          np.bincount(np.concatenate([u, v]), minlength=n)),
           "folded degrees differ from bincount")
    components(labels, u, v, n)
    # the analyser stops at an L1 step below 1e-12; run the reference
    # to a tighter step so only the analyser's error is measured
    pagerank(pr, u, v, n, iterations=2000, tol=1e-15)

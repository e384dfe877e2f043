"""Ground truth for the benchmark, computed apart from SimPush.

Exact oracle (``web-in2004``, ``social-pokec``, ``df-in2004``).
    ``baselines.exact.exact_simrank`` builds the whole ``n x n`` matrix in
    about a minute per graph, too slow to repeat in every run. SimRank's
    fixed point can be written ``S = c W^T S W + D`` with ``D`` diagonal,
    so ``S = sum_k c^k (W^k)^T D W^k`` and one row is

        ``S[u, :] = sum_k c^k (D W^k e_u)^T W^k``,

    which costs ``2K`` sparse passes over the graph. The benchmark caches
    only ``D`` (``n`` floats per graph, taken from ``exact_simrank`` with
    60 iterations) under ``perfbench/data`` and rebuilds each query's row
    from it. ``python3 perfbench/truth.py`` regenerates the cache and checks
    rebuilt rows against the full ``exact_simrank`` matrix.

Pair-walk oracle (``twitter-coarse``).
    The paper's pooling procedure (§5.1): SimPush's top ``POOL`` nodes are
    scored with ``baselines.monte_carlo.pair_meeting_probability`` and the
    best 50 of them are the ground-truth top 50. Each estimate is a mean of
    ``n_samples`` Bernoulli draws, so by Hoeffding it lies within
    ``pairwalk_slack`` of the true SimRank except with probability
    ``SLACK_DELTA``.
"""
from __future__ import annotations

import hashlib
import math
import sys
from pathlib import Path

import numpy as np

DATA = Path(__file__).resolve().parent / "data"
C = 0.6
ITERS = 60        # exact_simrank iterations: 0.6**60 ~ 5e-14
TERMS = 60        # series terms when rebuilding a row from D
EXACT_DATASETS = ("in2004_analog", "pokec_analog")
SLACK_DELTA = 1e-9


def graph_digest(g) -> str:
    """Hash of the in-adjacency, so a cache made for another graph is refused."""
    h = hashlib.sha1()
    for a in (g.in_ptr, g.in_idx):
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def _neighbour_mean(g, t: np.ndarray) -> np.ndarray:
    """``(W^T t)[i] = mean of t over the in-neighbours of i`` (0 if none);
    ``t`` is ``n x k``."""
    out = np.zeros_like(t)
    has = np.flatnonzero(g.in_deg > 0)
    if has.size:
        sums = np.add.reduceat(t[g.in_idx], g.in_ptr[has], axis=0)
        out[has] = sums / g.in_deg[has, None]
    return out


def _spread_to_in_neighbours(g, x: np.ndarray) -> np.ndarray:
    """``W x``: the mass at ``i`` is split evenly over the in-neighbours of
    ``i`` (mass at nodes with no in-neighbour stops); ``x`` is ``n x k``."""
    share = np.zeros_like(x)
    has = g.in_deg > 0
    share[has] = x[has] / g.in_deg[has, None]
    # In-neighbour i' of i is an out-neighbour source: sum over out(i').
    out = np.zeros_like(x)
    src = np.flatnonzero(g.out_deg > 0)
    if src.size:
        out[src] = np.add.reduceat(share[g.out_idx], g.out_ptr[src], axis=0)
    return out


def exact_rows(g, diag: np.ndarray, us: np.ndarray, c: float = C) -> np.ndarray:
    """Rows ``S[u, :]`` for each ``u`` in ``us`` (a ``len(us) x n`` array),
    by Horner's rule over the series in the module docstring."""
    x = np.zeros((g.n, len(us)))
    x[np.asarray(us), np.arange(len(us))] = 1.0
    xs = [x]
    for _ in range(TERMS):
        xs.append(_spread_to_in_neighbours(g, xs[-1]))
    t = diag[:, None] * xs[TERMS]
    for k in range(TERMS - 1, -1, -1):
        t = diag[:, None] * xs[k] + c * _neighbour_mean(g, t)
    return t.T


def diagonal_correction(g, s: np.ndarray, c: float = C) -> np.ndarray:
    """``D = diag(S - c W^T S W)`` from a full SimRank matrix ``S``."""
    w = np.zeros((g.n, g.n))
    owner = np.repeat(np.arange(g.n), g.in_deg)
    w[g.in_idx, owner] = 1.0 / g.in_deg[owner]
    return 1.0 - c * np.einsum("ai,ai->i", s @ w, w)


def load_diag(name: str, g) -> np.ndarray:
    """The cached ``D`` for dataset ``name``; refuses a cache made for a
    different graph or SimRank constant."""
    path = DATA / f"{name}.npz"
    if not path.exists():
        raise FileNotFoundError(
            f"{path} is missing; rebuild it with: python3 perfbench/truth.py")
    z = np.load(path)
    if str(z["digest"]) != graph_digest(g) or float(z["c"]) != C:
        raise ValueError(
            f"{path} was made for another graph or c; rebuild it with: "
            "python3 perfbench/truth.py")
    return z["diag"]


def pairwalk_slack(n_samples: int) -> float:
    """Two-sided Hoeffding bound on one pair-walk estimate."""
    return math.sqrt(math.log(2.0 / SLACK_DELTA) / (2.0 * n_samples))


def rebuild(names=EXACT_DATASETS) -> None:
    """Recompute ``D`` for each dataset from ``exact_simrank`` and check
    that rows rebuilt from it match the full matrix to 1e-12."""
    from repro.baselines.exact import exact_simrank
    from repro.graphs import datasets
    from repro.graphs.csr import from_edges

    DATA.mkdir(exist_ok=True)
    for name in names:
        src, dst, spec = datasets.edge_arrays(name)
        g = from_edges(src, dst, n=spec.n)
        s = exact_simrank(g, c=C, iters=ITERS)
        diag = diagonal_correction(g, s)
        probe = np.linspace(0, g.n - 1, 40).astype(np.int64)
        err = float(np.abs(exact_rows(g, diag, probe) - s[probe]).max())
        if err > 1e-12:
            raise RuntimeError(f"{name}: rows rebuilt from D differ by {err:.3g}")
        np.savez(DATA / f"{name}.npz", diag=diag, c=C, iters=ITERS,
                 digest=graph_digest(g))
        print(f"{name}: n={g.n} m={g.m} max row error {err:.2g}", flush=True)


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    rebuild()

"""Shared fixtures: small named graphs, random model generators, edge-list files."""

import json

import numpy as np

from graphonlab import SampledGraph, SBMParams, StepGraphon


def graph_from_edges(n, edges):
    adj = np.zeros((n, n), dtype=np.uint8)
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1
    return SampledGraph(adj, source="fixture")


def complete_graph(n):
    adj = np.ones((n, n), dtype=np.uint8) - np.eye(n, dtype=np.uint8)
    return SampledGraph(adj, source="fixture")


def path_graph(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n_leaves):
    return graph_from_edges(n_leaves + 1, [(0, i) for i in range(1, n_leaves + 1)])


def barbell_graph():
    """Two K4's joined by a single bridge edge."""
    edges = []
    for block in (range(4), range(4, 8)):
        block = list(block)
        edges += [(u, v) for i, u in enumerate(block) for v in block[i + 1 :]]
    edges.append((3, 4))
    return graph_from_edges(8, edges)


SBM_BASE = SBMParams(0.5, 0.6, 0.4, 0.2)
SBM_SEPARATED = SBMParams(0.5, 0.55, 0.45, 0.2)  # delta = 1/14 against SBM_BASE


def random_step_graphon(rng, max_blocks=6, low=0.05, high=0.95):
    k = int(rng.integers(1, max_blocks + 1))
    raw = rng.random(k) + 0.2
    weights = raw / raw.sum()
    dens = rng.uniform(low, high, size=(k, k))
    dens = (dens + dens.T) / 2.0
    return StepGraphon(weights, dens)


def save_edge_list(g, path, sidecar=True):
    """Write the graph as 'u v' lines plus a JSON sidecar {n, seed, source}."""
    iu, iv = np.nonzero(np.triu(g.adjacency, k=1))
    with open(path, "w") as fh:
        for u, v in zip(iu, iv):
            fh.write(f"{u} {v}\n")
    if sidecar:
        meta = {"n": g.n, "seed": g.seed, "source": g.source}
        with open(f"{path}.json", "w") as fh:
            json.dump(meta, fh)
            fh.write("\n")

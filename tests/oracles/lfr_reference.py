"""Reference LFR generator: the quadratic placement and member loops.

``repro.generators.lfr.generate_lfr`` places a vertex with one
``searchsorted`` and a pointer that only advances, and cuts the member
lists out of one stable ``argsort``.  This is the generator it replaced,
kept whole and verbatim as an oracle (tests only, never imported by
``src/``): for every vertex it scans the communities in decreasing size
for the first one with free capacity that can host its intra-degree
(O(n * C) interpreted iterations), and it finds each community's members
with one ``flatnonzero`` over all vertices (O(n * C) again).  It also
rebuilds the power-law table on every draw.  Both consume the RNG
through the same calls in the same order, so for equal arguments the
edge list, ``community_of`` and ``mu_realized`` must be *equal*, not
statistically alike — on any numpy.
"""

from __future__ import annotations


import numpy as np

from repro.generators.lfr import LFRGraph
from repro.graph.edgelist import EdgeList


def _bounded_powerlaw(
    rng: np.random.Generator,
    count: int,
    exponent: float,
    lo: int,
    hi: int,
) -> np.ndarray:
    """Sample ``count`` integers in [lo, hi] from a power law x^-exponent."""
    if lo > hi:
        raise ValueError(f"lo={lo} > hi={hi}")
    values = np.arange(lo, hi + 1, dtype=np.float64)
    probs = values ** (-exponent)
    probs /= probs.sum()
    return rng.choice(np.arange(lo, hi + 1), size=count, p=probs).astype(
        np.int64
    )


def _pair_stubs(
    rng: np.random.Generator, stubs: np.ndarray, reject
) -> tuple[np.ndarray, np.ndarray]:
    """Randomly pair stubs, reshuffling rejected pairs a few rounds.

    ``reject(a, b)`` marks invalid pairs (loops, same-community for the
    inter pool).  Leftovers after the retry budget are dropped — the
    best-effort behaviour standard LFR implementations share.
    """
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    stubs = stubs.copy()
    for _ in range(5):
        if len(stubs) < 2:
            break
        rng.shuffle(stubs)
        if len(stubs) % 2:
            stubs, odd = stubs[:-1], stubs[-1:]
        else:
            odd = stubs[:0]
        a, b = stubs[0::2], stubs[1::2]
        bad = reject(a, b)
        us.append(a[~bad])
        vs.append(b[~bad])
        stubs = np.concatenate([a[bad], b[bad], odd])
    if us:
        return np.concatenate(us), np.concatenate(vs)
    return np.empty(0, np.int64), np.empty(0, np.int64)


def generate_lfr_reference(
    num_vertices: int,
    avg_degree: float = 15.0,
    max_degree: int = 50,
    mu: float = 0.1,
    tau1: float = 2.5,
    tau2: float = 1.5,
    min_community: int = 10,
    max_community: int = 50,
    seed: int = 0,
) -> LFRGraph:
    """``repro.generators.generate_lfr`` as it was before the placement
    pointer: the same arguments, the same ``LFRGraph``."""
    if num_vertices < min_community:
        raise ValueError("num_vertices must be >= min_community")
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must be in [0, 1], got {mu}")
    rng = np.random.default_rng(seed)

    # 1. degrees (rescale the power-law draw to hit avg_degree).
    k = _bounded_powerlaw(rng, num_vertices, tau1, 2, max_degree)
    scale = avg_degree / k.mean()
    k = np.maximum(2, np.round(k * scale).astype(np.int64))
    k = np.minimum(k, max_degree)

    # 2. community sizes covering all vertices.
    sizes: list[int] = []
    total = 0
    while total < num_vertices:
        s = int(
            _bounded_powerlaw(rng, 1, tau2, min_community, max_community)[0]
        )
        s = min(s, num_vertices - total)
        if num_vertices - total - s < min_community and total + s < num_vertices:
            s = num_vertices - total  # absorb the tail into one community
        sizes.append(s)
        total += s
    sizes_arr = np.array(sizes, dtype=np.int64)
    ncomm = len(sizes_arr)

    # 3. placement: intra-degree must fit the community.  Vertices are
    # placed in decreasing intra-degree order into the largest community
    # with free capacity, so small communities are left for low-degree
    # vertices and clamping (which would leak stubs into the inter pool)
    # stays rare.
    k_intra = np.round((1.0 - mu) * k).astype(np.int64)
    k_intra = np.minimum(k_intra, k)
    community_of = np.full(num_vertices, -1, dtype=np.int64)
    capacity = sizes_arr.copy()
    comm_by_size = np.argsort(-sizes_arr, kind="stable")
    for u in np.argsort(-k_intra, kind="stable"):
        placed = False
        for c in comm_by_size:
            if capacity[c] > 0 and k_intra[u] < sizes_arr[c]:
                community_of[u] = c
                capacity[c] -= 1
                placed = True
                break
        if not placed:  # degree too high for any free community: clamp
            c = int(np.argmax(capacity))
            community_of[u] = c
            capacity[c] -= 1
            k_intra[u] = min(k_intra[u], sizes_arr[c] - 1)
    # (capacity bookkeeping guarantees every vertex got a community)

    # 4. intra-community configuration model (with reshuffle retries so
    # self-pair rejections don't bleed intra weight).
    intra_u: list[np.ndarray] = []
    intra_v: list[np.ndarray] = []
    for c in range(ncomm):
        members = np.flatnonzero(community_of == c)
        stubs = np.repeat(members, k_intra[members])
        a, b = _pair_stubs(rng, stubs, reject=lambda x, y: x == y)
        intra_u.append(a)
        intra_v.append(b)

    # 5. inter-community configuration model.
    k_inter = k - k_intra
    stubs = np.repeat(np.arange(num_vertices, dtype=np.int64), k_inter)
    inter_u, inter_v = _pair_stubs(
        rng,
        stubs,
        reject=lambda x, y: (x == y) | (community_of[x] == community_of[y]),
    )

    all_u = np.concatenate(intra_u + [inter_u]) if intra_u else inter_u
    all_v = np.concatenate(intra_v + [inter_v]) if intra_v else inter_v
    el = EdgeList.from_arrays(num_vertices, all_u, all_v)

    # Realised mixing is measured on *weights*: duplicate stub pairings
    # merge into weighted edges, so weight (not edge count) is what the
    # configuration model conserves — and what modularity sees.
    cross = community_of[el.u] != community_of[el.v]
    total_w = float(el.w.sum())
    mu_real = float(el.w[cross].sum() / total_w) if total_w > 0 else 0.0
    return LFRGraph(edges=el, community_of=community_of, mu_realized=mu_real)

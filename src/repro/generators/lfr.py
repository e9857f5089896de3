"""LFR benchmark graphs with ground-truth communities (paper §V-D).

Lancichinetti-Fortunato-Radicchi graphs have power-law degree and
community-size distributions and a *mixing parameter* ``mu``: each
vertex spends a fraction ``mu`` of its degree on inter-community edges.
The paper validates output quality against LFR ground truth (Table VII).

This is a practical reimplementation of the generative model:

1. degrees ~ bounded power law (exponent ``tau1``);
2. community sizes ~ bounded power law (exponent ``tau2``), covering all
   vertices;
3. vertices are placed into communities large enough to host their
   intra-degree ``(1 - mu) * k``: in decreasing intra-degree order, each
   into the largest community with free capacity that fits it;
4. intra-community edges via a per-community configuration-model pairing;
5. inter-community edges via a global configuration-model pairing with
   same-community rejection.

Pairings are best-effort (duplicate/loop rejections may drop a few
stubs), which matches common LFR implementations in spirit; the realised
``mu`` is within a few percent of the requested one.

Step 3 is linear in vertices + communities, and exact.  With the
communities sorted by decreasing size, those a vertex fits
(``k_intra < size``) are a *prefix* of that order — one ``searchsorted``
gives every vertex's prefix length.  The first community with free
capacity is a pointer that only advances: a placement fills the
community at the pointer or, when the vertex fits none that is free
(the clamp), one chosen by ``argmax(capacity)`` — capacities only fall,
so everything before the pointer stays full.  A vertex is therefore
placed at the pointer iff the pointer is inside its prefix, which is
what scanning the communities one by one for every vertex decides too
(``tests/oracles/lfr_reference.py`` keeps that scan; the differential
test holds the two to equal arrays).  The member lists of step 4 are
one stable ``argsort`` of ``community_of`` cut at the community
boundaries — each list ascending, as a ``flatnonzero`` per community
gives them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.edgelist import EdgeList


@dataclass(frozen=True)
class LFRGraph:
    """Generated LFR graph and its ground truth."""

    edges: EdgeList
    community_of: np.ndarray
    mu_realized: float

    @property
    def num_communities(self) -> int:
        return int(self.community_of.max()) + 1 if len(self.community_of) else 0


def _powerlaw_table(
    exponent: float, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """The integers in [lo, hi] and their power-law probabilities
    x^-exponent, for :func:`_bounded_powerlaw`."""
    if lo > hi:
        raise ValueError(f"lo={lo} > hi={hi}")
    probs = np.arange(lo, hi + 1, dtype=np.float64) ** (-exponent)
    probs /= probs.sum()
    return np.arange(lo, hi + 1), probs


def _bounded_powerlaw(
    rng: np.random.Generator,
    count: int,
    table: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Sample ``count`` integers from a :func:`_powerlaw_table`."""
    values, probs = table
    return rng.choice(values, size=count, p=probs).astype(np.int64)


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


def generate_lfr(
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
    """Generate an LFR benchmark graph with ground-truth communities."""
    if num_vertices < min_community:
        raise ValueError("num_vertices must be >= min_community")
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must be in [0, 1], got {mu}")
    rng = np.random.default_rng(seed)

    # 1. degrees (rescale the power-law draw to hit avg_degree).
    k = _bounded_powerlaw(
        rng, num_vertices, _powerlaw_table(tau1, 2, max_degree)
    )
    scale = avg_degree / k.mean()
    k = np.maximum(2, np.round(k * scale).astype(np.int64))
    k = np.minimum(k, max_degree)

    # 2. community sizes covering all vertices.
    size_table = _powerlaw_table(tau2, min_community, max_community)
    sizes: list[int] = []
    total = 0
    while total < num_vertices:
        s = int(_bounded_powerlaw(rng, 1, size_table)[0])
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
    # stays rare.  ``fits[i]`` communities of ``comm_by_size`` can host
    # the i-th vertex; ``first_free`` is the first of them all that has
    # capacity left (module docstring: why this is the scan's answer).
    k_intra = np.round((1.0 - mu) * k).astype(np.int64)
    k_intra = np.minimum(k_intra, k)
    comm_by_size = np.argsort(-sizes_arr, kind="stable")
    order = np.argsort(-k_intra, kind="stable")
    fits = np.searchsorted(-sizes_arr[comm_by_size], -k_intra[order])
    capacity = sizes_arr.tolist()
    by_size = comm_by_size.tolist()
    first_free = 0
    placed: list[int] = []
    for u, fit in zip(order.tolist(), fits.tolist()):
        while capacity[by_size[first_free]] == 0:
            first_free += 1
        if first_free < fit:
            c = by_size[first_free]
        else:  # degree too high for any free community: clamp
            c = int(np.argmax(capacity))
            k_intra[u] = min(k_intra[u], sizes_arr[c] - 1)
        placed.append(c)
        capacity[c] -= 1
    # (capacity bookkeeping guarantees every vertex got a community)
    community_of = np.empty(num_vertices, dtype=np.int64)
    community_of[order] = placed

    # 4. intra-community configuration model (with reshuffle retries so
    # self-pair rejections don't bleed intra weight).
    intra_u: list[np.ndarray] = []
    intra_v: list[np.ndarray] = []
    by_community = np.argsort(community_of, kind="stable")
    cuts = np.searchsorted(community_of[by_community], np.arange(ncomm + 1))
    for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        members = by_community[lo:hi]
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

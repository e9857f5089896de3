"""Named stand-ins for the paper's test graphs (Tables I, II, V).

The paper's inputs range from 42.7M to 3.3B edges — far beyond what a
simulated single-machine runtime can hold.  Each entry here generates a
*scaled-down synthetic graph of the same structure class* (see DESIGN.md
§2): what drives the paper's findings is structure (degree skew,
community strength, diameter class), not absolute size, so stand-ins
preserve the class and the relative size ordering of Table II.

``make_graph("soc-friendster", scale="small")`` is the single entry
point benchmarks use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..graph.csr import CSRGraph
from ..graph.edgelist import EdgeList
from .lfr import generate_lfr
from .meshes import generate_banded, generate_grid3d
from .rmat import generate_rmat
from .smallworld import generate_smallworld
from .ssca2 import generate_ssca2
from .webgraph import generate_webgraph

#: Size multiplier per named scale, ascending.  "small" keeps full
#: variant sweeps fast; "medium" is for single-configuration runs;
#: "large" (20-64 k vertices, 10^5-10^6 edges; every graph generates in
#: well under a second, one p = 1 detection takes seconds) is for
#: benchmarks, examples and the CLI — the test suite stays below it.
SCALES: dict[str, float] = {
    "tiny": 0.4, "small": 1.0, "medium": 3.0, "large": 10.0,
}


@dataclass(frozen=True)
class DatasetSpec:
    """One paper input and its synthetic stand-in."""

    name: str
    structure: str
    paper_vertices: str
    paper_edges: str
    #: Numeric paper edge count, used to derive the model scale factor.
    paper_edge_count: float
    paper_modularity: float
    description: str
    factory: Callable[[float, int], EdgeList]

    def generate(self, scale: str = "small", seed: int = 0) -> EdgeList:
        if scale not in SCALES:
            raise KeyError(
                f"unknown scale {scale!r}; expected one of {sorted(SCALES)}"
            )
        return self.factory(SCALES[scale], seed)

    def generate_csr(self, scale: str = "small", seed: int = 0) -> CSRGraph:
        return self.generate(scale, seed).to_csr()

    def edge_scale_factor(self, g: CSRGraph) -> float:
        """How many real edges one stand-in edge represents.

        Feed this to :meth:`repro.runtime.MachineModel.scaled` so the
        performance model keeps the full-size input's compute/comm
        balance (see DESIGN.md §2).
        """
        if g.num_edges == 0:
            raise ValueError("stand-in graph has no edges")
        return self.paper_edge_count / g.num_edges


def _mesh(nx: int, ny: int, nz: int, jitter: float = 0.0):
    def make(s: float, seed: int) -> EdgeList:
        f = s ** (1.0 / 3.0)
        return generate_grid3d(
            max(2, round(nx * f)),
            max(2, round(ny * f)),
            max(2, round(nz * f)),
            connectivity=18,
            jitter_fraction=jitter,
            seed=seed,
        )

    return make


def _banded(n: int, bandwidth: int, density: float):
    def make(s: float, seed: int) -> EdgeList:
        return generate_banded(
            round(n * s), bandwidth=bandwidth, density=density, seed=seed
        )

    return make


def _rmat(scale0: int, edge_factor: float, a: float, b: float, c: float):
    def make(s: float, seed: int) -> EdgeList:
        extra = 1 if s >= 2.0 else 0
        return generate_rmat(
            scale0 + extra, edge_factor, a=a, b=b, c=c, seed=seed
        )

    return make


def _web(n: int, host: int, inter: float, intra_deg: float = 8.0):
    def make(s: float, seed: int) -> EdgeList:
        return generate_webgraph(
            round(n * s),
            mean_host_size=host,
            inter_fraction=inter,
            intra_degree=intra_deg,
            seed=seed,
        ).edges

    return make


def _lfr(n: int, mu: float, max_degree: int = 50, avg_degree: float = 16.0):
    def make(s: float, seed: int) -> EdgeList:
        return generate_lfr(
            round(n * s),
            mu=mu,
            avg_degree=avg_degree,
            max_degree=max_degree,
            max_community=80,
            seed=seed,
        ).edges

    return make


def _smallworld(n: int, neighbors: int, rewire: float):
    def make(s: float, seed: int) -> EdgeList:
        return generate_smallworld(
            round(n * s), neighbors=neighbors,
            rewire_probability=rewire, seed=seed,
        )

    return make


def _ssca2(n: int, max_clique: int, inter: float):
    def make(s: float, seed: int) -> EdgeList:
        return generate_ssca2(
            round(n * s),
            max_clique_size=max_clique,
            inter_clique_fraction=inter,
            seed=seed,
        ).edges

    return make


#: Table II graphs, ascending by paper edge count, plus the two Table I
#: inputs (CNR, Channel).  Paper modularity = Grappolo single-thread.
DATASETS: dict[str, DatasetSpec] = {}


def _register(spec: DatasetSpec) -> None:
    DATASETS[spec.name] = spec


_register(DatasetSpec(
    name="cnr",
    structure="small-world",
    paper_vertices="325K", paper_edges="3.2M", paper_edge_count=3.2e6, paper_modularity=0.913,
    description="CNR web crawl (Table I); small-world characteristics",
    factory=_smallworld(2400, 8, 0.02),
))
_register(DatasetSpec(
    name="channel",
    structure="mesh",
    paper_vertices="4.8M", paper_edges="42.7M", paper_edge_count=42.7e6, paper_modularity=0.943,
    description="channel-flow mesh (Tables I-II); banded structure",
    factory=_banded(2000, 6, 0.8),
))
_register(DatasetSpec(
    name="com-orkut",
    structure="social",
    paper_vertices="3M", paper_edges="117.1M", paper_edge_count=117.1e6, paper_modularity=0.472,
    description="Orkut social network; heavy-tailed, weak communities",
    factory=_lfr(2000, 0.45, max_degree=80),
))
_register(DatasetSpec(
    name="soc-sinaweibo",
    structure="social",
    paper_vertices="58.6M", paper_edges="261.3M", paper_edge_count=261.3e6, paper_modularity=0.482,
    description="Sina Weibo follower graph; extreme hub skew",
    factory=_lfr(2200, 0.44, max_degree=120, avg_degree=12.0),
))
_register(DatasetSpec(
    name="twitter-2010",
    structure="social",
    paper_vertices="21.2M", paper_edges="265M", paper_edge_count=265e6, paper_modularity=0.478,
    description="Twitter follower graph; hub-dominated",
    factory=_lfr(2400, 0.45, max_degree=150, avg_degree=14.0),
))
_register(DatasetSpec(
    name="nlpkkt240",
    structure="mesh",
    paper_vertices="27.9M", paper_edges="401.2M", paper_edge_count=401.2e6, paper_modularity=0.939,
    description="KKT optimisation matrix; 3-D mesh-like bands (Fig. 5)",
    factory=_banded(3000, 8, 0.7),
))
_register(DatasetSpec(
    name="web-wiki-en-2013",
    structure="web",
    paper_vertices="27.1M", paper_edges="601M", paper_edge_count=601e6, paper_modularity=0.671,
    description="English Wikipedia links; moderate community strength",
    factory=_web(3200, 25, 0.45),
))
_register(DatasetSpec(
    name="arabic-2005",
    structure="web",
    paper_vertices="22.7M", paper_edges="640M", paper_edge_count=640e6, paper_modularity=0.989,
    description="Arabic web crawl; near-perfect host communities",
    factory=_web(3600, 30, 0.004),
))
_register(DatasetSpec(
    name="webbase-2001",
    structure="web",
    paper_vertices="118M", paper_edges="1B", paper_edge_count=1.0e9, paper_modularity=0.983,
    description="WebBase crawl; strong host communities",
    factory=_web(4200, 30, 0.008),
))
_register(DatasetSpec(
    name="web-cc12-PayLevelDomain",
    structure="web",
    paper_vertices="42.8M", paper_edges="1.2B", paper_edge_count=1.2e9, paper_modularity=0.687,
    description="Common Crawl pay-level-domain graph (Fig. 6)",
    factory=_web(4800, 35, 0.42),
))
_register(DatasetSpec(
    name="soc-friendster",
    structure="social",
    paper_vertices="65.6M", paper_edges="1.8B", paper_edge_count=1.8e9, paper_modularity=0.624,
    description="Friendster communities; the paper's flagship input "
                "(Tables III, VI)",
    factory=_lfr(5200, 0.36, max_degree=90),
))
_register(DatasetSpec(
    name="sk-2005",
    structure="web",
    paper_vertices="50.6M", paper_edges="1.9B", paper_edge_count=1.9e9, paper_modularity=0.971,
    description="Slovakian web crawl; few iterations per phase",
    factory=_web(5600, 40, 0.006),
))
_register(DatasetSpec(
    name="uk-2007",
    structure="web",
    paper_vertices="105.8M", paper_edges="3.3B", paper_edge_count=3.3e9, paper_modularity=0.972,
    description="UK web crawl; the paper's largest input",
    factory=_web(6400, 35, 0.007),
))
_register(DatasetSpec(
    name="ssca2",
    structure="clique",
    paper_vertices="5M-150M", paper_edges="334M-6.9B", paper_edge_count=334e6,
    paper_modularity=0.99998,
    description="SSCA#2 weak-scaling inputs (Table V)",
    factory=_ssca2(3000, 20, 0.005),
))

#: The 12 graphs of Table II in the paper's (edge-ascending) order.
TABLE2_NAMES: tuple[str, ...] = (
    "channel",
    "com-orkut",
    "soc-sinaweibo",
    "twitter-2010",
    "nlpkkt240",
    "web-wiki-en-2013",
    "arabic-2005",
    "webbase-2001",
    "web-cc12-PayLevelDomain",
    "soc-friendster",
    "sk-2005",
    "uk-2007",
)


def make_graph(name: str, scale: str = "small", seed: int = 0) -> CSRGraph:
    """Generate the stand-in for paper input ``name`` as a CSR graph."""
    try:
        spec = DATASETS[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; available: {sorted(DATASETS)}"
        ) from None
    return spec.generate_csr(scale=scale, seed=seed)


def dataset(name: str) -> DatasetSpec:
    """Spec lookup with a helpful error."""
    try:
        return DATASETS[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; available: {sorted(DATASETS)}"
        ) from None

"""Benchmark catalog: the full Olden suite ported to EARTH-C.

The first five entries are the programs of the paper's Table II; the
remaining five (bh, bisort, em3d, mst, treeadd) are the rest of the
Olden suite, ported with the same dialect idioms so every benchmark
exercises the optimizer's blkmov/forwarding machinery.

Each :class:`BenchmarkSpec` bundles the EARTH-C source, entry point,
default (scaled-down) problem size, and pipeline options.  Sizes are
scaled from the paper's (see DESIGN.md Section 6) because the simulator
interprets SIMPLE in Python; the communication *patterns* per node are
unchanged.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.earth.interpreter import DEFAULT_MAX_STMTS

_HERE = os.path.dirname(os.path.abspath(__file__))


class BenchmarkSpec:
    """One benchmark program and how to run it."""

    def __init__(
        self,
        name: str,
        filename: str,
        description: str,
        paper_size: str,
        our_size: str,
        default_args: Sequence[int],
        small_args: Sequence[int],
        inline: Union[bool, Set[str]] = False,
        max_stmts: int = DEFAULT_MAX_STMTS,
    ):
        self.name = name
        self.filename = filename
        self.description = description
        self.paper_size = paper_size
        self.our_size = our_size
        self.default_args = tuple(default_args)
        self.small_args = tuple(small_args)
        self.inline = inline
        self.max_stmts = max_stmts
        self._source: Optional[str] = None

    def source(self) -> str:
        """The program text, read from the catalog once per process: a
        served job's key reads it on the gateway's event loop."""
        if self._source is None:
            with open(os.path.join(_HERE, self.filename)) as handle:
                self._source = handle.read()
        return self._source

    def __repr__(self) -> str:
        return f"BenchmarkSpec({self.name!r}, args={self.default_args})"


_SPECS: List[BenchmarkSpec] = [
    BenchmarkSpec(
        name="power",
        filename="power.ec",
        description="Power system optimization problem on a variable "
                    "k-nary tree",
        paper_size="10,000 leaves",
        our_size="16x4x4 tree (256 leaves), 3 steps",
        default_args=(16, 4, 4, 3),
        small_args=(4, 3, 3, 2),
    ),
    BenchmarkSpec(
        name="perimeter",
        filename="perimeter.ec",
        description="Computes the perimeter of a quad-tree encoded "
                    "raster image",
        paper_size="maximum tree-depth 11",
        our_size="maximum tree-depth 6",
        default_args=(6,),
        small_args=(4,),
        inline={"child", "adj", "reflect"},
    ),
    BenchmarkSpec(
        name="tsp",
        filename="tsp.ec",
        description="Finds a sub-optimal tour for the traveling "
                    "salesperson problem (closest-point heuristic)",
        paper_size="32K cities",
        our_size="128 cities",
        default_args=(128,),
        small_args=(32,),
        inline={"distance_pts"},
    ),
    BenchmarkSpec(
        name="health",
        filename="health.ec",
        description="Simulates the Colombian health-care system on a "
                    "4-way tree of villages",
        paper_size="4 levels, 600 iterations",
        our_size="3 levels, 16 iterations",
        default_args=(3, 16),
        small_args=(2, 8),
    ),
    BenchmarkSpec(
        name="voronoi",
        filename="voronoi.ec",
        description="Divide-and-conquer geometric merge over a "
                    "distributed point tree (Voronoi-style merge walk)",
        paper_size="32K points",
        our_size="128 points",
        default_args=(128,),
        small_args=(32,),
    ),
    # -- the rest of the Olden suite (not in the paper's Table II) --
    BenchmarkSpec(
        name="bh",
        filename="bh.ec",
        description="Barnes-Hut N-body simulation on an adaptive "
                    "quadtree (2D)",
        paper_size="4K bodies",
        our_size="40 bodies, 2 timesteps",
        default_args=(40, 2),
        small_args=(12, 1),
    ),
    BenchmarkSpec(
        name="bisort",
        filename="bisort.ec",
        description="Bitonic sort of values at the leaves of a "
                    "distributed perfect binary tree",
        paper_size="250K integers",
        our_size="128 leaves (levels=7), spread 4",
        default_args=(7, 4),
        small_args=(4, 2),
    ),
    BenchmarkSpec(
        name="em3d",
        filename="em3d.ec",
        description="Electromagnetic wave propagation on a bipartite "
                    "E/H node graph",
        paper_size="2K nodes, 100 iterations",
        our_size="48+48 nodes, 4 iterations",
        default_args=(48, 4),
        small_args=(12, 2),
    ),
    BenchmarkSpec(
        name="mst",
        filename="mst.ec",
        description="Minimum spanning tree over hash-partitioned "
                    "vertices (Prim blue-rule steps)",
        paper_size="1K vertices",
        our_size="64 vertices, 8 partitions",
        default_args=(64, 8),
        small_args=(16, 4),
    ),
    BenchmarkSpec(
        name="treeadd",
        filename="treeadd.ec",
        description="Parallel recursive sum over a distributed "
                    "balanced binary tree",
        paper_size="1M tree nodes",
        our_size="1023 tree nodes (levels=10), spread 4",
        default_args=(10, 4),
        small_args=(5, 2),
    ),
]

_BY_NAME: Dict[str, BenchmarkSpec] = {spec.name: spec for spec in _SPECS}


def catalog() -> List[BenchmarkSpec]:
    """All benchmarks, in the paper's Table II order."""
    return list(_SPECS)


def get_benchmark(name: str) -> BenchmarkSpec:
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise KeyError(f"unknown benchmark {name!r} (known: {known})") \
            from None

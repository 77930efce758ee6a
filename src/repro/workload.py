"""Seeded synthetic EARTH-C workload generator.

Generalizes the ad-hoc program strategies in
``tests/property/gen_programs.py`` into a reusable library: a stream
of small-but-real EARTH-C programs over linked heap structures, plus
the :class:`repro.service.jobs.JobSpec` wrappers that run them, all a
pure function of one seed.  Two consumers share it:

* ``python -m repro genjobs`` emits a JSON job array compatible with
  ``python -m repro batch --jobs``;
* the property/fleet test suites soak the whole stack (parser through
  HTTP gateway) on programs nobody hand-wrote.

Every program is built from one of three structure *shapes* --

``list``
    a strip-distributed chain (``malloc ... @ (i % num_nodes())``)
    swept by generated read/write/read-modify-write field traffic;
``tree``
    a distributed binary tree built recursively, with generated field
    traffic folded into a recursive reduction;
``mesh``
    two cross-linked chains (em3d-style bipartite wiring from a linear
    congruential walk) swept through hoisted neighbor pointers --

and parameterized by a size, a sweep count, and a read/write mix.  The
structure placement uses ``num_nodes()`` but the *values* never do, and
no program contains a parallel statement sequence, so results are
independent of the machine size: the same program must return the same
value and output on 1 node and on N, on every engine, under any fault
plan, with or without the remote-data cache.  That invariant is what
makes the generated stream usable as a differential oracle.

Determinism: generation draws only from ``random.Random`` seeded with
the workload seed (``random.Random(f"workload-{seed}")``) and iterates
only ordered sequences -- two generations from the same seed and knobs
are byte-identical, so a job stream can be named by its seed alone.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import RunConfig
from repro.earth.faults import PROFILES
from repro.earth.interpreter import DEFAULT_ENGINE
from repro.service.jobs import JobSpec

#: Structure shapes the generator knows how to build.
SHAPES = ("list", "tree", "mesh")

#: Named read/write mixes: (read, write, rmw) weights for the field
#: traffic inside the generated sweep bodies.
MIXES: Dict[str, Tuple[int, int, int]] = {
    "read-heavy": (6, 1, 1),
    "write-heavy": (1, 5, 2),
    "balanced": (3, 2, 2),
}

#: Integer fields of the one generated struct (two pointers ride
#: along: ``next`` chains, ``link`` cross-links / right children).
FIELDS = ("f0", "f1", "f2", "f3")


def flat_field_statements(rng, ptrs: Sequence[str] = ("a", "b", "c"),
                          fields: Sequence[str] = FIELDS,
                          acc: str = "t", count: Optional[int] = None,
                          weights: Tuple[int, int, int] = (1, 1, 1),
                          ) -> List[str]:
    """Straight-line field traffic over in-scope pointers: reads into
    the accumulator, writes from it, and read-modify-writes.  Safe
    inside a walk body (touches no cursor, contains no control flow).

    ``rng`` needs only ``randint`` and ``choice`` -- a
    ``random.Random`` works, and so does a thin adapter over a
    Hypothesis ``draw`` (see ``tests/property/gen_programs.py``).
    """
    if count is None:
        count = rng.randint(1, 3)
    population = (["read"] * weights[0] + ["write"] * weights[1]
                  + ["rmw"] * weights[2])
    lines = []
    for _ in range(count):
        kind = rng.choice(population)
        ptr = rng.choice(list(ptrs))
        field = rng.choice(list(fields))
        if kind == "read":
            lines.append(f"{acc} = {acc} + {ptr}->{field};")
        elif kind == "write":
            value = rng.randint(0, 9)
            lines.append(f"{ptr}->{field} = {acc} + {value};")
        else:
            lines.append(f"{ptr}->{field} = {ptr}->{field} + 1;")
    return lines


# ---------------------------------------------------------------------------
# Program templates
# ---------------------------------------------------------------------------

_HEADER = """\
struct cell {
    int f0; int f1; int f2; int f3;
    struct cell *next;
    struct cell *link;
};
"""

_BUILD_LIST = """\
struct cell *build_list(int n) {
    struct cell *head;
    struct cell *p;
    int i; int nn;
    nn = num_nodes();
    head = NULL;
    i = 0;
    while (i < n) {
        p = (struct cell *) malloc(sizeof(struct cell)) @ (i % nn);
        p->f0 = i + 1;
        p->f1 = i * 3 + 2;
        p->f2 = 17 - i;
        p->f3 = (i * 5) % 11;
        p->next = head;
        p->link = NULL;
        head = p;
        i = i + 1;
    }
    return head;
}
"""

_BUILD_TREE = """\
struct cell *build_tree(int depth, int label) {
    struct cell *t;
    int nn;
    nn = num_nodes();
    t = (struct cell *) malloc(sizeof(struct cell)) @ (label % nn);
    t->f0 = label;
    t->f1 = depth + 1;
    t->f2 = label * 2 + depth;
    t->f3 = (label + depth) % 13;
    t->next = NULL;
    t->link = NULL;
    if (depth > 0) {
        t->next = build_tree(depth - 1, label * 2);
        t->link = build_tree(depth - 1, label * 2 + 1);
    }
    return t;
}
"""

_NTH_AND_WIRE = """\
struct cell *nth(struct cell *list, int i) {
    struct cell *p;
    p = list;
    while (i > 0) {
        p = p->next;
        i = i - 1;
    }
    return p;
}

int wire(struct cell *from, struct cell *to, int n, int seed) {
    struct cell *p;
    int count;
    p = from;
    count = 0;
    while (p != NULL) {
        seed = (seed * 1103515245 + 12345) & 2147483647;
        p->link = nth(to, seed % n);
        p = p->next;
        count = count + 1;
    }
    return count;
}
"""

_LIST_CHECKSUM = """\
int checksum(struct cell *list) {
    struct cell *p;
    int t;
    t = 0;
    p = list;
    while (p != NULL) {
        t = t * 3 + p->f0 + p->f1 + p->f2 + p->f3;
        t = t % 1000003;
        p = p->next;
    }
    return t;
}
"""

_TREE_CHECKSUM = """\
int checksum(struct cell *t) {
    int here; int l; int r;
    if (t == NULL) {
        return 0;
    }
    here = t->f0 * 3 + t->f1 + t->f2 + t->f3;
    l = checksum(t->next);
    r = checksum(t->link);
    return (here + l * 2 + r * 5) % 1000003;
}
"""


def _indent(lines: Sequence[str], by: str) -> str:
    return "\n".join(by + line for line in lines)


def _list_source(rng, weights) -> str:
    body = flat_field_statements(rng, ptrs=("p",), acc="t",
                                 count=rng.randint(2, 5),
                                 weights=weights)
    return f"""{_HEADER}
{_BUILD_LIST}
int work(struct cell *head, int sweeps) {{
    struct cell *p;
    int t; int s;
    t = 0;
    s = 0;
    while (s < sweeps) {{
        p = head;
        while (p != NULL) {{
{_indent(body, ' ' * 12)}
            t = t % 1000003;
            p = p->next;
        }}
        s = s + 1;
    }}
    return t;
}}

{_LIST_CHECKSUM}
int main(int n, int sweeps) {{
    struct cell *head;
    int w; int c;
    head = build_list(n);
    w = work(head, sweeps);
    c = checksum(head);
    return (w * 31 + c * 7) % 1000003;
}}
"""


def _tree_source(rng, weights) -> str:
    body = flat_field_statements(rng, ptrs=("t",), acc="acc",
                                 count=rng.randint(2, 5),
                                 weights=weights)
    return f"""{_HEADER}
{_BUILD_TREE}
int work(struct cell *t) {{
    int acc; int l; int r;
    if (t == NULL) {{
        return 0;
    }}
    acc = 0;
{_indent(body, ' ' * 4)}
    l = work(t->next);
    r = work(t->link);
    return (acc + l * 2 + r * 3) % 1000003;
}}

{_TREE_CHECKSUM}
int main(int depth, int sweeps) {{
    struct cell *root;
    int s; int w; int c;
    root = build_tree(depth, 1);
    w = 0;
    s = 0;
    while (s < sweeps) {{
        w = (w * 13 + work(root)) % 1000003;
        s = s + 1;
    }}
    c = checksum(root);
    return (w * 31 + c * 7) % 1000003;
}}
"""


def _mesh_source(rng, weights) -> str:
    # The sweep hoists the cross-link into a local pointer, so the
    # generated traffic can mix same-cell and neighbor-cell fields --
    # the access pattern the paper's blocking transformation targets.
    body = flat_field_statements(rng, ptrs=("p", "q"), acc="t",
                                 count=rng.randint(2, 5),
                                 weights=weights)
    return f"""{_HEADER}
{_BUILD_LIST}
{_NTH_AND_WIRE}
int sweep(struct cell *list) {{
    struct cell *p;
    struct cell *q;
    int t;
    t = 0;
    p = list;
    while (p != NULL) {{
        q = p->link;
{_indent(body, ' ' * 8)}
        t = t % 1000003;
        p = p->next;
    }}
    return t;
}}

{_LIST_CHECKSUM}
int main(int n, int sweeps) {{
    struct cell *e;
    struct cell *h;
    int wired; int s; int w; int c;
    e = build_list(n);
    h = build_list(n);
    wired = wire(e, h, n, 1);
    w = 0;
    s = 0;
    while (s < sweeps) {{
        w = (w * 13 + sweep(e)) % 1000003;
        s = s + 1;
    }}
    c = (checksum(e) + checksum(h)) % 1000003;
    return (w * 31 + c * 7 + wired) % 1000003;
}}
"""


_SHAPE_SOURCES = {
    "list": _list_source,
    "tree": _tree_source,
    "mesh": _mesh_source,
}


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------


class WorkloadJob:
    """One generated program plus the run parameters that drive it."""

    __slots__ = ("name", "shape", "size", "sweeps", "mix", "run",
                 "source")

    def __init__(self, name: str, shape: str, size: int, sweeps: int,
                 mix: str, run: RunConfig, source: str):
        self.name = name
        self.shape = shape
        self.size = size
        self.sweeps = sweeps
        self.mix = mix
        #: Machine size, engine, cache geometry and fault spec; the
        #: program arguments are :attr:`args`, not ``run.args``.
        self.run = run
        self.source = source

    @property
    def args(self) -> List[int]:
        """``main(n_or_depth, sweeps)`` arguments for this job."""
        return [self.size, self.sweeps]

    @property
    def filename(self) -> str:
        return f"{self.name}.ec"

    def spec(self, kind: str = "run") -> JobSpec:
        """This job as a ``compile`` or ``run`` :class:`JobSpec`."""
        return JobSpec(kind, source=self.source,
                       filename=self.filename, optimize=True,
                       **dict(self.run.wire(), args=self.args,
                              max_stmts=None))

    def to_dict(self, kind: str = "run") -> Dict[str, object]:
        """The ``batch --jobs`` / ``POST /v1/jobs`` wire form."""
        return self.spec(kind).to_dict()

    def replace(self, **changes) -> "WorkloadJob":
        fields = {slot: getattr(self, slot) for slot in self.__slots__}
        fields.update(changes)
        return WorkloadJob(**fields)

    def __repr__(self) -> str:
        return (f"WorkloadJob({self.name}, {self.shape}, "
                f"size={self.size}, sweeps={self.sweeps}, "
                f"engine={self.run.engine}, nodes={self.run.nodes})")


def generate_source(rng, shape: str, mix: str = "balanced") -> str:
    """One EARTH-C program of the given shape, its sweep bodies drawn
    from ``rng`` with the named read/write mix."""
    if shape not in _SHAPE_SOURCES:
        raise ValueError(f"unknown workload shape {shape!r} "
                         f"(known: {', '.join(SHAPES)})")
    if mix not in MIXES:
        raise ValueError(f"unknown workload mix {mix!r} "
                         f"(known: {', '.join(sorted(MIXES))})")
    return _SHAPE_SOURCES[shape](rng, MIXES[mix])


def generate_jobs(seed: int, count: int, *,
                  shapes: Sequence[str] = SHAPES,
                  mixes: Sequence[str] = tuple(sorted(MIXES)),
                  sizes: Tuple[int, int] = (3, 8),
                  sweeps: Tuple[int, int] = (1, 3),
                  nodes: Sequence[int] = (2, 4),
                  engines: Sequence[str] = (DEFAULT_ENGINE,),
                  fault_profiles: Sequence[Optional[str]] = (None,),
                  rcache_capacities: Sequence[int] = (0,),
                  ) -> List[WorkloadJob]:
    """A deterministic stream of ``count`` heterogeneous jobs.

    Each knob is a pool the job's parameters are drawn from:
    ``shapes``/``mixes`` pick the program family, ``sizes``/``sweeps``
    are inclusive ranges for the structure size (tree jobs interpret
    it as depth, capped at 6) and sweep count, and
    ``nodes``/``engines``/``fault_profiles``/``rcache_capacities``
    pick the run configuration.  A fault profile of ``None`` means a
    clean network; named profiles come from
    :data:`repro.earth.faults.PROFILES` with a drawn seed.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    for profile in fault_profiles:
        if profile is not None and profile not in PROFILES:
            raise ValueError(f"unknown fault profile {profile!r} "
                             f"(known: {', '.join(sorted(PROFILES))})")
    rng = random.Random(f"workload-{seed}")
    jobs = []
    for index in range(count):
        shape = rng.choice(list(shapes))
        mix = rng.choice(list(mixes))
        size = rng.randint(*sizes)
        if shape == "tree":
            # size is a depth for trees: 2^(d+1)-1 cells, so cap it.
            size = min(size, 6)
        sweep_count = rng.randint(*sweeps)
        node_count = rng.choice(list(nodes))
        engine = rng.choice(list(engines))
        profile = rng.choice(list(fault_profiles))
        faults = None if profile is None \
            else dict(PROFILES[profile], seed=rng.randint(0, 9999))
        rcache = rng.choice(list(rcache_capacities))
        source = generate_source(rng, shape, mix)
        jobs.append(WorkloadJob(
            name=f"gen-{seed}-{index:03d}-{shape}", shape=shape,
            size=size, sweeps=sweep_count, mix=mix,
            run=RunConfig(nodes=node_count, engine=engine,
                          rcache_capacity=rcache, faults=faults),
            source=source))
    return jobs

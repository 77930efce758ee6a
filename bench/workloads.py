"""The five workloads and the closed loop that drives them.

Each workload stresses different layers (``bench/README.md`` has the
table); each visits its inputs in a fixed seeded order so that a slow
stretch of the host falls on all inputs alike.
"""

from __future__ import annotations

import http.client
import json
import random
import shutil
import signal
import tempfile
import threading
import time
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro import RunConfig, compile_source, execute
from repro.config import DEFAULT_MAX_STMTS
from repro.fleet.loadgen import launch_gateway
from repro.olden.loader import catalog
from repro.service.jobs import JobSpec, compile_payload
from repro.shard.scenarios import SCENARIOS, compile_scenario, config_for
from repro.workload import MIXES, SHAPES, generate_source

from bench import oracle
from bench.host import HostSpeed
from bench.spans import Spans

#: Fixed rotation of generated-program families.  A random draw of
#: shapes would move the share of (slow) tree jobs by a few percent
#: from seed to seed, and the op-time mean with it; only the statement
#: bodies are drawn from the seed.
COMBOS = [(shape, mix) for shape in SHAPES for mix in sorted(MIXES)]

#: ``main(size, sweeps)`` per shape: small enough that a generated job
#: is mostly compile + engine build -- the "short cold job".
RUN_ARGS = {"list": (8, 2), "tree": (4, 2), "mesh": (8, 2)}

SHARD_SCENARIO = "mst512"

#: One Olden job per this many in the cold stream: rare enough that the
#: 90th percentile stays among generated jobs, frequent enough that a
#: ten-second run holds about ten.
OLDEN_EVERY = 30
OLDEN_NODES = (2, 4, 8)

WARM_GENERATED = 54


class OpTimeout(Exception):
    """An op ran past its workload's limit; it counts as failed."""


class Sample(NamedTuple):
    op_id: int
    input_id: str
    start: float
    end: float
    ok: bool


class Program(NamedTuple):
    name: str
    source: str
    filename: str
    args: tuple


def generated_programs(seed: int, count: int) -> List[Program]:
    """``count`` distinct generated programs, a pure function of
    ``seed``; program *i* is the same whatever ``count`` is."""
    rng = random.Random(f"bench-{seed}")
    seen = set()
    programs = []
    while len(programs) < count:
        index = len(programs)
        shape, mix = COMBOS[index % len(COMBOS)]
        source = generate_source(rng, shape, mix)
        if source in seen:
            continue
        seen.add(source)
        name = f"gen-{seed}-{index:04d}-{shape}"
        programs.append(Program(name, source, f"{name}.ec",
                                RUN_ARGS[shape]))
    return programs


def default_seed_programs(seed: int) -> List[Program]:
    """What ``bench/expected.json`` holds answers for."""
    return generated_programs(seed, 600)


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


class Workload:
    """Base: subclasses fill in set-up, the op, and its check."""

    name = ""
    why = ""
    #: Client threads (each waits for its reply before its next op).
    clients = 1
    #: Visit ``items`` round-robin and stop on a whole round; a stream
    #: workload (``False``) never repeats an item.
    cycle = True
    #: Whether the work runs in this thread (kernel samples are taken
    #: between ops) or elsewhere (a sampler thread takes them).
    in_thread = True
    #: What a stream workload calls a round (a ``--quick`` run does
    #: one): it runs at least this many ops.
    round_ops = 0
    warmup_s = 2.0
    op_timeout_s = 30.0

    def __init__(self, seed: int, expected: oracle.Expected,
                 out_dir: str, seconds: float):
        self.seed = seed
        self.expected = expected
        self.out_dir = out_dir
        self.seconds = seconds
        self.items: list = []
        #: First few exceptions ops raised, for the report.
        self.errors: List[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def op(self, item, spans: Spans, op_id: int) -> bool:
        """Run one op; True iff its output is right.  May raise."""
        raise NotImplementedError

    def verify(self, samples: List[Sample]) -> List[Sample]:
        """Checks left until timing has stopped (oracle runs)."""
        return samples

    def extras(self) -> Dict[str, object]:
        """Check fields printed beside the metrics."""
        return {}


def _alarm(signum, frame):
    raise OpTimeout("op exceeded its time limit")


def drive(workload: Workload, seconds: float, spans: Spans,
          speed: HostSpeed, first: int = 0) -> List[Sample]:
    """Closed loop: each client sends its next op when its last one
    has completed.  Returns one sample per op, in start order."""
    items = workload.items
    samples: List[Sample] = []
    lock = threading.Lock()
    state = {"next": first, "stop": False}
    begin = time.perf_counter()
    main = threading.current_thread() is threading.main_thread()

    def claim() -> Optional[int]:
        with lock:
            index = state["next"]
            late = time.perf_counter() - begin >= seconds
            if workload.cycle:
                if late and index % len(items) == 0 and index > first:
                    state["stop"] = True
            elif late and index - first >= workload.round_ops \
                    or index >= len(items):
                state["stop"] = True
            if state["stop"]:
                return None
            state["next"] = index + 1
            return index

    def client(alarms: bool) -> None:
        while True:
            index = claim()
            if index is None:
                return
            item = items[index % len(items)]
            if workload.in_thread:
                speed.tick()
            if alarms:
                signal.setitimer(signal.ITIMER_REAL, workload.op_timeout_s)
            start = time.perf_counter()
            try:
                ok = workload.op(item, spans, index)
            except Exception as exc:
                ok = False
                if len(workload.errors) < 5:
                    workload.errors.append(
                        f"op {index} ({item.name}): "
                        f"{type(exc).__name__}: {exc}")
            finally:
                end = time.perf_counter()
                if alarms:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            with lock:
                samples.append(Sample(index, item.name, start, end, ok))

    if workload.clients == 1:
        previous = signal.signal(signal.SIGALRM, _alarm) if main else None
        try:
            client(alarms=main)
        finally:
            if main:
                signal.signal(signal.SIGALRM, previous)
    else:
        threads = [threading.Thread(target=client, args=(False,),
                                    name=f"bench-client-{i}", daemon=True)
                   for i in range(workload.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    samples.sort(key=lambda sample: sample.start)
    return samples


# ---------------------------------------------------------------------------
# 1. compile-olden
# ---------------------------------------------------------------------------


class CompileInput(NamedTuple):
    name: str
    source: str
    filename: str
    inline: object
    check_args: tuple
    max_stmts: int
    olden: bool


def compile_inputs(seed: int) -> List[CompileInput]:
    """The ten Olden sources with their catalog options, then ten
    generated programs."""
    inputs = [CompileInput(spec.name, spec.source(), spec.filename,
                           spec.inline, spec.small_args, spec.max_stmts,
                           True) for spec in catalog()]
    inputs += [CompileInput(p.name, p.source, p.filename, False, p.args,
                            DEFAULT_MAX_STMTS, False)
               for p in generated_programs(seed, 10)]
    return inputs


class CompileOlden(Workload):
    name = "compile-olden"
    why = ("frontend, simple, analysis, comm and backend do all the work "
           "and earth/service/fleet none: a pass's cost shows here, a "
           "simulator change must not")

    def setup(self) -> None:
        self.items = compile_inputs(self.seed)
        self._first: Dict[str, tuple] = {}
        self._compiled: Dict[str, object] = {}

    def op(self, item, spans, op_id) -> bool:
        # compile + payload is what a ``compile`` job produces; the
        # payload renders the SIMPLE and Threaded-C listings itself.
        with spans.span("compile_op", "bench", op_id):
            with spans.span("compile_source", "harness"):
                compiled = compile_source(item.source, item.filename,
                                          optimize=True,
                                          inline=item.inline)
            with spans.span("compile_payload", "service"):
                payload = compile_payload(compiled)
        self._compiled[item.name] = compiled
        # Statement labels come from a process-wide counter, so two
        # compiles' listings differ in their S-numbers; everything
        # else about the product must repeat.
        shape = (payload["optimized"], payload["inlined_calls"],
                 payload["functions"], payload["optimizer"],
                 payload["listing"].count("\n"),
                 payload["threaded"].count("\n"))
        return shape == self._first.setdefault(item.name, shape)

    def verify(self, samples):
        """The compiler's output is right if the program it produced
        computes what the oracle says: run each input's last product
        once, on 4 nodes, and fail all its ops if it does not."""
        wrong = set()
        for item in self.items:
            compiled = self._compiled.get(item.name)
            if compiled is None:
                continue
            result = execute(compiled, config=RunConfig(
                nodes=4, args=item.check_args, max_stmts=item.max_stmts))
            if item.olden:
                want = self.expected.olden_ref(item.name, "small")
            else:
                want = self.expected.generated_ref(
                    item.source, item.filename, item.check_args)
            if not oracle.matches(want, result.value, result.output):
                wrong.add(item.name)
        return [s._replace(ok=s.ok and s.input_id not in wrong)
                for s in samples]


# ---------------------------------------------------------------------------
# 2. sim-olden
# ---------------------------------------------------------------------------


class _SimInput(NamedTuple):
    name: str
    compiled: object
    config: RunConfig


def sim_record(result) -> list:
    return [result.value, list(result.output), result.time_ns,
            result.stats.snapshot()]


class SimOlden(Workload):
    name = "sim-olden"
    why = ("earth (engine + machine) does the work and the compiler "
           "none; no engine is named, so a change of default engine or "
           "a deleted tier shows here and nowhere else")
    warmup_s = 0.0     # one whole round (about 2 s) is the warm-up

    def setup(self) -> None:
        self.items = [
            _SimInput(
                spec.name,
                compile_source(spec.source(), spec.filename,
                               optimize=True, inline=spec.inline),
                # No engine named: the product's default is measured.
                RunConfig(nodes=4, args=spec.default_args,
                          max_stmts=spec.max_stmts))
            for spec in catalog()]
        self._records: Dict[str, list] = {}

    def op(self, item, spans, op_id) -> bool:
        with spans.span("execute", "earth", op_id):
            result = execute(item.compiled, config=item.config)
        record = sim_record(result)
        first = self._records.setdefault(item.name, record)
        want = self.expected.olden_ref(item.name, "default")
        return record == first \
            and oracle.matches(want, result.value, result.output)

    def extras(self):
        from bench.stats import sim_digest
        return {"sim_digest": sim_digest(
            self._records.get(item.name) for item in self.items)}


# ---------------------------------------------------------------------------
# 3/4. serve-cold, serve-warm
# ---------------------------------------------------------------------------


class _Job(NamedTuple):
    name: str
    wire: dict
    #: How to find the right answer: an Olden ``(name, size)`` or the
    #: generated :class:`Program`.
    olden: Optional[tuple]
    program: Optional[Program]


def _wire(spec: JobSpec) -> dict:
    wire = spec.to_dict()
    # No engine on the wire: the served default is what is measured.
    del wire["engine"]
    return wire


def generated_job(program: Program) -> _Job:
    spec = JobSpec("run", source=program.source,
                   filename=program.filename, nodes=4,
                   args=list(program.args))
    return _Job(program.name, _wire(spec), None, program)


def _olden_job(name: str, nodes: int, small: bool) -> _Job:
    spec = JobSpec("run", benchmark=name, nodes=nodes, small=small)
    size = "small" if small else "default"
    return _Job(f"{name}-{size}-n{nodes}", _wire(spec), (name, size), None)


def cold_stream(seed: int, count: int) -> List[_Job]:
    """``count`` jobs no two of which share a cache key: generated
    programs, with every ``OLDEN_EVERY``-th job one of the ten Olden at
    catalog size on 2, 4 or 8 nodes (30 of those exist)."""
    olden = iter([(spec.name, nodes) for nodes in OLDEN_NODES
                  for spec in catalog()])
    programs = iter(generated_programs(seed, count))
    jobs = []
    for index in range(count):
        pick = next(olden, None) \
            if index % OLDEN_EVERY == OLDEN_EVERY - 1 else None
        jobs.append(_olden_job(*pick, small=False) if pick
                    else generated_job(next(programs)))
    return jobs


def warm_set(seed: int) -> List[_Job]:
    """64 jobs to prime and then hit: 54 generated and the ten Olden at
    small size (their payloads are the large ones), shuffled."""
    jobs = [generated_job(p)
            for p in generated_programs(seed, WARM_GENERATED)]
    jobs += [_olden_job(spec.name, 4, small=True) for spec in catalog()]
    random.Random(f"bench-warm-{seed}").shuffle(jobs)
    return jobs


class Connection:
    """One keep-alive HTTP/JSON connection to a gateway."""

    def __init__(self, gateway, timeout_s: float):
        self._http = http.client.HTTPConnection(
            gateway.host, gateway.port, timeout=timeout_s)

    def request(self, method: str, path: str, body=None) -> tuple:
        """``(status, parsed body)``."""
        try:
            if body is None:
                self._http.request(method, path)
            else:
                self._http.request(
                    method, path, body=json.dumps(body).encode("utf-8"),
                    headers={"Content-Type": "application/json"})
            response = self._http.getresponse()
            return response.status, json.loads(response.read())
        except (OSError, ValueError, http.client.HTTPException):
            # Closed, it reconnects on the next request: one broken
            # exchange must not fail every later op too.
            self._http.close()
            raise

    def post_job(self, wire: dict) -> tuple:
        return self.request("POST", "/v1/jobs", wire)

    def close(self) -> None:
        self._http.close()


def cache_counters(gateway) -> tuple:
    """``(hits, misses)`` so far, from the gateway's ``/metrics``."""
    metrics = gateway.metrics()["metrics"]
    return metrics["cache_hits"], metrics["cache_misses"]


class _Served(Workload):
    """Two connections to one ``fleet-serve`` gateway subprocess."""

    clients = 2
    in_thread = False
    op_timeout_s = 60.0
    #: ``cache`` every timed op must report, and so the hit ratio
    #: ``/metrics`` must show over the timed section.
    disposition = ""
    gateway = None
    _dir = None

    def setup(self) -> None:
        self._dir = tempfile.mkdtemp(prefix="cache-", dir=self.out_dir)
        self.gateway = launch_gateway(self._dir, workers=2)
        self._local = threading.local()
        self._connections: List[Connection] = []
        self._answers: Dict[int, tuple] = {}

    def teardown(self) -> None:
        self._close_connections()
        if self.gateway is not None:
            self.gateway.shutdown()
            self.gateway = None
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None

    def _close_connections(self) -> None:
        for connection in getattr(self, "_connections", ()):
            connection.close()
        self._connections = []
        self._local = threading.local()

    def post(self, wire: dict) -> tuple:
        """One job over the calling thread's connection."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = Connection(self.gateway, self.op_timeout_s)
            self._local.connection = connection
            self._connections.append(connection)
        return connection.post_job(wire)

    def op(self, job, spans, op_id) -> bool:
        with spans.span("http_job", "fleet", op_id) as parent:
            status, body = self.post(job.wire)
            end = time.perf_counter()
        result = body.get("result") or {}
        if spans.enabled:
            # The worker's share, from the envelope; what is left of
            # the client span is wire + admission + dispatch.
            wall = float(result.get("wall_s") or 0.0)
            spans.add(f"worker_{result.get('cache')}", "service",
                      end - wall, end, parent)
        if status != 200 or not body.get("ok") or not result.get("ok") \
                or result.get("cache") != self.disposition:
            return False
        run = result["payload"]["run"]
        self._answers[op_id] = (job, run["value"], run["output"])
        return True

    def _right(self, op_id: int) -> bool:
        job, value, output = self._answers[op_id]
        if job.olden is not None:
            want = self.expected.olden_ref(*job.olden)
        else:
            want = self.expected.generated_ref(
                job.program.source, job.program.filename,
                job.program.args)
        return oracle.matches(want, value, output)

    def verify(self, samples):
        return [s._replace(ok=s.ok and self._right(s.op_id))
                for s in samples]

    def cache_counters(self) -> tuple:
        return cache_counters(self.gateway)


class ServeCold(_Served):
    name = "serve-cold"
    why = ("every job is a miss: HTTP framing, admission, dispatch, "
           "key, compile, engine build, simulate, payload and cache "
           "write all run once per op -- the short cold job")
    cycle = False
    round_ops = OLDEN_EVERY
    disposition = "miss"
    #: Jobs per second of run the stream is sized for (today: ~35/s).
    STREAM_PER_S = 150

    def setup(self) -> None:
        super().setup()
        self.items = cold_stream(
            self.seed,
            int(self.STREAM_PER_S * (self.seconds + self.warmup_s)))


class ServeWarm(_Served):
    name = "serve-warm"
    why = ("every job is a hit: framing, admission, dispatch, pickle, "
           "key and cache read dominate, compiler and simulator do "
           "nothing -- a compile or engine speed-up must leave it flat")
    disposition = "hit"

    def setup(self) -> None:
        super().setup()
        self.items = warm_set(self.seed)
        # Prime through both connections at once, as the timed loop
        # will use them.
        halves = [self.items[0::2], self.items[1::2]]
        failures: List[str] = []

        def prime(jobs: Sequence[_Job]) -> None:
            for job in jobs:
                try:
                    status, body = self.post(job.wire)
                    if status != 200 or not body.get("ok"):
                        failures.append(f"{job.name}: HTTP {status}")
                except (OSError, ValueError,
                        http.client.HTTPException) as exc:
                    failures.append(f"{job.name}: {exc}")

        threads = [threading.Thread(target=prime, args=(half,),
                                    daemon=True) for half in halves]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Priming threads are gone; their connections go with them.
        self._close_connections()
        if failures:
            raise RuntimeError("priming failed: " + "; ".join(failures[:3]))


# ---------------------------------------------------------------------------
# 5. shard-mst512
# ---------------------------------------------------------------------------


class ShardMst512(Workload):
    name = "shard-mst512"
    why = ("512 nodes over two worker processes: barrier windows and "
           "pickled cross-shard messages; the workload ROADMAP's "
           "K=2-must-beat-one-process rule is judged on")
    in_thread = False
    warmup_s = 0.0     # one op (about 1.6 s)
    op_timeout_s = 60.0

    def setup(self) -> None:
        scenario = SCENARIOS[SHARD_SCENARIO]
        self.compiled = compile_scenario(scenario)
        self.config = config_for(scenario, shards=2)
        # The single-process run every sharded op must equal, bit for
        # bit; the oracle's answer is checked on top.
        single = execute(self.compiled,
                         config=self.config.replace(shards=1))
        self._single = sim_record(single)
        self.items = [scenario]

    def op(self, item, spans, op_id) -> bool:
        with spans.span("execute_sharded", "shard", op_id):
            result = execute(self.compiled, config=self.config)
        want = self.expected.scenarios[item.name]
        return sim_record(result) == self._single \
            and oracle.matches(want, result.value, result.output)

    def extras(self):
        from bench.stats import sim_digest
        return {"sim_digest": sim_digest([self._single])}


WORKLOADS = {cls.name: cls for cls in (CompileOlden, SimOlden, ServeCold,
                                       ServeWarm, ShardMst512)}

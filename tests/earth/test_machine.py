"""Discrete-event machine tests using hand-written fibers."""

import pytest

from repro.config import RunConfig
from repro.earth.machine import Fiber, JoinCounter, Machine, Slot
from repro.earth.params import MachineParams
from repro.errors import SimulatorError
from repro.harness.pipeline import compile_earthc, execute
from repro.obs.trace import Tracer
from repro.olden.loader import get_benchmark
from repro.shard.runner import run_sharded


def run_fiber(machine, gen, node=0):
    done = {}

    def wrapper():
        result = yield from gen()
        done["value"] = result

    fiber = Fiber(wrapper(), node)
    fiber.on_done.append(lambda m, t: done.setdefault("time", t))
    machine.add_fiber(fiber)
    machine.run()
    return done


class TestBusy:
    def test_busy_advances_time(self):
        machine = Machine(1)

        def gen():
            machine.clock[0] += 1000.0
            machine.clock[0] += 500.0
            yield from ()  # a fiber is a generator
            return 7

        done = run_fiber(machine, gen)
        assert done["value"] == 7
        assert done["time"] == pytest.approx(1500.0)


class TestSplitPhase:
    def test_remote_read_costs(self):
        params = MachineParams()
        machine = Machine(2, params)
        addr = machine.memory.allocate(1, 1)
        machine.memory.write_word(addr, 99)

        def gen():
            slot = machine.issue(
                "read", 1, 1, lambda: machine.memory.read_word(addr), "r")
            value = yield slot
            return value

        done = run_fiber(machine, gen)
        assert done["value"] == 99
        expected = params.read_issue_ns + 2 * params.read_one_way_ns \
            + params.su_service_ns
        assert done["time"] == pytest.approx(expected)
        assert machine.stats.remote_reads == 1

    def test_local_op_is_cheap_and_immediate(self):
        params = MachineParams()
        machine = Machine(2, params)
        addr = machine.memory.allocate(0, 1)
        machine.memory.write_word(addr, 5)

        def gen():
            # Completes inside the call: the value, not a slot.
            value = machine.issue(
                "read", 0, 1, lambda: machine.memory.read_word(addr), "r")
            yield from ()  # a fiber is a generator
            return value

        done = run_fiber(machine, gen)
        assert done["value"] == 5
        assert done["time"] == pytest.approx(params.local_remote_op_ns)
        assert machine.stats.local_reads == 1
        assert machine.stats.remote_reads == 0

    def test_pipelined_issues_overlap(self):
        params = MachineParams()
        machine = Machine(2, params)
        addr = machine.memory.allocate(1, 8)
        for i in range(8):
            machine.memory.write_word(addr + i, i)

        def make(k):
            def gen():
                slots = [
                    machine.issue(
                        "read", 1, 1,
                        lambda i=i: machine.memory.read_word(addr + i),
                        f"r{i}")
                    for i in range(k)]
                total = 0
                for slot in slots:
                    total += slot.value if slot.ready else (yield slot)
                return total
            return gen

        t = {}
        for k in (4, 8):
            machine = Machine(2, params)
            addr = machine.memory.allocate(1, 8)
            for i in range(8):
                machine.memory.write_word(addr + i, i)
            done = run_fiber(machine, make(k))
            t[k] = done["time"]
        marginal = (t[8] - t[4]) / 4
        assert marginal == pytest.approx(params.read_issue_ns, rel=0.05)

    def test_su_contention_serializes(self):
        # Two nodes hammer node 2's SU simultaneously; the second
        # request waits for the first's service slot.
        params = MachineParams()
        machine = Machine(3, params)
        addr = machine.memory.allocate(2, 2)
        machine.memory.write_word(addr, 1)
        machine.memory.write_word(addr + 1, 2)
        times = {}

        def reader(node, offset):
            def gen():
                yield machine.issue(
                    "read", 2, 1,
                    lambda: machine.memory.read_word(addr + offset), "r")
                return None
            done = {}

            def wrapper():
                yield from gen()
                done["x"] = True

            fiber = Fiber(wrapper(), node)
            fiber.on_done.append(
                lambda m, t: times.setdefault(node, t))
            machine.add_fiber(fiber)

        reader(0, 0)
        reader(1, 1)
        machine.run()
        assert abs(times[0] - times[1]) >= params.su_service_ns * 0.9


class TestFibersAndSlots:
    def test_spawn_and_join(self):
        machine = Machine(2)
        order = []

        def child(tag):
            def gen():
                machine.clock[0] += 100.0
                order.append(tag)
                yield from ()  # a fiber is a generator
            return gen

        def parent():
            join = JoinCounter(2)
            for i, node in enumerate((0, 1)):
                fiber = Fiber(child(i)(), node)
                fiber.on_done.append(join.child_done)
                machine.spawn(fiber)
            yield join.slot
            order.append("joined")
            return len(order)

        done = run_fiber(machine, parent)
        assert done["value"] == 3
        assert order[-1] == "joined"

    def test_eu_runs_other_fiber_while_parked(self):
        machine = Machine(2)
        trace = []

        def blocked():
            yield machine.issue("read", 1, 1, lambda: 1, "r")
            trace.append("blocked-done")

        def filler():
            machine.clock[0] += 50.0
            trace.append("filler-done")
            yield from ()  # a fiber is a generator

        f1 = Fiber(blocked(), 0)
        f2 = Fiber(filler(), 0)
        machine.add_fiber(f1)
        machine.add_fiber(f2)
        machine.run()
        # The filler ran during the blocked fiber's network round trip.
        assert trace == ["filler-done", "blocked-done"]

    def test_deadlock_detected(self):
        machine = Machine(1)

        def gen():
            slot = Slot("never")
            yield slot

        machine.add_fiber(Fiber(gen(), 0))
        with pytest.raises(SimulatorError, match="deadlock"):
            machine.run()

    def test_slot_double_fulfill_rejected(self):
        machine = Machine(1)
        slot = Slot("once")
        machine.fulfill(slot, 1, 0.0)
        with pytest.raises(SimulatorError):
            machine.fulfill(slot, 2, 0.0)

    def test_fulfill_action_inside_fiber(self):
        machine = Machine(1)
        slot = Slot("x")

        def producer():
            machine.clock[0] += 10.0
            machine.signal(slot, 42)
            yield from ()  # a fiber is a generator

        def consumer():
            value = yield slot
            return value

        machine.add_fiber(Fiber(producer(), 0))
        done = run_fiber(machine, consumer)
        assert done["value"] == 42

    def test_determinism(self):
        def build_and_run():
            machine = Machine(2)
            results = []

            def worker(k):
                def gen():
                    value = yield machine.issue(
                        "read", 1, 1, lambda: k, "r")
                    results.append((k, value))
                return gen

            for k in range(5):
                machine.add_fiber(Fiber(worker(k)(), 0))
            machine.run()
            return results, machine.time

        first = build_and_run()
        second = build_and_run()
        assert first == second


def _empty_fiber(node=0):
    def gen():
        yield from ()
    return Fiber(gen(), node)


class TestSliceContract:
    """A fiber yields only the slot it is blocked on; everything else
    is a call made from inside the running slice."""

    @pytest.mark.parametrize("call", [
        lambda m: m.issue("read", 0, 1, lambda: 1, "r"),
        lambda m: m.spawn(_empty_fiber()),
        lambda m: m.signal(Slot("s"), 1),
        lambda m: m.print("text"),
    ], ids=["issue", "spawn", "signal", "print"])
    def test_entry_point_outside_a_slice_raises(self, call):
        machine = Machine(2)
        with pytest.raises(SimulatorError, match="no fiber slice"):
            call(machine)
        # ... and once the only slice is over.
        machine.add_fiber(_empty_fiber())
        machine.run()
        with pytest.raises(SimulatorError, match="no fiber slice"):
            call(machine)
        assert machine.output == [] and machine.time == 0.0

    @pytest.mark.parametrize("target", [0, 1], ids=["own", "other"])
    def test_unknown_operation_name_is_one_error_clock_untouched(
            self, target):
        machine = Machine(2)
        seen = {}

        def gen():
            machine.clock[0] += 100.0
            try:
                machine.issue("bogus", target, 1, lambda: 1, "b")
            except SimulatorError as error:
                seen["error"] = str(error)
            seen["clock"] = machine.clock[0]
            yield from ()  # a fiber is a generator

        run_fiber(machine, gen)
        assert seen == {"error": "unknown op bogus", "clock": 100.0}
        assert machine.stats.total_comm_ops == 0

    def test_slices_do_not_nest(self):
        machine = Machine(1)

        def gen():
            machine._execute(_empty_fiber())
            yield from ()

        machine.add_fiber(Fiber(gen(), 0))
        with pytest.raises(SimulatorError, match="inside the slice"):
            machine.run()

    @pytest.mark.parametrize("name", ["treeadd", "health"])
    def test_every_resumption_blocks_or_ends_the_fiber(self, monkeypatch,
                                                       name):
        """Generator resumptions == fibers started + parks: emitted
        code crosses into the machine's scheduler only to block."""
        resumptions = [0]

        class CountingGen:
            def __init__(self, gen):
                self.gen = gen

            def send(self, value):
                resumptions[0] += 1
                return self.gen.send(value)

        add_fiber = Machine.add_fiber

        def counting_add_fiber(self, fiber, *args, **kwargs):
            fiber.gen = CountingGen(fiber.gen)
            add_fiber(self, fiber, *args, **kwargs)

        monkeypatch.setattr(Machine, "add_fiber", counting_add_fiber)
        spec = get_benchmark(name)
        compiled = compile_earthc(spec.source(), spec.filename,
                                  optimize=True, inline=spec.inline)
        result = execute(compiled, tracer=Tracer(), config=RunConfig(
            nodes=4, args=tuple(spec.small_args), engine="codegen"))
        parks = len(result.tracer.events_of("fiber_block"))
        assert parks > 0 and result.stats.remote_reads > 0
        assert resumptions[0] == result.stats.fibers_spawned + parks

    @pytest.mark.parametrize("engine", ["ast", "codegen"])
    @pytest.mark.parametrize("name", ["treeadd", "health"])
    def test_a_slot_exists_only_for_an_operation_in_flight(
            self, monkeypatch, name, engine):
        """Slots built inside ``Machine.issue`` == requests it put on
        the network: an operation that completes at issue returns its
        value and builds none.  Outside ``issue`` the engines build
        slots only for call results and joins."""
        in_issue = [False]
        issues, built, sent, others = [0], [0], [0], set()
        issue, init = Machine.issue, Slot.__init__
        send = Machine._send_request

        def counting_issue(self, *args, **kwargs):
            issues[0] += 1
            in_issue[0] = True
            try:
                result = issue(self, *args, **kwargs)
            finally:
                in_issue[0] = False
            assert type(result) is not Slot or not result.ready
            return result

        def counting_init(self, label="", *args, **kwargs):
            if in_issue[0]:
                built[0] += 1
            else:
                others.add(label.split(":")[0])
            init(self, label, *args, **kwargs)

        def counting_send(self, *args, **kwargs):
            assert in_issue[0]
            sent[0] += 1
            send(self, *args, **kwargs)

        monkeypatch.setattr(Machine, "issue", counting_issue)
        monkeypatch.setattr(Slot, "__init__", counting_init)
        monkeypatch.setattr(Machine, "_send_request", counting_send)
        spec = get_benchmark(name)
        compiled = compile_earthc(spec.source(), spec.filename,
                                  optimize=True, inline=spec.inline)
        result = execute(compiled, config=RunConfig(
            nodes=4, args=tuple(spec.small_args), engine=engine))
        assert result.stats.total_remote_ops > 0
        assert 0 < built[0] == sent[0] < issues[0]
        assert others <= {"call", "join", "result"}

    @pytest.mark.parametrize("engine", ["ast", "codegen"])
    def test_program_output_survives_sharding(self, engine):
        """``printf`` is ``Machine.print`` on both engines, so every
        line carries the event tag a shard merge orders output by
        (generated code used to append to the output list directly and
        a sharded codegen run printed nothing)."""
        compiled = compile_earthc("""
            int work(int k) { printf("node %d\\n", k); return k; }
            int main() {
                int a; int b;
                a = work(1) @ 1;
                b = work(2) @ 0;
                printf("sum %d\\n", a + b);
                return a + b;
            }""", optimize=True)
        config = RunConfig(nodes=2, engine=engine)
        single = execute(compiled, config=config)
        sharded = run_sharded(compiled.simple, config.replace(shards=2),
                              inline=True)
        assert single.output == ["node 1\n", "node 2\n", "sum 3\n"]
        assert sharded.output == single.output

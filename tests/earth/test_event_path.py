"""The simulator's event path: one heap entry per leg, dispatched on the
event class in its key, with no closure built per network leg."""

import sys

import repro.earth.machine as machine_module
from repro.earth.machine import _EV_RUN, Fiber, Machine, Slot

READS = 2000


def _read_word():
    return 7


def _reader(machine, reads):
    for _ in range(reads):
        slot = machine.issue("read", 1, 1, _read_word, "r")
        if type(slot) is Slot and not slot.ready:
            yield slot


def _machine_calls(reads):
    """``(frames, lambdas)``: call events on ``earth/machine.py`` code
    while node 0 makes ``reads`` clean remote reads of node 1, one at a
    time."""
    machine = Machine(2)
    machine.add_fiber(Fiber(_reader(machine, reads), 0))
    counts = [0, 0]

    def tracer(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename == machine_module.__file__:
            counts[0] += 1
            counts[1] += code.co_name == "<lambda>"

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        machine.run()
    finally:
        sys.settrace(previous)
    assert machine.stats.remote_reads == reads
    return counts


def test_a_clean_remote_read_costs_at_most_18_machine_frames():
    """Issue, arrival, service, reply and resume of one read: 23 frames
    with a closure per leg, 15 with the key dispatching the entry."""
    frames, lambdas = _machine_calls(READS)
    base_frames, _ = _machine_calls(0)
    assert lambdas == 0
    assert (frames - base_frames) / READS <= 18


def test_equal_run_entries_pop_in_push_order():
    """Two EU-runner entries at one ``(time, key)`` whose payloads do
    not compare -- ``fulfill``'s direct resume ``(0.0, fiber)`` and
    ``_kick``'s poll ``(0, None)``: ``0 == 0.0``, then ``None`` against
    a Fiber -- pop in the order they were pushed."""
    machine = Machine(1)
    parked = Fiber(iter(()), 0, "parked")
    slot = Slot("s")
    slot.waiters.append(parked)
    machine._parked_count = 1
    machine.fulfill(slot, None, 0.0)  # the direct resume, at 0.0
    machine._run_pending[0] = None    # let a poll join it at 0.0
    machine.add_fiber(Fiber(iter(()), 0, "queued"), earliest=0.0)
    seen = []
    machine._on[_EV_RUN] = lambda a, b, time: seen.append((a, b, time))
    machine.run()
    assert seen == [(0.0, parked, 0.0), (0, None, 0.0)]

"""A compile runs under a paced collector and leaves it as it found it.

``compile_earthc`` raises the collector's gen-0 threshold to
``COMPILE_GC_THRESHOLD`` for its phases, and restores the caller's
``gc.get_threshold()`` triple on return and on raise.  A caller's
higher threshold and a disabled collector are kept, compiles in flight
on several threads share one raise, and a child forked while the swap
lock is held, or while a compile is in flight, starts unpaced.  Almost
nothing a compile allocates is cyclic, so pacing costs no memory.
"""

import gc
import os
import random
import sys
import threading
import time
from collections import Counter

import pytest

from repro.errors import FrontendError, LexError
from repro.harness import pipeline
from repro.harness.pipeline import COMPILE_GC_THRESHOLD, compile_earthc
from repro.olden.loader import catalog
from repro.workload import MIXES, SHAPES, generate_source

SOURCE = "int main(int n) { return n + 1; }"

#: A caller's triple no default spells, so a restore cannot be luck.
CALLER = (900, 11, 12)


@pytest.fixture
def caller_threshold():
    """Run the test under :data:`CALLER`, then put pytest's back."""
    saved = gc.get_threshold()
    gc.set_threshold(*CALLER)
    yield CALLER
    gc.set_threshold(*saved)


@pytest.fixture
def seen(monkeypatch):
    """The gen-0 threshold each parse saw, from inside the compile."""
    seen = []
    real = pipeline.parse_program

    def spy(source, filename):
        seen.append(gc.get_threshold()[0])
        return real(source, filename)
    monkeypatch.setattr(pipeline, "parse_program", spy)
    return seen


def test_a_pass_sees_the_paced_threshold(caller_threshold, monkeypatch):
    seen = []
    real = pipeline.check_program

    def spy(program):
        seen.append(gc.get_threshold())
        return real(program)
    monkeypatch.setattr(pipeline, "check_program", spy)
    compile_earthc(SOURCE, optimize=True)
    assert seen == [(COMPILE_GC_THRESHOLD,) + CALLER[1:]]
    assert gc.get_threshold() == CALLER


@pytest.mark.parametrize("source,error", [
    (SOURCE, None),
    ("int main() { return 0x; }", LexError),
    ("int main( {", FrontendError),
    # A RecursionError in the parser, converted to a FrontendError.
    ("int main() { return " + "(" * 3000 + "1" + ")" * 3000 + "; }",
     FrontendError)], ids=["ok", "lex", "parse", "recursion"])
def test_the_caller_threshold_is_restored(caller_threshold, seen, source,
                                          error):
    if error is None:
        compile_earthc(source, optimize=True)
    else:
        with pytest.raises(error):
            compile_earthc(source, optimize=True)
    assert seen == [COMPILE_GC_THRESHOLD]
    assert gc.get_threshold() == CALLER


def test_a_higher_threshold_is_kept(seen):
    saved = gc.get_threshold()
    gc.set_threshold(5 * COMPILE_GC_THRESHOLD, 3, 4)
    try:
        compile_earthc(SOURCE, optimize=True)
        assert gc.get_threshold() == (5 * COMPILE_GC_THRESHOLD, 3, 4)
    finally:
        gc.set_threshold(*saved)
    assert seen == [5 * COMPILE_GC_THRESHOLD]


def test_a_disabled_collector_stays_disabled(caller_threshold, seen):
    gc.disable()
    try:
        compile_earthc(SOURCE, optimize=True)
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert gc.get_threshold() == CALLER
    # Threshold 0 is the other way to turn collection off.
    gc.set_threshold(0, 11, 12)
    compile_earthc(SOURCE, optimize=True)
    assert gc.get_threshold() == (0, 11, 12)
    assert seen == [COMPILE_GC_THRESHOLD, 0]


def test_four_threads_share_one_raise(caller_threshold, seen):
    specs = catalog()[:4]
    errors = []

    def work(spec):
        try:
            for _ in range(2):
                compile_earthc(spec.source(), spec.filename, optimize=True,
                               inline=spec.inline)
        except BaseException as exc:  # reported below, not swallowed
            errors.append(exc)
    threads = [threading.Thread(target=work, args=(spec,))
               for spec in specs]
    # Switch threads often, so a lost update of the in-flight count
    # would restore (or never restore) the triple mid-run.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert seen == [COMPILE_GC_THRESHOLD] * 8
    assert gc.get_threshold() == CALLER


def test_the_last_compile_to_leave_restores(caller_threshold, monkeypatch):
    """The compile that entered first leaves first, while another is in
    flight: the threshold stays paced, and the last to leave restores
    the caller's triple, not the paced one it found."""
    inside, release = threading.Event(), threading.Event()
    seen = []
    real = pipeline.check_program

    def spy(program):
        if threading.current_thread() is first:
            inside.set()
            release.wait(30)
        else:
            release.set()
            first.join(30)
            seen.append(gc.get_threshold()[0])
        return real(program)
    monkeypatch.setattr(pipeline, "check_program", spy)
    first = threading.Thread(target=compile_earthc, args=(SOURCE,))
    first.start()
    try:
        assert inside.wait(30)
        compile_earthc(SOURCE)
    finally:
        release.set()
        first.join(30)
    assert not first.is_alive()
    assert seen == [COMPILE_GC_THRESHOLD]
    assert gc.get_threshold() == CALLER


def _child_compiles():
    """Fork; the child compiles and exits 0 iff it found, and left, the
    parent's caller triple.  Returns the child's exit status, or None
    if it hung."""
    pid = os.fork()
    if pid == 0:  # the child: never return into pytest
        status = 1
        try:
            if gc.get_threshold() == CALLER:
                compile_earthc(SOURCE, optimize=True)
                status = 0 if gc.get_threshold() == CALLER else 1
        finally:
            os._exit(status)
    deadline = time.monotonic() + 20
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.01)
    os.kill(pid, 9)
    os.waitpid(pid, 0)
    return None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_child_forked_while_the_lock_is_held_compiles(caller_threshold):
    held, release = threading.Event(), threading.Event()

    def hold():
        with pipeline._pacing_lock:
            held.set()
            release.wait(30)
    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert held.wait(30)
        assert _child_compiles() == 0
    finally:
        release.set()
        holder.join(30)
    assert not holder.is_alive()
    assert gc.get_threshold() == CALLER


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_child_forked_mid_compile_starts_unpaced(caller_threshold,
                                                   monkeypatch):
    """The compile in flight is on a thread the child does not have."""
    inside, release = threading.Event(), threading.Event()
    real = pipeline.check_program

    def hold(program):
        inside.set()
        release.wait(30)
        return real(program)
    monkeypatch.setattr(pipeline, "check_program", hold)
    compiling = threading.Thread(target=compile_earthc, args=(SOURCE,))
    compiling.start()
    try:
        assert inside.wait(30)
        assert gc.get_threshold()[0] == COMPILE_GC_THRESHOLD
        monkeypatch.setattr(pipeline, "check_program", real)
        assert _child_compiles() == 0
    finally:
        release.set()
        compiling.join(30)
    assert not compiling.is_alive()
    assert gc.get_threshold() == CALLER


def _garbage_name(obj):
    if callable(obj) and hasattr(obj, "__qualname__"):
        return obj.__qualname__
    return type(obj).__name__


def test_a_compile_leaves_only_recursive_types_to_the_collector():
    """Reference counting frees everything else a compile allocates,
    which is why pacing the collector costs no memory.  A struct type
    that points to itself is a true cycle."""
    allowed = {"StructType", "Field", "PointerType", "ScalarType",
               "list", "dict"}
    rng = random.Random("compile-garbage")
    sources = [(spec.source(), spec.filename, spec.inline)
               for spec in catalog()]
    sources += [(generate_source(rng, SHAPES[i % len(SHAPES)],
                                 sorted(MIXES)[i % len(MIXES)]),
                 f"gen{i}.ec", False) for i in range(20)]
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for source, filename, inline in sources:
            compile_earthc(source, filename, optimize=True, inline=inline)
        gc.collect()
        names = Counter(_garbage_name(obj) for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert set(names) <= allowed, {name: count for name, count
                                   in names.items()
                                   if name not in allowed}

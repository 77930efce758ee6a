"""A CLI whose stdout reader leaves early (``| head -1``) stops quietly:
no traceback, exit 5 (unwritable output).

Each case runs ``python -m repro`` with stdout on a one-page pipe, so
the writer cannot run ahead of the reader: it is still writing when the
reader closes after the first line."""

import os
import subprocess
import sys

import pytest

import repro
from repro.errors import EXIT_IO

fcntl = pytest.importorskip("fcntl")
if not hasattr(fcntl, "F_SETPIPE_SZ"):
    pytest.skip("needs a resizable pipe (Linux)", allow_module_level=True)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
HEALTH = os.path.join(SRC, "repro", "olden", "health.ec")

#: Its ``--run --json`` object holds 3000 output lines, one JSON line
#: each: far more than a pipe page.
CHATTY = """
int main() {
    int i;
    i = 0;
    while (i < 3000) {
        printf("line %d\\n", i);
        i = i + 1;
    }
    return i;
}
"""


def _read_first_line(argv):
    """Run the CLI, read one line of its stdout, close the pipe;
    ``(that line, exit code, stderr)``."""
    read_fd, write_fd = os.pipe()
    fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen([sys.executable, "-m", "repro", *argv],
                            stdout=write_fd, stderr=subprocess.PIPE,
                            env=env)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as reader:
        first = reader.readline()
    _, stderr = proc.communicate(timeout=300)
    return first, proc.returncode, stderr.decode("utf-8", "replace")


def test_show_listings_into_a_closed_pipe():
    first, code, stderr = _read_first_line(
        [HEALTH, "-O", "--inline", "--show", "simple,threaded,tuples"])
    assert first.strip(), "the reader got no first line"
    assert "Traceback" not in stderr and "BrokenPipe" not in stderr, \
        stderr
    assert code == EXIT_IO


def test_run_json_into_a_closed_pipe(tmp_path):
    source = tmp_path / "chatty.ec"
    source.write_text(CHATTY)
    first, code, stderr = _read_first_line(
        [str(source), "-O", "--run", "--json"])
    assert first.strip() == b"{"
    assert "Traceback" not in stderr and "BrokenPipe" not in stderr, \
        stderr
    assert code == EXIT_IO

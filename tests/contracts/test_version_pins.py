"""A version follows its pins.

A persistent ``--cache-dir`` or blob store keys every entry by
``PIPELINE_VERSION``, so a change that moves what a compile or a run
produces must move the version too, or a cache written before it keeps
serving the old answer.  The golden files named in :data:`RECORDED`
pin those products; each row of the table is one version and the
sha256 of every golden file as it was recorded under that version.

The test fails when a golden file is re-recorded without moving the
version (its digest no longer matches the last row) and when the
version moves without a row for it.  Recipe, when a change means to
move a pin:

1. move ``PIPELINE_VERSION`` in ``src/repro/harness/pipeline.py``;
2. re-record the pins the change moves (each golden file's own module
   says how);
3. append a row to :data:`RECORDED`: the new version and the digests
   ``PYTHONPATH=src python tests/contracts/test_version_pins.py``
   prints.  Earlier rows stay as they are.
"""

import hashlib
import sys
from pathlib import Path

from repro.harness.pipeline import PIPELINE_VERSION

ROOT = Path(__file__).resolve().parents[2]

GOLDEN_FILES = (
    "tests/integration/golden_compile_payloads.json",
    "tests/integration/golden_compile_corpus.json",
    "tests/chaos/golden_runs.json",
)

#: (PIPELINE_VERSION, {golden file: sha256}), oldest first.
RECORDED = (
    ("2026.10-effect-triples", {
        "tests/integration/golden_compile_payloads.json":
            "1ecfec9c9abbf499fe106a9b1b57ee4d6f8cf1b1f518fe7d8332a3f09df08d61",
        "tests/integration/golden_compile_corpus.json":
            "d61454ebb9e3c31f17e6f7fe54a5e5aff1dc0933b30d36fa34adcb234c534f6a",
        "tests/chaos/golden_runs.json":
            "78de1fb4894b2cd2a5252026e82807bc189e3b3dd97ad04a8495f0c059f67626",
    }),
)


def digests():
    return {name: hashlib.sha256((ROOT / name).read_bytes()).hexdigest()
            for name in GOLDEN_FILES}


def test_the_version_has_a_row():
    version, _ = RECORDED[-1]
    assert version == PIPELINE_VERSION, (
        f"PIPELINE_VERSION moved to {PIPELINE_VERSION!r}: append its row "
        f"to RECORDED (see this module's docstring)")


def test_no_pin_was_re_recorded_under_the_same_version():
    version, recorded = RECORDED[-1]
    moved = sorted(name for name, digest in digests().items()
                   if recorded.get(name) != digest)
    assert moved == [], (
        f"{moved} re-recorded under {version!r}: move PIPELINE_VERSION "
        f"and append a row (see this module's docstring)")


def test_each_row_is_one_version_of_every_pin():
    versions = [version for version, _ in RECORDED]
    assert len(set(versions)) == len(versions)
    for _, recorded in RECORDED:
        assert sorted(recorded) == sorted(GOLDEN_FILES)


if __name__ == "__main__":
    for name, digest in digests().items():
        sys.stdout.write(f'        "{name}":\n            "{digest}",\n')

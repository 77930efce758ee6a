"""Byte-identity of the compiler's output, pinned.

``golden_compile_payloads.json`` holds, for the ten Olden programs
under both optimizer presets, the sha256 of the deterministic slice of
an optimizing compile (``compile_payload``: listings, threaded code,
optimizer counters).  A change to the frontend, the analyses or the
optimizer that is meant to keep behaviour must leave every digest
alone; one that is meant to move them re-records the file with

    PYTHONPATH=src python tests/integration/test_compile_golden.py

and says so.
"""

import hashlib
import json
import os

import pytest

from repro.comm.optconfig import OPT_PRESETS
from repro.harness.pipeline import compile_earthc
from repro.olden.loader import catalog
from repro.service.jobs import compile_payload

GOLDEN_PATH = os.path.join(os.path.dirname(__file__),
                           "golden_compile_payloads.json")


def olden_digest(spec, preset):
    compiled = compile_earthc(spec.source(), spec.filename, optimize=True,
                              inline=spec.inline, opt=preset)
    text = json.dumps(compile_payload(compiled), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("preset", OPT_PRESETS)
@pytest.mark.parametrize("spec", catalog(), ids=lambda spec: spec.name)
def test_compile_payload_matches_golden(spec, preset):
    assert olden_digest(spec, preset) == _golden()[f"{spec.name}/{preset}"]


def test_golden_covers_exactly_the_catalog():
    assert sorted(_golden()) == sorted(
        f"{spec.name}/{preset}"
        for spec in catalog() for preset in OPT_PRESETS)


if __name__ == "__main__":
    digests = {f"{spec.name}/{preset}": olden_digest(spec, preset)
               for spec in catalog() for preset in OPT_PRESETS}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(digests)} digests in {GOLDEN_PATH}")

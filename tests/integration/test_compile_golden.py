"""Byte-identity of the compiler's output, pinned.

``golden_compile_payloads.json`` holds, for the ten Olden programs and
eighteen generated ones (every ``workload`` shape x mix family at two
fixed seeds) under both optimizer presets, the sha256 of the
deterministic slice of an optimizing compile (``compile_payload``:
listings, threaded code, optimizer counters).  A change to the
frontend, the analyses or the optimizer that is meant to keep behaviour
must leave every digest alone; one that is meant to move them
re-records the file with

    PYTHONPATH=src python tests/integration/test_compile_golden.py

and says so.
"""

import hashlib
import json
import os
import random

import pytest

from repro.comm.optconfig import OPT_PRESETS
from repro.comm.optimizer import CommConfig
from repro.harness.pipeline import compile_earthc
from repro.olden.loader import catalog
from repro.service.jobs import compile_payload
from repro.workload import MIXES, SHAPES, generate_source

GOLDEN_PATH = os.path.join(os.path.dirname(__file__),
                           "golden_compile_payloads.json")

#: (shape, mix, seed) of every pinned generated program.
GENERATED = [(shape, mix, seed) for shape in SHAPES
             for mix in sorted(MIXES) for seed in (7, 1998)]


def payload_digest(source, filename, inline, preset):
    compiled = compile_earthc(source, filename, optimize=True,
                              inline=inline,
                              config=CommConfig(opt=preset))
    text = json.dumps(compile_payload(compiled), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def olden_digest(spec, preset):
    return payload_digest(spec.source(), spec.filename, spec.inline, preset)


def generated_name(shape, mix, seed):
    return f"gen-{shape}-{mix}-{seed}"


def generated_digest(shape, mix, seed, preset):
    name = generated_name(shape, mix, seed)
    source = generate_source(random.Random(f"golden-{seed}"), shape, mix)
    return payload_digest(source, f"{name}.ec", False, preset)


def _golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("preset", OPT_PRESETS)
@pytest.mark.parametrize("spec", catalog(), ids=lambda spec: spec.name)
def test_compile_payload_matches_golden(spec, preset):
    assert olden_digest(spec, preset) == _golden()[f"{spec.name}/{preset}"]


@pytest.mark.parametrize("preset", OPT_PRESETS)
@pytest.mark.parametrize("shape,mix,seed", GENERATED,
                         ids=lambda value: str(value))
def test_generated_compile_payload_matches_golden(shape, mix, seed, preset):
    key = f"{generated_name(shape, mix, seed)}/{preset}"
    assert generated_digest(shape, mix, seed, preset) == _golden()[key]


def test_golden_covers_exactly_the_catalog():
    names = [spec.name for spec in catalog()]
    names += [generated_name(*family) for family in GENERATED]
    assert sorted(_golden()) == sorted(
        f"{name}/{preset}" for name in names for preset in OPT_PRESETS)


if __name__ == "__main__":
    digests = {f"{spec.name}/{preset}": olden_digest(spec, preset)
               for spec in catalog() for preset in OPT_PRESETS}
    digests.update(
        (f"{generated_name(*family)}/{preset}",
         generated_digest(*family, preset))
        for family in GENERATED for preset in OPT_PRESETS)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(digests)} digests in {GOLDEN_PATH}")

"""Byte-identity of the compiler's output, pinned.

``golden_compile_payloads.json`` holds, for the ten Olden programs and
eighteen generated ones (every ``workload`` shape x mix family at two
fixed seeds) under both optimizer presets, the sha256 of the
deterministic slice of an optimizing compile (``compile_payload``:
listings, threaded code, optimizer counters).

``golden_compile_corpus.json`` holds the same digest for a wider
corpus, :data:`CORPUS_SIZE` distinct generated programs under both
presets, one digest per program and preset so that a failure names the
program.  It takes about half a minute, so it is marked ``ci_only``
(CI's contracts job runs it).

A change to the frontend, the analyses or the optimizer that is meant
to keep behaviour must leave every digest alone; one that is meant to
move them re-records both files with

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
CORPUS_PATH = os.path.join(os.path.dirname(__file__),
                           "golden_compile_corpus.json")

#: Distinct generated programs in the ``ci_only`` corpus tier.
CORPUS_SIZE = 600

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


def corpus():
    """``(name, source)`` of the corpus tier's programs: the shape x mix
    families in rotation, bodies drawn from one fixed stream, a source
    already drawn skipped."""
    families = [(shape, mix) for shape in SHAPES for mix in sorted(MIXES)]
    rng = random.Random("golden-corpus")
    seen = set()
    programs = []
    while len(programs) < CORPUS_SIZE:
        index = len(programs)
        shape, mix = families[index % len(families)]
        source = generate_source(rng, shape, mix)
        if source not in seen:
            seen.add(source)
            programs.append((f"corpus-{index:03d}-{shape}-{mix}", source))
    return programs


def corpus_digests(preset):
    return {f"{name}/{preset}": payload_digest(source, f"{name}.ec",
                                               False, preset)
            for name, source in corpus()}


def _load(path):
    with open(path) as handle:
        return json.load(handle)


def _golden():
    return _load(GOLDEN_PATH)


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


@pytest.mark.ci_only
@pytest.mark.parametrize("preset", OPT_PRESETS)
def test_corpus_compile_payloads_match_golden(preset):
    golden = _load(CORPUS_PATH)
    digests = corpus_digests(preset)
    assert sorted(golden) == sorted(
        f"{name}/{each}" for name, _ in corpus() for each in OPT_PRESETS)
    moved = sorted(key for key, digest in digests.items()
                   if golden[key] != digest)
    assert not moved, f"{len(moved)} programs moved: {moved[:20]}"


def _record(path, digests):
    with open(path, "w") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(digests)} digests in {path}")


if __name__ == "__main__":
    digests = {f"{spec.name}/{preset}": olden_digest(spec, preset)
               for spec in catalog() for preset in OPT_PRESETS}
    digests.update(
        (f"{generated_name(*family)}/{preset}",
         generated_digest(*family, preset))
        for family in GENERATED for preset in OPT_PRESETS)
    _record(GOLDEN_PATH, digests)
    _record(CORPUS_PATH, {key: digest for preset in OPT_PRESETS
                          for key, digest in corpus_digests(preset).items()})

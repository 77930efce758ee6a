"""Seeded token-level mutation fuzz of ``compile_earthc``.

One token of a program that compiles is deleted, duplicated, swapped
with its neighbour or replaced by another spelling; the mutant either
still compiles or is refused with a :class:`ReproError` -- the lexer,
parser, type checker, simplifier, validator and optimizer never let
another exception out (which the CLI would print as a traceback and a
served job would answer as ``code: 1``).
"""

import random

from repro.errors import ReproError
from repro.frontend.lexer import tokenize
from repro.harness.pipeline import compile_earthc
from repro.olden.loader import get_benchmark
from repro.workload import SHAPES, generate_source

MUTANTS = 500
SEED = 21

#: Spellings a replacement draws from besides the program's own tokens:
#: literals the lexer must refuse, unbalanced brackets, dialect keywords.
AWKWARD = ["0x", "0xZ", "1e", "08", ".", "'", '"', "''", "/*", "$", "{^",
           "^}", "@", "(", ")", "{", "}", "[", "]", ";", "forall", "goto",
           "local", "shared", "struct", "sizeof", "NULL", "return", "->",
           "*", "&", "=", "9" * 30, "1.5"]


def token_pieces(source):
    """``source`` cut at every token start: the text before the first
    token, then each token with the trivia that follows it."""
    offsets = tokenize(source).offsets
    return [source[:offsets[0]]] + [source[start:end] for start, end
                                    in zip(offsets, offsets[1:])]


def mutate(rng, pieces):
    pieces = list(pieces)
    index = rng.randrange(1, len(pieces))
    how = rng.choice(("delete", "duplicate", "swap", "replace"))
    if how == "delete":
        del pieces[index]
    elif how == "duplicate":
        pieces.insert(index, pieces[index])
    elif how == "swap" and index + 1 < len(pieces):
        pieces[index], pieces[index + 1] = pieces[index + 1], pieces[index]
    else:
        spelling = rng.choice(AWKWARD) if rng.random() < 0.5 \
            else rng.choice(pieces[1:])
        pieces[index] = spelling + " "
    return "".join(pieces)


def corpus():
    rng = random.Random(SEED)
    sources = [get_benchmark(name).source() for name in ("treeadd", "mst")]
    sources += [generate_source(rng, shape) for shape in SHAPES]
    return rng, [token_pieces(source) for source in sources]


def test_the_pieces_are_the_source():
    for pieces in corpus()[1]:
        compile_earthc("".join(pieces), "whole.ec", optimize=True)


def test_every_mutant_compiles_or_is_refused_with_a_repro_error():
    rng, programs = corpus()
    refused = 0
    for number in range(MUTANTS):
        mutant = mutate(rng, programs[number % len(programs)])
        try:
            compile_earthc(mutant, f"mutant{number}.ec", optimize=True)
        except ReproError:
            refused += 1
    # The fuzz reaches both outcomes, not just the parser's first check.
    assert MUTANTS // 10 < refused < MUTANTS

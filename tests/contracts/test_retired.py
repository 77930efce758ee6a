"""Retired names stay retired.

:data:`RETIRED` is the one table of what the project removed: a
pattern no source file of the package may match again, the release
that removed it and why.  A row with a ``path`` is checked in that one
file only (its words are common elsewhere).  Add a row when a name
goes; never drop one to make a match pass.
"""

import ast
import dataclasses
import importlib.util
import inspect
import re
from pathlib import Path
from typing import NamedTuple

import pytest

from repro.config import RunConfig
from repro.harness.pipeline import Configuration, compile_earthc
from repro.service.jobs import JobSpec

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"


class Retired(NamedTuple):
    #: A regular expression (Python syntax) matched line by line.
    pattern: str
    #: The release that removed it.
    release: str
    reason: str
    #: A file under ``src/repro`` to check instead of the package.
    path: str = ""


_KNOBS = ("OptConfig is one switch, the legacy and probabilistic "
          "presets; the paper's weights are constants of "
          "comm/optconfig.py")
_WALKER = ("codegen emits every function of a validated program: a run "
           "is one engine, with no function left to the AST walker")
_REORDER = ("field reordering and the prefix block moves it fed are "
            "gone: a block move copies the whole struct")
_ALWAYS_ON = ("locality analysis and residual split-phase marking "
              "always run under -O: CommConfig switches only what a "
              "caller turns off")
_ONE_KEY = ("CommConfig is the one value that says what the optimizer "
            "does; RunConfig describes only the run")
_SETS = ("alias facts are sets: selection estimates a tuple's expected "
         "accesses by its frequency capped at one, as the paper does")
_BLOCKING = ("the probabilistic preset is one blocking rule: private-line "
             "marking is gone, and every store under the remote-data "
             "cache invalidates the lines it covers")

_TRIPLES = ("an effect record is the paper's (base, loc, key) triple, a "
            "tuple in a set; analysis/rw_sets.py states the may-hit rule "
            "once and is the only reader of a record")
_TWO_SOLVES = ("the optimizer solves the alias facts before forwarding, "
               "whose rewrites they cover, and again before the write "
               "phase iff the read phase rewrote something")
_ONE_LOG = ("what the optimizer did is one log, OptimizationReport.log, "
            "a record per rewrite; every counter it exposes is a count "
            "over the log")
_ONE_CACHE = ("a gateway's one cache is its pool's ArtifactCache, memory "
              "then disk: the remote store tier, serve --store and the "
              "store client's breaker are gone")
_ONE_IMPORT = ("http_json lives in repro.service.client only; the fleet "
               "package does not re-export it")
_ONE_DOOR = ("serving is one package: the gateway is repro.service.http, "
             "it admits jobs to its pool itself, and an envelope carries "
             "no id")

RETIRED = (
    Retired(r"loop_weight", "2.3", _KNOBS),
    Retired(r"branch_weight", "2.3", _KNOBS),
    Retired(r"freq_eps", "2.3", _KNOBS),
    Retired(r"blkmov_shape", "2.3", _KNOBS),
    Retired(r"private_lines", "2.3", _KNOBS),
    Retired(r"max_spurious_ratio", "2.3", _KNOBS),
    Retired(r"OPT_FLAGS", "2.3", _KNOBS),
    Retired(r"branch_prob", "2.3", _KNOBS),
    Retired(r"_WALKER", "2.4", _WALKER, "earth/codegen.py"),
    Retired(r"fallbacks", "2.4", _WALKER, "earth/codegen.py"),
    Retired(r"shadowed", "2.4", _WALKER, "earth/codegen.py"),
    Retired(r"reorder_fields", "2.4", _REORDER),
    Retired(r"reorder_struct", "2.4", _REORDER),
    Retired(r"comm\.reorder", "2.4", _REORDER),
    Retired(r"_layout_epoch", "2.4", _REORDER),
    Retired(r"prefix_blocks", "2.4", _REORDER),
    Retired(r"enable_locality", "2.4", _ALWAYS_ON),
    Retired(r"split_phase_residuals", "2.4", _ALWAYS_ON),
    Retired(r"resolve_config", "2.5", _ONE_KEY),
    Retired(r"CONFIG_PRESETS", "2.5", _ONE_KEY),
    Retired(r"simple-baseline", "2.5", _ONE_KEY),
    Retired(r"\.tuned\b|\btuned=", "2.5", _ONE_KEY),
    Retired(r"\bpreset=", "2.5", _ONE_KEY),
    Retired(r"opt=config\.opt|\brun\.opt\b", "2.5", _ONE_KEY),
    Retired(r'"--config"', "2.5", _ONE_KEY),
    Retired(r"likelihood", "2.6", _SETS),
    Retired(r"\.prob\b|\bprob=", "2.6", _SETS),
    Retired(r"_like\b", "2.6", _SETS),
    Retired(r"BRANCH_WEIGHT", "2.6", _SETS, "analysis/points_to.py"),
    Retired(r"mark_private_sites", "2.7", _BLOCKING),
    Retired(r"rcache_private_skips", "2.7", _BLOCKING),
    Retired(r"note_private_skip", "2.7", _BLOCKING),
    Retired(r"_has_private", "2.7", _BLOCKING),
    Retired(r"\[private\]", "2.7", _BLOCKING),
    Retired(r"HeapEffect", "2.8", _TRIPLES),
    Retired(r"\b_rewrote|\b_facts\(|self\._conn", "2.8", _TWO_SOLVES,
            "comm/optimizer.py"),
    Retired(r"SelectionStats", "2.9", _ONE_LOG),
    Retired(r"ForwardingStats", "2.9", _ONE_LOG),
    Retired(r"report\.selections\b", "2.9", _ONE_LOG),
    Retired(r"report\.forwarding\b", "2.9", _ONE_LOG),
    Retired(r"FleetCache", "2.12", _ONE_CACHE),
    Retired(r"\bstore_url\b", "2.12", _ONE_CACHE),
    Retired(r"store_fallbacks", "2.12", _ONE_CACHE),
    Retired(r"http_json", "2.12", _ONE_IMPORT, "service/http.py"),
    Retired(r"JobAdmission", "2.13", _ONE_DOOR),
    Retired(r"_next_id", "2.13", _ONE_DOOR),
    Retired(r"fleet\.http\b|fleet/http\.py", "2.13", _ONE_DOOR),
)


def _matches(row: Retired):
    files = [PACKAGE / row.path] if row.path \
        else sorted(PACKAGE.rglob("*.py"))
    pattern = re.compile(row.pattern)
    for path in files:
        for number, line in enumerate(
                path.read_text().splitlines(), start=1):
            if pattern.search(line):
                yield f"{path.relative_to(PACKAGE)}:{number}: {line}"


@pytest.mark.parametrize("row", RETIRED, ids=lambda row: row.pattern)
def test_no_retired_name_is_read(row):
    assert list(_matches(row)) == [], \
        f"retired in {row.release}: {row.reason}"


def test_only_rw_sets_reads_an_effect_record():
    """Every other module asks an ``EffectsAnalysis`` query."""
    pattern = re.compile(r"heap_(reads|writes)")
    readers = {str(path.relative_to(PACKAGE))
               for path in PACKAGE.rglob("*.py")
               if pattern.search(path.read_text())}
    assert readers == {"analysis/rw_sets.py"}


def test_the_scoped_rows_name_a_file():
    for row in RETIRED:
        assert not row.path or (PACKAGE / row.path).is_file(), row


def test_the_compile_key_left_no_alias():
    """The parameters and fields the one compile key replaced."""
    assert list(inspect.signature(compile_earthc).parameters) \
        == ["source", "filename", "optimize", "config", "inline"]
    assert "opt" not in {spec.name for spec in dataclasses.fields(RunConfig)}
    assert Configuration._fields == ("optimize", "comm", "cached", "pins")
    wire = JobSpec("compile", source="int main() { return 0; }").to_dict()
    assert len(wire) == 19 and not {"config", "opt"} & set(wire)


def test_the_fleet_package_reexports_nothing():
    """Its ``__init__`` is a docstring; the gateway left the package."""
    import repro.service.http
    assert not hasattr(repro.service.http, "http_json")
    tree = ast.parse((PACKAGE / "fleet" / "__init__.py").read_text())
    assert [type(node).__name__ for node in tree.body] == ["Expr"]
    assert importlib.util.find_spec("repro.fleet.http") is None

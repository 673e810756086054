"""Recorded CLI outputs: the CSV text byte for byte and the key tree of
each JSON document, whose values (timings among them) may vary.  Each
document must be strict JSON (RFC 8259): NaN and the infinities are
refused, both here and when the recordings are written.  The level-3
edge list of each family, terminal headers and edges, is pinned by its
SHA-256, and so is the level-6 cut graph's, whose severed edges
refine segments of five coarser levels, and the level-6 complex's JSON
snapshot, exact coordinates included.  The level-7 hexacarpet edge
list is the benchmark's deep7 export, and the level-6 hexacarpet and
skeleton dot files hold one conductance label and two (1/2 and 1/1).

The files under tests/golden/ are written by running this module as a
script, PYTHONPATH=src python tests/test_golden.py; a change that means
to alter an output rewrites them and says so.
"""

import hashlib
import io
import json
import pathlib
from contextlib import redirect_stdout

import pytest

from hexacarpet.cli import FAMILIES, main

GOLDEN = pathlib.Path(__file__).parent / "golden"

# name -> argv; each runs once as CSV and once as JSON
RUNS = {
    **{cmd: [cmd, "--max-level", "4"] for cmd in ("rho", "duality", "submult", "bounds")},
    **{
        f"resistance-{family}": ["resistance", "--family", family, "--level", "3"]
        for family in FAMILIES
    },
    "rho-6": ["rho", "--max-level", "6"],
    "bounds-5": ["bounds", "--max-level", "5"],
}

# name -> argv of the export pinned by its SHA-256
EXPORTS = {
    **{
        family: ["build", "--family", family, "--level", "3", "--format", "edgelist"]
        for family in FAMILIES
    },
    "cut-6": ["build", "--family", "cut", "--level", "6", "--format", "edgelist"],
    "json-6": ["build", "--family", "hexacarpet", "--level", "6", "--format", "json"],
    "hexacarpet-7": ["build", "--family", "hexacarpet", "--level", "7", "--format", "edgelist"],
    "dot-6": ["build", "--family", "hexacarpet", "--level", "6", "--format", "dot"],
    "skeleton-dot-6": ["build", "--family", "skeleton", "--level", "6", "--format", "dot"],
}
EXPORT_HASHES = GOLDEN / "edgelist-sha256.json"


def refuse_constant(name):
    """parse_constant hook of json.loads: NaN, Infinity and -Infinity
    are not JSON."""
    raise ValueError(f"{name} is not a JSON value")


def key_tree(doc):
    """The document with every scalar replaced by None."""
    if isinstance(doc, dict):
        return {k: key_tree(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [key_tree(v) for v in doc]
    return None


def outputs(name):
    """(CSV text, key tree of the JSON document) of one recorded run."""
    texts = []
    for fmt in ("csv", "json"):
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main(RUNS[name] + ["--format", fmt]) == 0
        texts.append(buf.getvalue())
    return texts[0], key_tree(json.loads(texts[1], parse_constant=refuse_constant))


def export_hash(name):
    """SHA-256 of the recorded export's text, in hex."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(EXPORTS[name]) == 0
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_outputs_match_the_recorded_ones(name):
    csv, keys = outputs(name)
    assert csv.encode() == (GOLDEN / f"{name}.csv").read_bytes()
    assert keys == json.loads((GOLDEN / "keys.json").read_text())[name]


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_edgelists_match_the_recorded_hashes(name):
    assert export_hash(name) == json.loads(EXPORT_HASHES.read_text())[name]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    trees = {}
    for name in sorted(RUNS):
        csv, trees[name] = outputs(name)
        (GOLDEN / f"{name}.csv").write_bytes(csv.encode())
    (GOLDEN / "keys.json").write_text(json.dumps(trees, indent=1, sort_keys=True) + "\n")
    hashes = {name: export_hash(name) for name in sorted(EXPORTS)}
    EXPORT_HASHES.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")

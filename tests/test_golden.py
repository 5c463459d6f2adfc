"""Golden payload digests: one small config per kind, whose payloads'
SHA-256 are committed in golden_digests.json.

Payload bytes depend only on the config, so a change that should leave
the random stream alone must leave every digest alone. A change that
alters the stream on purpose regenerates the file,

    PYTHONPATH=src python tests/test_golden.py > tests/golden_digests.json

and says which digests moved and why.

The digests were made with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1,
the versions CI installs (.github/workflows/tests.yml). The payloads
print floats with repr, so a numpy or scipy release that changes a
reduction order (a sum, a mean, a std) can move a last digit and fail
this test with no change in fpplab; compare against these versions
before suspecting the code.
"""

import hashlib
import json
import os
import sys
import tempfile

import pytest

from fpplab.cli import main
from fpplab.expcli import SCHEMAS, run

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "golden_digests.json")

MIX = {"atoms": [[1.0, 0.85]], "pieces": [[1.1, 1.3, 0.15]]}
# 2 = 1 + 1: a tick more on either atom splits ties that the
# infection graph and the lexicographic geodesics read
TIED = {"atoms": [[1.0, 0.6], [2.0, 0.25]], "pieces": [[1.1, 1.3, 0.15]]}
LINES = [{"v": [1.0, 0.0], "w": [0.0, 1.0], "n": 12},
         {"v": [0.0, 1.0], "w": [1.0, 0.0], "n": 12}]

# one small config per kind; the shape law has a heavy top atom, so its
# later trials solve on diamonds sized from the earlier ones
CONFIGS = {
    "shape": {"kind": "shape", "seed": 3, "trials": 6, "params": {
        "dist": {"atoms": [[1.0, 0.5], [3.0, 0.5]]},
        "directions": 5, "n": 40}},
    "construct": {"kind": "construct", "seed": 0, "params": {
        "base": {"atoms": [[1.0, 0.9], [3.0, 0.1]]},
        "schedule": {"p0": 0.9, "p_seq": [0.8, 0.72],
                     "y_seq": [2.0, 1.5]}}},
    "oriented": {"kind": "oriented", "seed": 2, "trials": 30, "params": {
        "p_values": [0.7, 0.8, 1.0], "T": 40, "pc_grid": [0.6, 0.7]}},
    "compete": {"kind": "compete", "seed": 4, "trials": 3, "params": {
        "dist": {"atoms": [[1.0, 0.6], [2.0, 0.4]]},
        "seeds": [[-6, 0], [6, 0], [0, 6]], "window": 20,
        "survival_threshold": 10, "tie_policy": "lexicographic"}},
    "ends": {"kind": "ends", "seed": 5, "trials": 2, "params": {
        "dist": TIED, "window": 24, "m_grid": [2, 3, 4, 5]}},
    "busemann": {"kind": "busemann", "seed": 6, "params": {
        "dist": MIX, "window": 24, "lines": LINES,
        "seeds": [[0, 0], [2, 3]]}},
    "diagnose": {"kind": "diagnose", "seed": 7, "trials": 3, "params": {
        "dist": TIED, "window": 30, "m": 5, "M": 18, "targets": [
            {"v": [1.0, 0.0], "w": [0.0, 1.0], "n": 22},
            {"v": [0.0, 1.0], "w": [1.0, 0.0], "n": 22}]}},
}


def payload_digests(cfg, out_root):
    """SHA-256 of each payload of one run, by file name."""
    art = run(cfg, out_root=out_root, echo=False)
    digests = {}
    for path in art.payloads:
        with open(path, "rb") as f:
            digests[os.path.basename(path)] = hashlib.sha256(
                f.read()).hexdigest()
    return digests


def test_covers_every_kind():
    from fpplab.expcli import KINDS
    with open(DIGESTS) as f:
        assert sorted(json.load(f)) == sorted(CONFIGS) == sorted(KINDS)


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_payload_digests_unchanged(tmp_path, kind):
    with open(DIGESTS) as f:
        want = json.load(f)[kind]
    assert payload_digests(CONFIGS[kind], str(tmp_path)) == want


# construct's stages are exact, so its seed changes nothing; it stays
# required because the benchmark's construct input sets it
INERT = {("construct", "seed")}


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_every_envelope_field_changes_the_payloads(tmp_path, kind):
    # a field that changes no payload byte is a knob to delete: two
    # values of each settable envelope field give different payloads
    cfg, properties = CONFIGS[kind], SCHEMAS[kind]["properties"]
    inert = set()
    for name in set(properties) - {"kind", "params", "out"}:
        value = cfg.get(name, properties[name]["minimum"])
        a, b = [payload_digests(dict(cfg, **{name: v}),
                                str(tmp_path / ("%s-%d" % (name, v))))
                for v in (value, value + 1)]
        if a == b:
            inert.add((kind, name))
    assert inert == {(k, name) for k, name in INERT if k == kind}


def as_floats(schema, x):
    """x with each value that schema types integer written as a float."""
    if schema.get("type") == "integer":
        return float(x)
    if "properties" in schema:
        return {k: as_floats(schema["properties"][k], v)
                for k, v in x.items()}
    if "items" in schema:
        return [as_floats(schema["items"], v) for v in x]
    return x


def cli_outputs(cfg, out_root):
    """The fpplab command's exit code for cfg, and the SHA-256 of each
    file it writes, by path under out_root."""
    path = os.path.join(out_root, "c.json")
    os.makedirs(out_root)
    with open(path, "w") as f:
        json.dump(cfg, f)
    out = os.path.join(out_root, "out")
    code = main([cfg["kind"], "--config", path, "--out", out])
    digests = {}
    for d, _, names in os.walk(out):
        for name in names:
            with open(os.path.join(d, name), "rb") as f:
                digests[os.path.relpath(os.path.join(d, name), out)] = (
                    hashlib.sha256(f.read()).hexdigest())
    return code, digests


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_integer_fields_written_as_floats_run_as_ints(tmp_path, kind):
    # 2.0 is an integer to the schema: written so, every integer field
    # runs as its int, with the same bytes in the same directory
    floats = as_floats(SCHEMAS[kind], CONFIGS[kind])
    assert json.dumps(floats) != json.dumps(CONFIGS[kind])
    want = cli_outputs(CONFIGS[kind], str(tmp_path / "int"))
    assert want[0] == 0 and want[1]
    assert cli_outputs(floats, str(tmp_path / "float")) == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out:
        json.dump({kind: payload_digests(cfg, os.path.join(out, kind))
                   for kind, cfg in CONFIGS.items()},
                  sys.stdout, indent=2, sort_keys=True)
    print()

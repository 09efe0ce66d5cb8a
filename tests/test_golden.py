"""Byte-for-byte regression pins on the scan output of every family.

Each digest is the sha256 of the stdout of one ``skewfiss scan`` call, run
in-process.  The conference JSON pin is the serialisation of the records
after the dual derivation and the exact Krein check (it carries
``realized_h`` and ``character_table``).  A change to any scanner that
alters a single byte of these outputs fails here.
"""

import hashlib

import pytest

import skewfiss.cli as cli

GOLDEN = [
    (("srg", "--max-n", "300", "--format", "json"),
     "27937a9ad2bb64df39a4dad9226fd682906538ef0f57d8bc9219a6f9b81ed457"),
    # covers both Johnson witness records: the generic z (v = 7 mod 8) and
    # the non-integral structural one (v = 3 mod 8)
    (("johnson", "--max-v", "60", "--format", "json"),
     "f96ca10dfb26ba0b0b9540fd0f2b0b87bbf97608f94f58b46f0c06d5b19f95dc"),
    (("imprimitive", "--max-n", "100", "--format", "json"),
     "401e89af86addd8011a615f40830991106739f1234b37d792fc1b2a64dc29ac2"),
    (("conference", "--max-n", "125", "--format", "tsv"),
     "57a35bd8a0b5a6c5b4e4502d6df08a5d7aae6f66e5074a95fe35e0a2b4f3f73c"),
    (("conference", "--max-n", "125", "--format", "json"),
     "9141d41366a847fdbcc3993838a7f089ef0e5e55e4983990f9089929b21e53c9"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_scan_output_digest(capsys, argv, digest):
    assert cli.main(["scan", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest

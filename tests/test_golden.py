"""Byte-for-byte regression pins on the scan output of every family, on the
finite-field tables and on constructed ``.ascm`` files.

Each scan digest is the sha256 of the stdout of one ``skewfiss scan`` call,
run in-process.  The conference JSON pin is the serialisation of the records
after the dual derivation and the exact Krein check (it carries
``realized_h`` and ``character_table``).  A change to any scanner that
alters a single byte of these outputs fails here.  The field pins hash
``(modulus, primitive, exp, log)`` of every field listed, so the modulus
search, the primitive search and both tables stay fixed; the ``.ascm`` pins
hash the file that ``skewfiss construct cyc`` writes.
"""

import hashlib

import pytest

import skewfiss.cli as cli
from skewfiss.constructions import field_build, prime_power

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


def _field_digest(fields) -> str:
    h = hashlib.sha256()
    for p, b in fields:
        f = field_build(p, b)
        h.update(repr((f.modulus, f.primitive, f.exp, f.log)).encode())
    return h.hexdigest()


FIELD_GOLDEN = [
    ("prime powers 3..2000", [prime_power(q) for q in range(3, 2001) if prime_power(q)],
     "ae32709d97700f788c83875d4daffcde638864226d314c68d239a1718600fdcb"),
    ("GF(3^11)", [(3, 11)], "a2068cdebdf965ed7ab323b007cfa923514475a7b7152e3e793a817e670e3d0e"),
    ("GF(2^16)", [(2, 16)], "ff0121087ac93b93b4487e084e8ec25d63a84ab88c0b683ffd563e37087141ec"),
    ("GF(7^5)", [(7, 5)], "998d82abaad6be73398b5a9c6e46f2ae138ae4402b5ec7eccf477b160f604604"),
    ("GF(17^4)", [(17, 4)], "86b940f6996672499ce0e121ae5630b62e5d5b2fded1848467acf7cafeccca9b"),
]


@pytest.mark.parametrize("fields,digest", [(f, d) for _, f, d in FIELD_GOLDEN],
                         ids=[name for name, _, _ in FIELD_GOLDEN])
def test_field_tables_digest(fields, digest):
    assert _field_digest(fields) == digest


ASCM_GOLDEN = [
    (9, 4, "9519c9bbfea11c9a49cbe64fea201211648f45557d917dd3f3e359c3d106ecdc"),
    (27, 2, "94fb661b5ed1da9632f0b99de27eefcc0ef2581153dcbc13a33eff8b460f3177"),
    (81, 4, "b88abefb9d6a4b1e006f4cbd763f4676e85b380dc38ad79e14ca46e486ab58f6"),
    (125, 4, "70f00fdb3ef0666bae64519866f866b15d869387731ba0b7398a35b321f45902"),
    (343, 6, "f88454cab147cb8654f9c013807a043c38153700d3ad4e4770899a83c4797ead"),
    (1013, 4, "26aafd692e9003e990792ef23f2a191a0834a224f6c2b572c698d2aa0d14654e"),
]


@pytest.mark.parametrize("q,d,digest", ASCM_GOLDEN, ids=[f"cyc{q}_{d}" for q, d, _ in ASCM_GOLDEN])
def test_construct_cyc_ascm_digest(tmp_path, capsys, q, d, digest):
    path = tmp_path / "c.ascm"
    assert cli.main(["construct", "cyc", "--q", str(q), "--d", str(d), "-o", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

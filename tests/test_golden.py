"""Byte-for-byte regression pins on the scan output of every family, on the
finite-field tables, on constructed ``.ascm`` files, on what ``verify``,
``classify`` and ``krein`` print for constructed schemes, and on the stdout
of every demo.

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
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skewfiss.cli as cli
from skewfiss.constructions import field_build, prime_power

GOLDEN = [
    (("srg", "--max-n", "300", "--format", "json"),
     "27937a9ad2bb64df39a4dad9226fd682906538ef0f57d8bc9219a6f9b81ed457"),
    # the paper's 1300-point table: 5 type-I and 7 type-II character tables
    (("srg", "--max-n", "1300", "--format", "json"),
     "57a50b70ef31acf68e54827a88936fe114e207bd760b3aeb0e5cc367ef314d7a"),
    # the cap: 148 records, pinned before the integer type-III stage landed
    (("srg", "--max-n", "5000", "--format", "json"),
     "ecabdbc378809e1f67ec4a3a579ae9a1c3152467ba2879724884eb166a2e58a7"),
    # covers both Johnson witness records: the generic z (v = 7 mod 8) and
    # the non-integral structural one (v = 3 mod 8); the c <= 0 rows print
    # the side conditions' c = (v-1)(4-v)/2
    (("johnson", "--max-v", "60", "--format", "json"),
     "8dea166776f692a533635027282768fe086e2e2475666773b3f0b321c8c6bb72"),
    (("imprimitive", "--max-n", "100", "--format", "json"),
     "401e89af86addd8011a615f40830991106739f1234b37d792fc1b2a64dc29ac2"),
    (("imprimitive", "--max-n", "600", "--format", "json"),
     "86cc703f5fc4f9d926062ab02692dc8c88e23cf71a9a8be4d8ad5df66ef17e2b"),
    # pinned before the surd tables moved onto the integer contraction: 99
    # Johnson Krein witnesses (49 of them non-integral notes) and 330
    # imprimitive type-I tables
    (("johnson", "--max-v", "400", "--format", "json"),
     "ec6f79bd3b4b531f5533f4c9a04b5f8b27acf358ba563240d065b09a392551d9"),
    (("imprimitive", "--max-n", "1000", "--format", "json"),
     "23f819b06f832df3d8af02ca4463d28c987b2acb83d0eeca16d72a4ca6a71af8"),
    (("conference", "--max-n", "125", "--format", "tsv"),
     "57a35bd8a0b5a6c5b4e4502d6df08a5d7aae6f66e5074a95fe35e0a2b4f3f73c"),
    (("conference", "--max-n", "125", "--format", "json"),
     "9141d41366a847fdbcc3993838a7f089ef0e5e55e4983990f9089929b21e53c9"),
    # 492 rows, 4.7 MB of JSON: pinned before format_records wrote the
    # indent-2 layout itself
    (("conference", "--max-n", "5000", "--format", "tsv"),
     "6dcacd2e14dac77f4e552bbe05ec43d407c47127db1024ce4ad0f54d85f80d54"),
    (("conference", "--max-n", "5000", "--format", "json"),
     "a404efaa322d9ddc553e7871bb2c2512d2422fe18536731116e9a94f0e0114db"),
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


# (name, construct arguments); a wreath names the files of earlier entries
SCHEMES = [
    ("c3", ("cyc", "--q", "3", "--d", "2")),
    ("c7", ("cyc", "--q", "7", "--d", "2")),
    ("cyc5", ("cyc", "--q", "5", "--d", "4")),
    ("cyc13", ("cyc", "--q", "13", "--d", "4")),
    ("cyc29", ("cyc", "--q", "29", "--d", "4")),
    ("cyc125", ("cyc", "--q", "125", "--d", "4")),
    ("wreath3_7", ("wreath", "--inner", "c3", "--outer", "c7")),
    ("wreath7_3", ("wreath", "--inner", "c7", "--outer", "c3")),
    ("wreath3_3", ("wreath", "--inner", "c3", "--outer", "c3")),
]


@pytest.fixture(scope="module")
def scheme_files(tmp_path_factory):
    """Each entry of SCHEMES written by ``skewfiss construct``."""
    root = tmp_path_factory.mktemp("schemes")
    paths = {}
    for name, args in SCHEMES:
        args = [str(root / f"{a}.ascm") if a in paths else a for a in args]
        path = root / f"{name}.ascm"
        with open(os.devnull, "w") as sink:
            stdout, sys.stdout = sys.stdout, sink
            try:
                assert cli.main(["construct", *args, "-o", str(path)]) == 0
            finally:
                sys.stdout = stdout
        paths[name] = path
    return paths


COMMAND_GOLDEN = [
    ("verify", "cyc5", "ff831f08455af43f20b655b81b3033c9037472c20e694c67076602588d1068ac"),
    ("classify", "cyc5", "8082e381a7031eeb152dd0dcf1e304ec105cd0d4e5a90944f776e719be657aec"),
    ("krein", "cyc5", "81d2535fe13d5d2b54aa1c811093d67c91160a1e8354b823cebf697f69b723fa"),
    ("verify", "cyc13", "c720ea71040fb8106443436b2d79a1389c2c0ed2de4cacbded177a314bcf9435"),
    ("classify", "cyc13", "eef8dea49641e8d90011d405ba0d27b85faa0c8d5803f8f8a2349446ad082955"),
    ("krein", "cyc13", "0533af86bc2b1c8776f0c7ae96b7904cf565e82f2700911c18216a059f06cc27"),
    ("verify", "cyc29", "98d7431affffcdfe540242a4a6168926c34614704761f30a1adb10818656efa6"),
    ("classify", "cyc29", "f1f990ee8922ab66340a03d8d04a873333d83ae57f8cd5571d535e2acfebfdc6"),
    ("krein", "cyc29", "cd48c4876e5eea20a5c29adff10102bc73120e678f9e20700947b22d2c677d03"),
    ("verify", "cyc125", "f5e71a4090519f6a1052534f85b750e98926773a148d58177cac8c39d61af1c9"),
    ("classify", "cyc125", "b6a30331f75fd43032af849b98d559cbc6135b7fd1c53be271b57b4f8a932384"),
    ("krein", "cyc125", "730cd0771dde5135e3ee34f0258ce36d1025ae6542d189940cfce573ae7cdf52"),
    ("verify", "wreath3_7", "f137f4f129a3e4abafec02bd3e24e35713e08350cf59b0e07014f626efb56656"),
    ("classify", "wreath3_7", "f756af37c7d1d1727ea2ff39feb697ec99b8392b6c5b59e78a949791517094cf"),
    ("krein", "wreath3_7", "be1db4d158ae28aa6a2faa0ec720291794d9b3a0f6dfed1cb587e09d51965b5a"),
    ("verify", "wreath7_3", "64f5d5ef3898c768da3c56976b6ed45a0838d101fb8399c0f63aee969d0a5c73"),
    ("classify", "wreath7_3", "c097d52dda0dd87fa9f4d99047d2cb9f9a3bc024bbc92f3d04770d977297e61f"),
    ("krein", "wreath7_3", "e6d52c5da769b2bb80bdc84632e2d9c2bcbb451085f82eef6723ef090294d736"),
    ("verify", "wreath3_3", "bac69d819876bae1cbe50af20a7799d6bd1c05c918a6eec2adddcc51139e7463"),
    ("classify", "wreath3_3", "5479e95164f689826c6db28c63eab6061d35d9c6b79e1f2455be81d8900a8407"),
    ("krein", "wreath3_3", "c52736f60c5c3a19a736b43c2e376b0515ea20ac9149f8320fb96f9ca86b0169"),
]


@pytest.mark.parametrize("command,scheme,digest", COMMAND_GOLDEN,
                         ids=[f"{c}-{s}" for c, s, _ in COMMAND_GOLDEN])
def test_scheme_command_digest(capsys, scheme_files, command, scheme, digest):
    capsys.readouterr()
    assert cli.main([command, str(scheme_files[scheme])]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


DEMOS = Path(__file__).resolve().parents[1] / "demos"
DEMO_GOLDEN = [
    ("01_exact_surd_arithmetic.py", "776e2074f593bd3d6269b33144707b158324b61fcaec34b3cb04e618c6d277c5"),
    # 02's perturbed c13 (rel[0, 1], rel[1, 0] = 1, 4) fails the counting axiom
    ("02_schemes_and_verification.py", "8ec42f1e1436e82d96d7b845a0d57a23bd016aa6171e7a3d27a6286742d8479a"),
    ("03_character_tables_and_krein.py", "cff7264bb9255cf134ced77a0304e440b337075a410c102124101a8ab15eac08"),
    # 04 prints the Johnson c <= 0 rows of v = 7, 11 and 15
    ("04_feasibility_tables.py", "36184468dd21d9e55e38709cfdafa6f5a750813e9e61760d662fea0b600c4e41"),
]


@pytest.mark.parametrize("demo,digest", DEMO_GOLDEN, ids=[d for d, _ in DEMO_GOLDEN])
def test_demo_stdout_digest(demo, digest):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, str(DEMOS / demo)], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == digest

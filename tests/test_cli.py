"""Command-line surface: verbs, exit codes, file round trips."""

import hashlib
import json
import re
import subprocess
import sys
from argparse import Namespace
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, strategies as st

from diffres.cli import _emit_matrix, main
from diffres.diffsys import SystemSpec, YMonomial, system_symbols
from diffres.matrices import build_carra_ferro, build_square_matrix
from diffres.output import dumps


def run_cli(*argv):
    """Invoke the entry point in-process, capturing SystemExit from argparse."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def test_gen_with_legend(capsys):
    assert run_cli("gen", "--d1", "2", "--d2", "2", "--legend") == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["f1"]) == 6
    assert data["legend"][0] == "a0 = a(0,2)"
    assert data["legend"][5] == "a5 = a(0,0)"


def test_sets_counts(capsys):
    assert run_cli("sets", "--d1", "2", "--d2", "2") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["N"] == 36
    sizes = [s["count"] for s in data["partition"]["sets"]]
    assert sizes == [10, 10, 10, 6]


def test_build_roundtrip(tmp_path, capsys):
    out = tmp_path / "matrix.json"
    assert run_cli("build", "--d1", "1", "--d2", "2", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["shape"] == [16, 16]
    assert all(len(e) == 3 for e in data["entries"])


def test_carra_ferro_zero_column(capsys):
    assert run_cli("carra-ferro", "--d1", "2", "--d2", "2") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["shape"] == [80, 56]
    assert "y2^5" in data["zero_columns"]


def test_certificate_output(capsys):
    assert run_cli("certificate", "--d1", "2", "--d2", "2") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["counts"] == [10, 10, 10, 6]
    assert data["coefficient"] in ("1024", "-1024")
    assert len(data["steps"]) == 4


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("verb", ["build", "carra-ferro", "certificate"])
@pytest.mark.parametrize("d", [(2, 2), (2, 3)], ids=lambda d: f"{d[0]}_{d[1]}")
def test_matrix_output_is_pinned(verb, d, capsys):
    assert run_cli(verb, "--d1", str(d[0]), "--d2", str(d[1])) == 0
    pinned = DATA / f"{verb.replace('-', '_')}_{d[0]}_{d[1]}.json"
    assert capsys.readouterr().out == pinned.read_text()


# sha256 of stdout at degrees too large to keep as files in tests/data
PINNED_SHA256 = {
    ("gen", 1, 1): "efc1d9453164e369b0842312e1eadf495a23cf41235914937c160d22ab4a9e1b",
    ("gen", 3, 4): "a740ac6dfd8945e06cb99d2ca6cd3750152e8740e14f43785cbc283c3538bdfb",
    ("gen", 5, 5): "5b16d66777f688a15b7ba6599f5d5e34ae4d1b65014b81c883251e3147e946bf",
    ("sets", 1, 1): "bea0ed37d1adb0f280196f03420943e13bb090bb88de47498541fda0cf0095da",
    ("sets", 3, 4): "b729984779de916bf301d4595b548b103c0c25e7ae0bdb3178ce7392d1a836a1",
    ("sets", 5, 5): "9b5d16044e829b3c3fbd77bccc1eb3b3762682edcb9d9f37f1304c855edb9bcb",
    ("build", 1, 1): "a55190b9a6a4a05aae8c652c943920d0001629e3f0d931d66f5b09ebfec730c5",
    ("build", 3, 4): "dae9502929eef97c61f3d7db8aa93d0920c4eb5e7fbcccb8d913526c0a3fc84c",
    ("build", 5, 5): "5c050b77db78ea598dc922c17782023c53fa432d3de3aef6df0a7c72e7bd1f57",
    ("carra-ferro", 1, 1):
        "94ca7a4b3f9f3d309cf911d70ca6f2974b06bd9906a67b7871df64c30a5ff53b",
    ("carra-ferro", 3, 4):
        "222bb33433cee1d3f56b41cc8b428e2b67a93980bd54dcaf02f269139fd520a2",
    ("carra-ferro", 5, 5):
        "a3797e028b5e4f395e3877d6fc64cdd3f26bf7b7ed0a6220f4285c4b5e757f9a",
    ("certificate", 1, 1):
        "8858c3c36927ffc23d893b4140fa333e72eb1a43fc2e8a11a4738bfd13087667",
    ("certificate", 3, 4):
        "875d6c53c8449aac13cf84f6b8aa286d999a02b6727d7b2d0296269c32c6801f",
    ("certificate", 5, 5):
        "ee7a00e2e29f32b0c3af24fa6e47426c61770a620f8404f3c3e8e91185b64a68",
}


@pytest.mark.parametrize("verb, d1, d2", sorted(PINNED_SHA256),
                         ids=lambda v: str(v))
def test_matrix_output_hash_is_pinned(verb, d1, d2, capsys):
    assert run_cli(verb, "--d1", str(d1), "--d2", str(d2)) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == PINNED_SHA256[verb, d1, d2]


# sha256 of stdout of `export`; csv reads the specialization `_spec_table`
PINNED_EXPORT_SHA256 = {
    ("matrix", "json", 1, 1):
        "c9ba9b44533370b29619824a8237590993194b7bdef83eedff743c025af95f90",
    ("matrix", "json", 3, 4):
        "bdffa32a0f13137810d6cff739eb0252a7f3e77189356ecb1749eabe532f55a1",
    ("matrix", "json", 5, 5):
        "88e1b15aa4820d49a2293a44ae51e844714043eb445bf40729485757694393db",
    ("matrix", "csv", 1, 1):
        "6dd35a378e6b09eb21595c0a2dbb6cfa297e91401619176a63d2cddd795a69a5",
    ("matrix", "csv", 3, 4):
        "e934e0c89a62cbe7fb1dde7c98bcd5d49111ece4a5aca89b8aa1fd16a2f03800",
    ("matrix", "csv", 5, 5):
        "c5afcf06ec0db43117057a39c32a488b0a5277399a00d29ecc11ad11acf4e547",
    ("carra-ferro", "json", 1, 1):
        "5284ba04927bc1235b12c5db7292e2a0992387c11230074e50098f77d7608320",
    ("carra-ferro", "json", 3, 4):
        "60ba03350b1ee62203b7de73829f784522b8394bd4881899d2e82fd159add96b",
    ("carra-ferro", "json", 5, 5):
        "09102f525b60a0a49f2c58443e3ddb4eb16d11ebb7e0d3987c9455bfacf7676a",
    ("carra-ferro", "csv", 1, 1):
        "920cc7dafdd6838208898f34cf1d43c61948a31c9749cd10bff671520fda974b",
    ("carra-ferro", "csv", 3, 4):
        "f5f4094c8697495ffe3f282c168aa69dfe04beb1eae985f403bbf231d4d7abc0",
    ("carra-ferro", "csv", 5, 5):
        "757344322b03ecf28d8142621f987cd5ba5be2b903d249126982264b4c1e7a10",
}


def _spec_table(d1, d2):
    """A specialization with zeros, negatives and fractions, fixed by the
    symbols' sorted order."""
    syms = sorted(system_symbols(SystemSpec(d1, d2)))
    return {s.render(): str(Fraction((7 * k) % 11 - 5, k % 4 + 1))
            for k, s in enumerate(syms)}


@pytest.mark.parametrize("what, fmt, d1, d2", sorted(PINNED_EXPORT_SHA256),
                         ids=lambda v: str(v))
def test_export_output_hash_is_pinned(what, fmt, d1, d2, tmp_path, capsys):
    argv = ["export", "--what", what, "--d1", str(d1), "--d2", str(d2),
            "--format", fmt]
    if fmt == "csv":
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_spec_table(d1, d2)))
        argv += ["--spec-file", str(path)]
    assert run_cli(*argv) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == PINNED_EXPORT_SHA256[what, fmt, d1, d2]


# sha256 of stdout of verbs that print polynomials in the term order, and of
# Carra-Ferro's matrix at orders other than (n, m) = (1, 1)
PINNED_POLY_SHA256 = {
    ("gen", "--d1", "2", "--d2", "3", "--legend"):
        "173259255727eaca5e6c7b9c7d817d514a87359722899eb0c274c7c9a010ec52",
    ("carra-ferro", "--d1", "2", "--d2", "3", "--n", "0", "--m", "0"):
        "eb4fed9c8497c9b391682645461b9e05f855fd65236c9cde6b3ee76875df34bf",
    ("carra-ferro", "--d1", "2", "--d2", "3", "--n", "0", "--m", "1"):
        "8a34dde27f4dc9c86c567939096a5baec4abfb0609be7d3383dd2fe20e338c2a",
    ("carra-ferro", "--d1", "2", "--d2", "3", "--n", "1", "--m", "0"):
        "964981576c5fd89fc976912f4f30d49a9a2f9bb815016ece16e5f1bb421fd065",
    ("det", "--d1", "1", "--d2", "1", "--mode", "symbolic"):
        "aa8514da88f9df4fe786b84087f79f4fcd5c1035d305adb76750a158ab551049",
    ("oracle", "--d1", "1", "--d2", "1", "--full"):
        "227d079f4fb2a1fd925c8d829f4351efcbf15596924217b11a5680daa8968516",
    ("det", "--d1", "2", "--d2", "3"):
        "3782648aa56cb1bcffe5fbeee5561152c5a2a702664a0d01ba8a308701bd96bf",
    ("det", "--d1", "3", "--d2", "4", "--seed", "5"):
        "30743e663c47cd636434f0b7ac8f6f9033ea90043aefd982d81969c28e8e22ff",
    ("det", "--d1", "2", "--d2", "2", "--common-zero", "1/2", "-3/4", "5/7"):
        "c4c212c66bdfd6b4bdf9cdf54c58a8aa9020153ab829f238f006ff80e744bdd7",
    # two default primes fall short of the bound: `crt` is null with a note
    ("det", "--d1", "2", "--d2", "3", "--mode", "modular"):
        "556caa9e979bee24df17528d8aee8277d6bf425eb8581e7f08e505df60dbea36",
    ("det", "--d1", "1", "--d2", "1", "--mode", "modular",
     "--moduli", "2147483647", "2147483629", "2147483587"):
        "fbe129465f3ea38b9b37194b6a2d43726e34dbbc750dee3bca3851bb2a0e920c",
    ("det", "--d1", "1", "--d2", "1", "--mode", "modular", "--moduli", "2"):
        "eb2928d2c98cb55bb0ce30bd0fe28b5a139ad4866aaef032e8a67f988d319474",
}


@pytest.mark.parametrize("argv", sorted(PINNED_POLY_SHA256), ids=" ".join)
def test_polynomial_output_hash_is_pinned(argv, capsys):
    assert run_cli(*argv) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == PINNED_POLY_SHA256[argv]


# sha256 of the --out file at (3,4); stdout then holds only "wrote PATH"
PINNED_OUT_SHA256 = {
    "build": "bc822e70c92e4be71a4bd7023234c4b6404d30bbb4002f5db4fd63811b177a63",
    "carra-ferro": "ad0313b9d9fa3b6d41928211252a3b47c05dbdb1b43bf4e30e5f68d8498fae39",
}


@pytest.mark.parametrize("verb", sorted(PINNED_OUT_SHA256))
def test_matrix_file_hash_is_pinned(verb, tmp_path, capsys):
    out = tmp_path / "matrix.json"
    assert run_cli(verb, "--d1", "3", "--d2", "4", "--out", str(out)) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_OUT_SHA256[verb]


def _reference_matrix(name):
    square = build_square_matrix(SystemSpec(1, 2))
    if name == "square":
        return square, {"spec": [1, 2]}
    if name == "carra-ferro":
        return build_carra_ferro(2, 2, 1, 0), {"zero_columns": ["y^4"]}
    if name == "empty-rows":  # every f1 and f1' row runs empty
        return square.substitute({s: 0 for s in square.symbols()
                                  if s.system == "a"}), {}
    # every entry vanishes: the pool is empty and "entries" is []
    return square.substitute({s: 0 for s in square.symbols()}), {"zero_columns": []}


@pytest.mark.parametrize("name", ["square", "carra-ferro", "empty-rows", "empty-pool"])
def test_streamed_matrix_equals_the_indented_encoder(name, tmp_path, capsys):
    matrix, extra = _reference_matrix(name)
    expected = json.dumps({**matrix.to_json(), **extra}, indent=2)
    if name == "empty-rows":
        assert ((), ()) in matrix.row_entries and matrix.pool
    if name == "empty-pool":
        assert not matrix.pool and '"entries": []' in expected
    _emit_matrix(matrix, Namespace(out=None), **extra)
    assert capsys.readouterr().out == expected + "\n"
    out = tmp_path / "m.json"
    _emit_matrix(matrix, Namespace(out=str(out)), **extra)
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert out.read_text() == expected


TEXT = "quote \" backslash \\ slash / \b\f\n\r\t \x00\x1f\x7f é ß 漢 𝄞 \u2028\ud800"
SCALARS = (st.none() | st.booleans() | st.integers() | st.text()
           | st.floats(allow_nan=False) | st.sampled_from([TEXT, 10 ** 400, -(10 ** 400)]))
KEYS = st.text() | st.sampled_from([TEXT, 1, -(10 ** 30), 2.5, True, False, None])
PAYLOADS = st.recursive(SCALARS, lambda inner: (
    st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(KEYS, inner, max_size=4)), max_leaves=24)


@given(PAYLOADS)
@example({"": [], "e": {}, "t": (), TEXT: [[{}], ({"x": [1, True, None]},)]})
@example({1: "int key", "1": "its text", None: 0, 2.5: [-1.5, 1e300]})
def test_dumps_equals_the_indented_encoder(value):
    assert dumps(value) == json.dumps(value, indent=2)


def test_dumps_writes_subclasses_as_their_base_type():
    from collections import OrderedDict

    class Count(int):
        def __repr__(self):
            return "Count(...)"
    value = OrderedDict(b=[YMonomial(1, 2, 0), (Count(3), True, 4)], a=OrderedDict())
    assert dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    Fraction(1, 2), Fraction(3), {1, 2}, {"coeff": [1, Fraction(1, 3)]},
    {(1, 2): "tuple key"}, [{"a": {frozenset(): 0}}]])
def test_dumps_refuses_what_json_refuses(value):
    with pytest.raises(TypeError) as expected:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as got:
        dumps(value)
    assert str(got.value) == str(expected.value)


LP_PINS = {
    "lp_partition_1_1": ("lp-partition", "--d1", "1", "--d2", "1"),
    "lp_partition_1_2": ("lp-partition", "--d1", "1", "--d2", "2"),
    "lp_partition_2_2": ("lp-partition", "--d1", "2", "--d2", "2"),
    "lp_partition_2_2_seeded": ("lp-partition", "--d1", "2", "--d2", "2",
                                "--config",
                                str(DATA / "lp_partition_2_2_seeded_config.json")),
    "lp_partition_2_3": ("lp-partition", "--d1", "2", "--d2", "3"),
    "moves_2_2": ("moves", "--d1", "2", "--d2", "2"),
}


@pytest.mark.parametrize("name", sorted(LP_PINS))
def test_lp_output_is_pinned(name, capsys):
    """Bases, lambdas and partitions of the LP partition, byte for byte."""
    assert run_cli(*LP_PINS[name]) == 0
    assert capsys.readouterr().out == (DATA / f"{name}.json").read_text()


def test_export_to_file_is_pinned(tmp_path, capsys):
    out = tmp_path / "cf.json"
    assert run_cli("export", "--what", "carra-ferro", "--d1", "2", "--d2", "2",
                   "--out", str(out)) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert out.read_bytes() == (DATA / "export_carra_ferro_2_2.json").read_bytes()


@pytest.mark.parametrize("what", ["matrix", "carra-ferro"])
def test_export_csv_is_pinned(what, capsys):
    """Specialized entries at (2,2), zeros and fractions among them."""
    assert run_cli("export", "--what", what, "--d1", "2", "--d2", "2",
                   "--format", "csv",
                   "--spec-file", str(DATA / "spec_2_2.json")) == 0
    name = f"export_{what.replace('-', '_')}_2_2.csv"
    assert capsys.readouterr().out == (DATA / name).read_text()


def test_det_specialized_seeded_deterministic(capsys):
    assert run_cli("det", "--d1", "1", "--d2", "1", "--seed", "5") == 0
    first = json.loads(capsys.readouterr().out)
    assert run_cli("det", "--d1", "1", "--d2", "1", "--seed", "5") == 0
    second = json.loads(capsys.readouterr().out)
    assert first == second


def test_det_common_zero_is_zero(capsys):
    assert run_cli("det", "--d1", "2", "--d2", "2",
                   "--common-zero", "1", "2", "3", "--seed", "9") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["value"] == "0"


def test_det_symbolic_mode(capsys):
    assert run_cli("det", "--d1", "1", "--d2", "1", "--mode", "symbolic") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["mode"] == "Symbolic"


def test_det_modular_crt(capsys):
    assert run_cli("det", "--d1", "1", "--d2", "1", "--mode", "modular",
                   "--seed", "3") == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["residues"]) == 2


def test_det_modular_crt_only_above_the_bound(capsys):
    argv = ("det", "--d1", "1", "--d2", "1", "--mode", "modular", "--moduli")
    assert run_cli(*argv, "2147483647", "2147483629") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["crt"] is None and "insufficient" in data["crt_note"]
    assert run_cli(*argv, "2147483647", "2147483629", "2147483587") == 0
    data = json.loads(capsys.readouterr().out)
    assert run_cli("det", "--d1", "1", "--d2", "1") == 0
    assert data["crt"] == json.loads(capsys.readouterr().out)["value"]


def test_det_modular_needs_prime_moduli(capsys):
    for moduli in (["4", "9"], ["1"]):
        assert run_cli("det", "--d1", "1", "--d2", "1", "--mode", "modular",
                       "--moduli", *moduli) == 2
        assert "not a prime" in capsys.readouterr().err
    assert run_cli("det", "--d1", "1", "--d2", "1", "--mode", "modular",
                   "--moduli", "2147483647", "7", "2147483647") == 2
    assert "modulus 2147483647 is repeated" in capsys.readouterr().err


def test_det_common_zero_negative_fraction(capsys):
    assert run_cli("det", "--d1", "2", "--d2", "2",
                   "--common-zero", "1/2", "-3/4", "5/7") == 0
    assert json.loads(capsys.readouterr().out)["value"] == "0"


def test_malformed_json_inputs_exit_two(tmp_path, capsys):
    def write(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    cases = [
        ("det", "--d1", "1", "--d2", "1",
         "--spec-file", write("list.json", [1, 2])),
        ("det", "--d1", "1", "--d2", "1",
         "--spec-file", write("value.json", {"a(0,0)": [1]})),
        ("moves", "--d1", "2", "--d2", "2", "--moves-file",
         write("short.json", [{"monomial": [0, 1], "from": 4, "to": 1}])),
        ("moves", "--d1", "2", "--d2", "2", "--moves-file",
         write("block.json", [{"monomial": [0, 1, 1], "from": 9, "to": 1}])),
        ("lp-partition", "--d1", "1", "--d2", "1",
         "--config", write("config.json", {"liftings": [1, 2, 3]})),
        ("lp-partition", "--d1", "1", "--d2", "1",
         "--config", write("config_list.json", [])),
        ("lp-partition", "--d1", "1", "--d2", "1",
         "--config", write("delta.json", {"delta": [[1], 2, 3]})),
        # a string is not read as a list of its characters
        ("lp-partition", "--d1", "1", "--d2", "1",
         "--config", write("lift_text.json", {"liftings": "745594621847"})),
        ("lp-partition", "--d1", "1", "--d2", "1",
         "--config", write("delta_text.json", {"delta": "123"})),
        ("moves", "--d1", "2", "--d2", "2", "--moves-file",
         write("mono_text.json", [{"monomial": "011", "from": 4, "to": 1}])),
        ("det", "--d1", "1", "--d2", "1", "--common-zero", "1/0", "1", "1"),
        ("det", "--d1", "1", "--d2", "1",
         "--spec-file", write("zero.json", {"a(0,0)": "1/0"})),
        ("det", "--d1", "1", "--d2", "1", "--spec-file", write("empty.json", {})),
        # the symbolic mode specializes nothing, and one specialization at a time
        ("det", "--d1", "1", "--d2", "1", "--mode", "symbolic",
         "--common-zero", "1", "2", "3"),
        ("det", "--d1", "1", "--d2", "1", "--mode", "symbolic",
         "--spec-file", write("symbolic.json", {"a(0,0)": "1"})),
        ("det", "--d1", "1", "--d2", "1", "--common-zero", "1", "2", "3",
         "--spec-file", write("both.json", {"a(0,0)": "1"})),
        ("det", "--d1", "1", "--d2", "1", "--mode", "modular",
         "--moduli", *["2147483647"] * 6),
        # a flag that the mode does not read
        ("det", "--d1", "1", "--d2", "1", "--moduli", "4", "9"),
        ("det", "--d1", "1", "--d2", "1", "--mode", "modular", "--cap", "1"),
        ("export", "--d1", "1", "--d2", "1", "--format", "csv",
         "--spec-file", write("partial.json", {"a(0,0)": "1"})),
        # a lifting or a move block is an integer: not 7.9, true or "7"
        *(("lp-partition", "--d1", "1", "--d2", "1", "--config",
           write(f"lift{k}.json", {"liftings": [v, -4, -5, 5, -9, 5, 6, 2, 1, 8, 4, 7]}))
          for k, v in enumerate([7.9, True, "7"])),
        ("moves", "--d1", "2", "--d2", "2", "--moves-file",
         write("move_frac.json", [{"monomial": [0, 1, 1], "from": 4.5, "to": 1}])),
        ("moves", "--d1", "2", "--d2", "2", "--moves-file",
         write("move_bool.json", [{"monomial": [0, True, 1], "from": 4, "to": 1}])),
        # a JSON true is not the rational 1
        ("det", "--d1", "1", "--d2", "1", "--spec-file",
         write("spec_bool.json", {**{s.render(): 1 for s in
                                     system_symbols(SystemSpec(1, 1))},
                                  "a(0,0)": True})),
        ("lp-partition", "--d1", "1", "--d2", "1", "--config",
         write("delta_bool.json", {"delta": [True, "1/100", "1/100"]})),
    ]
    # an exponent this large is refused, not expanded into a huge integer
    huge = tmp_path / "huge.json"
    huge.write_text('{"delta": [1e999999999999, 0.01, 0.01]}')
    cases.append(("lp-partition", "--d1", "1", "--d2", "1", "--config", str(huge)))
    for argv in cases:
        assert run_cli(*argv) == 2, argv
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ") and "\n" not in err, (argv, err)


# values that no input field accepts: a fuzzed field gets one of these, so the
# file is malformed, never well-typed but out of range (an out-of-range
# perturbation exits 3, see test_invariant_violation_exit_code)
MALFORMED = [None, True, "", "x", "1/0", "Infinity", [], [1, [2]], {}, {"k": 1},
             float("inf"), float("-inf"), float("nan")]


def _fuzz_value(rng, depth=0):
    if depth < 2 and rng.random() < 0.3:
        items = [_fuzz_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
        return items if rng.random() < 0.5 else {str(v)[:8]: v for v in items}
    return rng.choice(MALFORMED)


def _fuzz_case(rng, universe):
    """A command and a JSON file that is one fuzzed field away from valid."""
    spec = {s.render(): str(rng.randint(-9, 9)) for s in universe}
    config = {"liftings": [7, -4, -5, 5, -9, 5, 6, 2, 1, 8, 4, 7],
              "delta": ["1/100"] * 3}
    move = {"monomial": [0, 1, 1], "from": 4, "to": 1}
    verb, data, fields = rng.choice([
        (["det"], spec, [rng.choice(sorted(spec)), "a(9,9)"]),
        (["export", "--format", "csv"], spec, [rng.choice(sorted(spec))]),
        (["lp-partition"], config, ["liftings", "delta"]),
        (["moves"], [move], [0]),
    ])
    flag = {"det": "--spec-file", "export": "--spec-file",
            "lp-partition": "--config", "moves": "--moves-file"}[verb[0]]
    roll = rng.random()
    if roll < 0.15:
        data = _fuzz_value(rng)
    elif isinstance(data, list):
        if roll < 0.6:
            data[0] = dict(move, **{rng.choice(sorted(move)): _fuzz_value(rng)})
        else:
            data.append(_fuzz_value(rng))
    else:
        field = rng.choice(fields)
        target = data.get(field)
        if roll < 0.3:
            data.pop(field, None)
        elif isinstance(target, list) and roll < 0.6:
            target[rng.randrange(len(target))] = _fuzz_value(rng)
        else:
            data[field] = _fuzz_value(rng)
    text = json.dumps(data)
    if rng.random() < 0.2:
        text = text[:rng.randrange(len(text))]
    return verb + ["--d1", "1", "--d2", "1", flag], text


def test_fuzzed_json_inputs_exit_zero_or_two(tmp_path, capsys):
    """A malformed spec, config or moves file, or truncated JSON, exits 2
    with one error line; a file the fuzz left valid (a dropped config key
    falls back to its default) exits 0."""
    rng = Random(20260601)
    universe = system_symbols(SystemSpec(1, 1))
    path = tmp_path / "input.json"
    codes = []
    for _ in range(300):
        argv, text = _fuzz_case(rng, universe)
        path.write_text(text)
        code = run_cli(*argv, str(path))
        err = capsys.readouterr().err.strip()
        codes.append(code)
        assert code in (0, 2), (argv, text, code, err)
        if code == 2:
            assert err.startswith("error: ") and "\n" not in err, (argv, text, err)
    assert codes.count(2) > 200


def test_det_specialization_file(tmp_path, capsys):
    table = {}
    for system in ("a", "b"):
        for k, l in ((0, 0), (1, 0), (0, 1)):
            table[f"{system}({k},{l})"] = "1"
            table[f"{system}({k},{l})'"] = "0"
    table["a(0,0)"] = "2"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(table))
    assert run_cli("det", "--d1", "1", "--d2", "1",
                   "--spec-file", str(path)) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["mode"] == "SpecializedExact"


def test_det_modular_needs_an_integral_specialization_file(tmp_path, capsys):
    table = {s.render(): "3" for s in system_symbols(SystemSpec(1, 1))}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(table))
    argv = ("det", "--d1", "1", "--d2", "1", "--mode", "modular",
            "--spec-file", str(path))
    assert run_cli(*argv) == 0
    assert json.loads(capsys.readouterr().out)["mode"] == "Modular"
    path.write_text(json.dumps({**table, "b(1,0)'": "7/2"}))
    assert run_cli(*argv) == 2
    assert "modular mode needs an integral specialization" in \
        capsys.readouterr().err


def test_specialization_file_rejects_unknown_symbols(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"a(9,9)": "1"}))
    code = run_cli("det", "--d1", "1", "--d2", "1", "--spec-file", str(path))
    assert code == 2


def test_lp_partition_with_config(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "liftings": [7, -4, -5, 5, -9, 5, 6, 2, 1, 8, 4, 7],
        "delta": ["1/100", "1/100", "1/100"],
    }))
    assert run_cli("lp-partition", "--d1", "1", "--d2", "1",
                   "--config", str(config)) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["lifting_report"]["passed"] is True
    assert len(data["points"]) == 4
    assert all(len(p["lambda"]) == 18 for p in data["points"])


def test_json_numbers_are_read_exactly(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"delta": [0.01, 1e-2, 0.01], "liftings": '
                      '[7.0, -4, -5, 5, -9, 5, 6, 2, 1, 8, 4, 7]}')
    assert run_cli("lp-partition", "--d1", "1", "--d2", "1",
                   "--config", str(config)) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["delta"] == ["1/100"] * 3
    assert data["liftings"][0] == [7, -4, -5]
    values = {s.render(): "1/10" for s in system_symbols(SystemSpec(1, 1))}
    dets = []
    for name, text in (("text.json", json.dumps(values)),
                       ("number.json", json.dumps(values).replace('"1/10"', "0.1"))):
        (tmp_path / name).write_text(text)
        assert run_cli("det", "--d1", "1", "--d2", "1",
                       "--spec-file", str(tmp_path / name)) == 0
        dets.append(json.loads(capsys.readouterr().out)["value"])
    assert dets[0] == dets[1]


def test_carra_ferro_orders_are_zero_or_one(capsys):
    for n, m in ((2, 1), (2, 0), (0, 2), (-1, 1)):
        assert run_cli("carra-ferro", "--d1", "1", "--d2", "1",
                       "--n", str(n), "--m", str(m)) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ") and "\n" not in err, err
    assert run_cli("carra-ferro", "--d1", "1", "--d2", "1", "--n", "0", "--m", "1") == 0


def test_moves_default_list(capsys):
    assert run_cli("moves", "--d1", "2", "--d2", "2") == 0
    data = json.loads(capsys.readouterr().out)
    before = [s["count"] for s in data["before"]["sets"]]
    after = [s["count"] for s in data["after"]["sets"]]
    assert before == [6, 10, 8, 12]
    assert after == [10, 10, 10, 6]


def test_moves_file(tmp_path, capsys):
    moves = [{"monomial": [0, 1, 1], "from": 4, "to": 1}]
    path = tmp_path / "moves.json"
    path.write_text(json.dumps(moves))
    assert run_cli("moves", "--d1", "2", "--d2", "2",
                   "--moves-file", str(path)) == 0
    data = json.loads(capsys.readouterr().out)
    assert [s["count"] for s in data["after"]["sets"]] == [7, 10, 8, 11]


def test_illegal_move_exit_code_depends_on_its_source(tmp_path, capsys):
    # an input error: the user's file names the file
    path = tmp_path / "moves.json"
    path.write_text(json.dumps([{"monomial": [0, 0, 0], "from": 1, "to": 2}]))
    assert run_cli("moves", "--d1", "1", "--d2", "1",
                   "--moves-file", str(path)) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "\n" not in err
    assert "is not currently in S1" in err


@pytest.mark.parametrize("d1, d2", [(1, 1), (2, 3), (3, 3)])
def test_derived_moves_reach_the_divisibility_partition(d1, d2, capsys):
    """Without --moves-file the moves are derived at any degrees: the blocks
    after them are those of the partition that `sets` prints."""
    degrees = ("--d1", str(d1), "--d2", str(d2))
    assert run_cli("moves", *degrees) == 0
    after = json.loads(capsys.readouterr().out)["after"]
    assert run_cli("sets", *degrees) == 0
    partition = json.loads(capsys.readouterr().out)["partition"]
    assert after["sets"] == partition["sets"]


def test_an_illegal_derived_move_exits_two(monkeypatch, capsys):
    from diffres import sparse
    monkeypatch.setattr(sparse, "moves_to_divisibility",
                        lambda part, spec: [(YMonomial(0, 0, 0), 1, 2)])
    assert run_cli("moves", "--d1", "1", "--d2", "1") == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error: derived moves: ")
    assert "is not currently in S1" in err


def test_a_malformed_moves_file_is_read_before_the_liftings(tmp_path, capsys):
    """The moves file is read before the LP runs: malformed, it exits 2 even
    with liftings that `grc_partition` refuses (exit 3 on their own)."""
    path = tmp_path / "moves.json"
    path.write_text(json.dumps([{"monomial": [0, 1], "from": 4, "to": 1}]))
    assert run_cli("moves", "--d1", "2", "--d2", "2", "--moves-file", str(path),
                   "--liftings", "9", *["0"] * 11) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_oracle_command(capsys):
    assert run_cli("oracle", "--d1", "1", "--d2", "1") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["terms"] > 0


def test_check_suite_exit_zero(capsys):
    assert run_cli("check", "--suite", "sizes") == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "1/1 checks passed" in out


def test_check_suite_exit_one_on_a_failed_criterion(capsys, monkeypatch):
    from diffres import checks

    def failing(spec, seed):
        raise AssertionError("planted failure")

    monkeypatch.setitem(checks.SUITES, "sizes",
                        ("sizes", (None,), failing))
    assert run_cli("check", "--suite", "sizes", "--verbose") == 1
    out = re.sub(r"\(\d+\.\d\ds\)", "(s)", capsys.readouterr().out)
    assert out == ("[FAIL] sizes  (s)\n"
                   '       {"error": "planted failure"}\n'
                   "0/1 checks passed\n")


def test_export_csv_requires_specialization(capsys):
    code = run_cli("export", "--d1", "1", "--d2", "1", "--format", "csv")
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "\n" not in err, err


def test_export_csv_with_file(tmp_path, capsys):
    table = {}
    for system in ("a", "b"):
        for k, l in ((0, 0), (1, 0), (0, 1)):
            table[f"{system}({k},{l})"] = "1"
            table[f"{system}({k},{l})'"] = "0"
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(table))
    out = tmp_path / "matrix.csv"
    assert run_cli("export", "--d1", "1", "--d2", "1", "--format", "csv",
                   "--spec-file", str(spec_path), "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 5
    assert lines[0].split(",")[1] == "y^0*y1^0*y2^1"


@pytest.mark.parametrize("mode, flag", [
    ("specialized", ("--moduli", "5", "7")), ("symbolic", ("--moduli", "5", "7")),
    ("specialized", ("--cap", "8")), ("modular", ("--cap", "8"))])
def test_det_flag_outside_its_mode_is_named(mode, flag, capsys):
    assert run_cli("det", "--d1", "1", "--d2", "1", "--mode", mode, *flag) == 2
    assert capsys.readouterr().err.strip() == f"error: --mode {mode} takes no {flag[0]}"


def test_det_help_states_the_defaults(capsys):
    assert run_cli("det", "--help") == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "(default 8)" in help_text
    assert "(default 2147483647 2147483629)" in help_text


def test_usage_error_exit_code(capsys):
    assert run_cli("build", "--d1", "2") == 2          # missing --d2
    assert run_cli("no-such-command") == 2
    # a matrix past the symbolic cap (36 > 8 at (2,2)), or a cap below 4x4
    for d, cap in (("2", ()), ("1", ("--cap", "0")), ("1", ("--cap", "-3"))):
        capsys.readouterr()
        assert run_cli("det", "--d1", d, "--d2", d, "--mode", "symbolic", *cap) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: --cap ") and "\n" not in err, (d, cap, err)


def test_consecutive_calls_share_no_state(monkeypatch, capsys):
    """The parser is built once per process; each call still parses afresh,
    so a call gives what a fresh process gives after any earlier call."""
    monkeypatch.setenv("COLUMNS", "80")   # help text wraps at the same width

    def fresh(*argv):
        return subprocess.run([sys.executable, "-m", "diffres.cli", *argv],
                              capture_output=True, text=True)

    det = ("det", "--d1", "1", "--d2", "1", "--mode", "modular")
    for argv, code in ((det, 0), (("det", "--help"), 0),
                       (("build", "--d1", "2"), 2)):
        assert run_cli(*det, "--moduli", "5", "7") == 0
        capsys.readouterr()
        proc = fresh(*argv)
        assert run_cli(*argv) == proc.returncode == code
        out, err = capsys.readouterr()
        assert (out, err) == (proc.stdout, proc.stderr)


def test_invariant_violation_exit_code(capsys):
    # an out-of-range perturbation is a library-level invariant failure
    code = run_cli("lp-partition", "--d1", "1", "--d2", "1",
                   "--delta", "2", "2", "2")
    assert code == 3


@pytest.mark.parametrize("verb", ["lp-partition", "moves"])
def test_failing_liftings_are_an_invariant_violation(verb, capsys):
    """Liftings that `validate_liftings` fails are refused by `grc_partition`,
    as an out-of-range perturbation is: exit 3, one line naming each
    violated inequality."""
    code = run_cli(verb, "--d1", "2", "--d2", "2",
                   "--liftings", "9", *["0"] * 11)
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err == ("invariant violation: liftings violate: "
                   "L11 - L12 - L21 + L22 <= 0, L11 <= L41\n")


def test_installed_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "diffres.cli",
                           "sets", "--d1", "1", "--d2", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["N"] == 4


def test_unknown_suite_names_the_suites(capsys):
    """The parser takes any suite name; `run_checks` refuses an unknown one,
    in-process as in a fresh process, with one line naming the suites."""
    def runtimes_out(text):
        return re.sub(r"\(\d+\.\d\ds\)", "(s)", text)

    for suite, code in (("sizes", 0), ("stretch", 2), ("nosuch", 2)):
        proc = subprocess.run([sys.executable, "-m", "diffres.cli", "check",
                               "--suite", suite], capture_output=True, text=True)
        assert run_cli("check", "--suite", suite) == proc.returncode == code
        out, err = capsys.readouterr()
        assert (runtimes_out(out), err) == (runtimes_out(proc.stdout), proc.stderr)
        if code == 2:
            assert out == ""
            assert err == (f"error: unknown suite {suite!r}; choose from all, "
                           "basis, carra-ferro, certificate, linear, "
                           "lp-partition, nonvanishing, oracle, sizes, "
                           "vanishing\n")


# a decimal exponent past 4300 is refused wherever a rational is read from
# text, not expanded into an integer of that many digits (which ran for
# minutes); each case runs in its own process, under a timeout
HUGE_EXPONENT_CASES = {
    "common-zero": (("det", "--d1", "1", "--d2", "1",
                     "--common-zero", "1e99999999", "1", "1"), None),
    "delta": (("lp-partition", "--d1", "1", "--d2", "1",
               "--delta", "1/100", "1E-99_999_999", "1/100"), None),
    "config-text": (("lp-partition", "--d1", "1", "--d2", "1", "--config"),
                    '{"delta": ["1/100", "1/100", "1e+99999999"]}'),
    "spec-file-text": (("det", "--d1", "1", "--d2", "1", "--spec-file"),
                       '{"a(0,0)": "1e99999999"}'),
    "json-number": (("det", "--d1", "1", "--d2", "1", "--spec-file"),
                    '{"a(0,0)": 1e99999999}'),
}


@pytest.mark.parametrize("case", sorted(HUGE_EXPONENT_CASES))
def test_a_huge_decimal_exponent_is_refused(case, tmp_path):
    argv, content = HUGE_EXPONENT_CASES[case]
    if content is not None:
        path = tmp_path / "input.json"
        path.write_text(content)
        argv = (*argv, str(path))
    proc = subprocess.run([sys.executable, "-m", "diffres.cli", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: number out of range: ")
    assert proc.stderr.count("\n") == 1

"""CLI behavior: exit codes are the contract."""

import json
from pathlib import Path

import pytest

from scomult.cli import main

Z6_TEXT = """
[ring]
kind = zn_product
moduli = 6

[module m]
kind = self

[mcs trivial]
elements = 1

[mcs s13]
elements = 1 3

[submodule evens]
module = m
generators = 2

[submodule full]
module = m
generators = 1

[hom double]
source = m
target = m
values = 0 2 4 0 2 4
"""

V2_TEXT = """
[ring]
kind = zn_product
moduli = 2

[module v]
kind = direct_sum
moduli = 2 2

[mcs trivial]
elements = 1
"""


@pytest.fixture()
def z6_file(tmp_path):
    path = tmp_path / "z6.inst"
    path.write_text(Z6_TEXT)
    return str(path)


@pytest.fixture()
def v2_file(tmp_path):
    path = tmp_path / "v2.inst"
    path.write_text(V2_TEXT)
    return str(path)


def test_check_true_exit(z6_file, capsys):
    assert main(["check", z6_file, "s-comultiplication", "--mcs", "trivial"]) == 0
    out = capsys.readouterr().out
    assert "True" in out and "s=" in out


def test_check_false_exit(v2_file, capsys):
    assert main(["check", v2_file, "comultiplication"]) == 1
    out = capsys.readouterr().out
    assert "failing submodule" in out


def test_check_precondition_exit(z6_file, capsys):
    # (P:M) meets S when P is the whole module
    code = main(["check", z6_file, "s-prime", "--submodule", "full",
                 "--mcs", "trivial"])
    assert code == 2
    assert "precondition" in capsys.readouterr().err


def test_check_inline_mcs(z6_file, capsys):
    assert main(["check", z6_file, "s-second", "--submodule", "evens",
                 "--mcs", "{1}"]) == 0


def test_check_input_errors(tmp_path, z6_file, capsys):
    bad = tmp_path / "bad.inst"
    bad.write_text("nonsense\n")
    assert main(["check", str(bad), "comultiplication"]) == 3
    assert main(["check", str(tmp_path / "ghost.inst"), "comultiplication"]) == 3
    assert main(["check", z6_file, "not-a-predicate"]) == 3
    assert main(["check", z6_file, "s-comultiplication"]) == 3   # missing --mcs


def test_enumerate_ideals(z6_file, capsys):
    assert main(["enumerate", z6_file, "ideals"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 4


def test_enumerate_mcs(z6_file, capsys):
    assert main(["enumerate", z6_file, "mcs"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 7


def test_enumerate_submodules(v2_file, capsys):
    assert main(["enumerate", v2_file, "submodules", "--module", "v"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 5


def test_verify_small(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(["verify", "--max-ring", "6", "--report", str(report_path)])
    assert code == 0
    document = json.loads(report_path.read_text())
    assert set(document) == {"run", "statements"}
    assert len(document["statements"]) == 26
    assert {"id", "verdict", "instances", "ms"} <= set(document["statements"][0])
    assert document["run"]["params"]["max_ring"] == 6


def test_verify_statement_filter(capsys):
    assert main(["verify", "--max-ring", "6", "--statements", "T-DU,L-EQ"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2 and "L-EQ" in out and "T-DU" in out


def test_verify_unknown_statement(capsys):
    assert main(["verify", "--statements", "T-NOPE"]) == 3


def _no_catalog(params):
    raise AssertionError("the catalog must not be built for a rejected flag")


@pytest.mark.parametrize("value", ["1", "13", "20"])
def test_verify_rejects_max_ring_out_of_range(value, monkeypatch, capsys):
    monkeypatch.setattr("scomult.cli.generate_catalog", _no_catalog)
    assert main(["verify", "--max-ring", value]) == 3
    assert "--max-ring" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1", "65"])
def test_verify_rejects_max_module_out_of_range(value, monkeypatch, capsys):
    monkeypatch.setattr("scomult.cli.generate_catalog", _no_catalog)
    assert main(["verify", "--max-module", value]) == 3
    assert "--max-module" in capsys.readouterr().err


def test_verify_mutation_exits_one(tmp_path, capsys):
    report_path = tmp_path / "mutation.json"
    code = main(["verify", "--mutation", "--report", str(report_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert out.count("killed") == 5 and "ESCAPED" not in out
    document = json.loads(report_path.read_text())
    assert len(document["mutants"]) == 5
    assert all(m["failed"] for m in document["mutants"])


def test_hom_predicates(z6_file, capsys):
    assert main(["check", z6_file, "s-monic", "--hom", "double",
                 "--mcs", "s13"]) == 1
    assert main(["check", z6_file, "s-epic", "--hom", "double",
                 "--mcs", "s13"]) == 1
    assert main(["check", z6_file, "s-monic", "--hom", "double",
                 "--mcs", "1 4"]) == 0


INSTANCES = Path(__file__).resolve().parent.parent / "instances"

Z2_TABLE_TEXT = """
[ring]
kind = table
add = 0 1 / 1 0
mul = 0 0 / 0 1
zero = 0
one = 1

[module m]
kind = self
"""


@pytest.mark.parametrize("instance, predicate, mcs", [
    ("f4_table.inst", "comultiplication", "1 5"),     # index past the ring
    ("z6_self.inst", "s-cyclic", "1 -5"),             # negative index
])
def test_check_rejects_out_of_range_mcs(instance, predicate, mcs, capsys):
    assert main(["check", str(INSTANCES / instance), predicate, "--mcs", mcs]) == 3
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("old, new", [
    ("zero = 0", "zero = 9"),
    ("one = 1", "one = 7"),
    ("kind = self", "kind = table\nadd = 0 1 / 1 5\naction = 0 0 / 0 1"),
])
def test_check_rejects_out_of_range_instance_entries(tmp_path, old, new, capsys):
    path = tmp_path / "bad.inst"
    path.write_text(Z2_TABLE_TEXT.replace(old, new))
    assert main(["check", str(path), "cyclic"]) == 3
    assert "out of range" in capsys.readouterr().err

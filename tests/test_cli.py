"""CLI behavior: exit codes are the contract."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from scomult import mutations
from scomult.cli import main
from scomult.instancefile import parse_instance_file
from scomult.rings import enumerate_mcs

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
    assert document["run"]["params"]["max_module"] == 16


def test_verify_statement_filter(capsys):
    assert main(["verify", "--max-ring", "6", "--statements", "T-DU,L-EQ"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2 and "L-EQ" in out and "T-DU" in out


def test_verify_unknown_statement(capsys):
    assert main(["verify", "--statements", "T-NOPE"]) == 3


def _no_catalog(params):
    raise AssertionError("the catalog must not be built for a rejected flag")


@pytest.mark.parametrize("value", ["", ",", " , ,", "P-SAT,P-SAT",
                                   "L-EQ,P-SAT,L-EQ"])
@pytest.mark.parametrize("mutation", [False, True])
def test_verify_rejects_an_empty_or_repeated_statement_list(
        value, mutation, monkeypatch, capsys):
    """A list that names no statement would run none (and, with --mutation,
    report every mutant as escaped); a repeated id would be reported twice."""
    monkeypatch.setattr("scomult.cli.generate_catalog", _no_catalog)
    argv = ["verify", "--statements", value] + ["--mutation"] * mutation
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: --statements")


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


def test_verify_mutation_exits_zero_when_every_kill_matches(tmp_path, capsys):
    report_path = tmp_path / "mutation.json"
    code = main(["verify", "--mutation", "--report", str(report_path)])
    assert code == 0
    captured = capsys.readouterr()
    out = captured.out
    assert out.count("killed") == 5 and "ESCAPED" not in out
    assert captured.err == ""
    document = json.loads(report_path.read_text())
    assert len(document["mutants"]) == 5
    assert all(m["failed"] for m in document["mutants"])
    assert document["run"]["params"] == {"max_ring": 6, "max_module": 8,
                                         "statements": None, "mutation": True}


def test_verify_mutation_names_each_kill_mismatch_and_exits_one(monkeypatch, capsys):
    """A mutant whose kills differ from its expected ones, among the
    statements run, makes the run exit 1 and is named on stderr; the
    others are not, the drop-u-factor mutant included, which none of
    these statements is expected to kill."""
    monkeypatch.setitem(mutations.KILLS, "tm3_drop_uniform_clause",
                        ("T-M3", "T-SEC"))
    monkeypatch.setitem(mutations.KILLS, "lemma_pair_direction_flip", ())
    code = main(["verify", "--mutation", "--statements", "T-M3,T-SEC,L-EQ"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out.count("killed") == 4
    assert "mutant localization_drop_ufactor: ESCAPED" in captured.out
    assert captured.err.splitlines() == [
        "mutant lemma_pair_direction_flip: failed L-EQ, expected nothing",
        "mutant tm3_drop_uniform_clause: failed T-M3, expected T-M3, T-SEC",
    ]


@pytest.mark.parametrize("flags", [["--max-ring", "3"], ["--max-module", "16"],
                                   ["--max-ring", "6", "--max-module", "8"]])
def test_verify_mutation_rejects_catalog_size_flags(flags, monkeypatch, capsys):
    """--mutation checks its own reduced catalog, so a size flag given with
    it would be ignored; it is refused before any catalog is built."""
    monkeypatch.setattr("scomult.cli.generate_catalog", _no_catalog)
    assert main(["verify", "--mutation", *flags, "--statements", "C-DU"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: --max-ring and --max-module "
                                   "cannot be combined with --mutation")


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


Z6_QUOTIENT_TEXT = """
[ring]
kind = zn_product
moduli = 6

[module q]
kind = zn_over_zk
d = 2
"""


@pytest.mark.parametrize("old, new", [
    ("zero = 0", "zero ="),
    ("zero = 0", "zero = 0 1"),
    ("one = 1", "one ="),
    ("one = 1", "one = 1 0"),
    ("d = 2", "d ="),
    ("d = 2", "d = 2 3"),
])
def test_check_rejects_single_value_keys_without_one_integer(
        tmp_path, old, new, capsys):
    text = Z6_QUOTIENT_TEXT if old.startswith("d ") else Z2_TABLE_TEXT
    path = tmp_path / "bad.inst"
    path.write_text(text.replace(old, new))
    assert main(["check", str(path), "cyclic"]) == 3
    assert "exactly one integer" in capsys.readouterr().err


CHECK_PREDICATES = (
    "s-comultiplication", "comultiplication", "multiplication",
    "s-multiplication", "s-cyclic", "cyclic", "torsion", "s-torsion-free",
    "prime-module", "s-prime", "s-second", "s-minimal", "s-finite",
    "s-zero", "s-monic", "s-epic",
)

# `check` exit codes per shipped instance file and predicate: one digit per
# `_check_flag_grid` entry, in its order.
CHECK_EXIT_CODES = {
    "f4_table.inst": {
        "s-comultiplication": "300300",
        "comultiplication": "033033",
        "multiplication": "033033",
        "s-multiplication": "300300",
        "s-cyclic": "300300",
        "cyclic": "033033",
        "torsion": "133133",
        "s-torsion-free": "300300",
        "prime-module": "033033",
        "s-prime": "333333",
        "s-second": "333333",
        "s-minimal": "333333",
        "s-finite": "333333",
        "s-zero": "333333",
        "s-monic": "333333",
        "s-epic": "333333",
    },
    "v2_over_f2.inst": {
        "s-comultiplication": "3131",
        "comultiplication": "1313",
        "multiplication": "1313",
        "s-multiplication": "3131",
        "s-cyclic": "3131",
        "cyclic": "1313",
        "torsion": "1313",
        "s-torsion-free": "3030",
        "prime-module": "0303",
        "s-prime": "3333",
        "s-second": "3333",
        "s-minimal": "3333",
        "s-finite": "3333",
        "s-zero": "3333",
        "s-monic": "3333",
        "s-epic": "3333",
    },
    "z6_self.inst": {
        "s-comultiplication": "3000000030000000333333333333333333333333",
        "comultiplication": "0333333303333333333333333333333333333333",
        "multiplication": "0333333303333333333333333333333333333333",
        "s-multiplication": "3000000030000000333333333333333333333333",
        "s-cyclic": "3000000030000000333333333333333333333333",
        "cyclic": "0333333303333333333333333333333333333333",
        "torsion": "1333333313333333333333333333333333333333",
        "s-torsion-free": "3100100031001000333333333333333333333333",
        "prime-module": "1333333313333333333333333333333333333333",
        "s-prime": "3333333333333333300202023020002033333333",
        "s-second": "3333333333333333302000203002020233333333",
        "s-minimal": "3333333333333333300000003000000033333333",
        "s-finite": "3333333333333333300000003000000033333333",
        "s-zero": "3101110133333333333333333333333331011101",
        "s-monic": "3110101033333333333333333333333331101010",
        "s-epic": "3110101033333333333333333333333331101010",
    },
}


def _check_flag_grid(instance):
    """No subject flag, then each named module, submodule and hom; crossed
    with no --mcs, then each m.c.s. of the ring as an element list."""
    subjects = [[]] + [[flag, name] for flag, names in (
        ("--module", instance.modules), ("--submodule", instance.submodules),
        ("--hom", instance.homs)) for name in names]
    mcs_flags = [[]] + [["--mcs", " ".join(map(str, sorted(mcs.elements)))]
                        for mcs in enumerate_mcs(instance.ring)]
    return [subject + mcs for subject in subjects for mcs in mcs_flags]


@pytest.mark.parametrize("name", sorted(p.name for p in INSTANCES.glob("*.inst")))
def test_check_exit_codes_are_pinned(name, capsys):
    path = str(INSTANCES / name)
    grid = _check_flag_grid(parse_instance_file(path))
    codes = {predicate: "".join(str(main(["check", path, predicate, *flags]))
                                for flags in grid)
             for predicate in CHECK_PREDICATES}
    assert codes == CHECK_EXIT_CODES[name]


TWO_MODULE_TEXT = """
[ring]
kind = zn_product
moduli = 6

[module m]
kind = self

[module v]
kind = direct_sum
moduli = 2 3

[submodule n]
module = v
elements = 0 1 2
"""


@pytest.mark.parametrize("predicate", ["s-prime", "s-second", "s-minimal", "s-finite"])
def test_submodule_predicate_runs_on_its_own_module(tmp_path, predicate, capsys):
    path = tmp_path / "two.inst"
    path.write_text(TWO_MODULE_TEXT)
    args = ["check", str(path), predicate, "--submodule", "n", "--mcs", "1"]
    assert main(args + ["--module", "v"]) == 0
    named = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == named
    assert main(args + ["--module", "m"]) == 3
    assert "input error" in capsys.readouterr().err


def test_readme_lists_the_check_predicates_by_subject():
    # imported here so the exit-code pins above also run on a `cli` without the table
    from scomult.cli import PREDICATES

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = {}
    for kind, rest in re.findall(r"^\* (module|submodule|hom) \(.*?\): (.*?)(?=^\*|^$)",
                                 readme, re.M | re.S):
        listed[kind] = re.findall(r"`([a-z-]+)`", rest)
    table = {}
    for name, (kind, needs_mcs, _) in PREDICATES.items():
        table.setdefault(kind, []).append(name)
        assert needs_mcs == name.startswith("s-"), name
    assert listed == table
    assert sorted(CHECK_PREDICATES) == sorted(PREDICATES)


@pytest.mark.parametrize("predicate, flags", [
    ("cyclic", ["--hom", "double", "--mcs", "1"]),
    ("s-torsion-free", ["--submodule", "evens", "--mcs", "1"]),
    ("s-prime", ["--submodule", "evens", "--hom", "double", "--mcs", "1"]),
    ("s-zero", ["--hom", "double", "--module", "m", "--mcs", "1"]),
])
def test_check_rejects_flags_the_predicate_does_not_read(predicate, flags, capsys):
    assert main(["check", str(INSTANCES / "z6_self.inst"), predicate, *flags]) == 3
    assert "does not read --" in capsys.readouterr().err


def test_python_dash_m_runs_the_command_from_a_checkout():
    """`python -m scomult` with only `src` on the path verifies one
    statement and exits 0, as the installed command does."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "scomult", "verify", "--statements", "T-DU"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "T-DU" in proc.stdout

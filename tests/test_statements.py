"""The statement suite: filters, verdicts, determinism, and mutation kills."""

import ast
import inspect
from collections import Counter, defaultdict
from dataclasses import fields
from pathlib import Path

import pytest

from scomult import morphisms as mor, rings, s_theory, statements

from scomult.catalog import CatalogParams, generate_catalog
from scomult.errors import (
    AxiomViolation,
    DisjointnessFailure,
    PreconditionUnmet,
    UnknownStatement,
)
from scomult.modules import (
    enumerate_submodules,
    full_submodule,
    scalar_times_set,
    self_module,
    submodule_from_set,
    zero_colon_set,
    zn_over_zk,
)
from scomult.morphisms import (
    BridgeReport,
    ModuleHom,
    _signature,
    identity_hom,
    is_s_monic_via_kernel,
    monic_epic_bridge,
    projection_hom,
)
from scomult.mutations import (
    KILLS,
    MUTANTS,
    kill_mismatches,
    mutant_toolbox,
    mutation_catalog_params,
)
from scomult.rings import (
    make_ring_zn,
    minimal_nonzero_ideals,
    unit_mcs,
    validate_mcs,
)
from scomult.s_theory import (
    TransferReport,
    _transfer_core,
    transfer_theorem_check,
)
from scomult.statements import (
    STATEMENTS,
    Statement,
    Toolbox,
    _bridge_outcomes,
    _by_signature,
    _e_s_classes,
    _hom_classes,
    verify,
    verify_all,
)
from scomult.witnesses import PARAMETERS, REVALIDATORS, Witness

from conftest import REFERENCE_CHECKERS

SRC = Path(statements.__file__).parent


@pytest.fixture(scope="module")
def small_catalog():
    return generate_catalog(mutation_catalog_params())


@pytest.fixture(scope="module")
def tiny_catalog():
    return generate_catalog(CatalogParams(
        max_ring_order=4, product_moduli=(), max_module_carrier=4))


def test_registry_shape():
    assert len(STATEMENTS) == 26
    assert sorted(STATEMENTS) == [
        "C-DU", "C-M3", "C-SUB", "L-EQ", "P-CY1", "P-EXT", "P-FAM", "P-HOMS",
        "P-LOC", "P-MONO", "P-PF", "P-PROD", "P-SAT", "P-SPR", "T-COM",
        "T-CY2", "T-CY3", "T-DU", "T-HOM", "T-LOC", "T-M3", "T-MIN",
        "T-PRODN", "T-SEC", "T-SSUM", "T-TOR"]


def test_unknown_statement(small_catalog):
    with pytest.raises(UnknownStatement):
        verify("T-NOPE", small_catalog)
    with pytest.raises(UnknownStatement):
        verify_all(small_catalog, ["L-EQ", "T-NOPE"])


def test_empty_catalog_all_vacuous():
    empty = generate_catalog(CatalogParams(max_ring_order=1))
    reports = verify_all(empty)
    assert len(reports) == 26
    assert all(r.verdict == "vacuous" for r in reports)


def test_small_catalog_all_pass(small_catalog):
    reports = verify_all(small_catalog)
    assert all(r.verdict != "fail" for r in reports)
    by_id = {r.statement_id: r for r in reports}
    # no three-factor product fits under ring order 6
    assert by_id["T-PRODN"].verdict == "vacuous"
    assert by_id["P-PROD"].verdict == "pass"
    assert by_id["L-EQ"].verdict == "pass"


def test_statement_filter_runs_subset(small_catalog):
    reports = verify_all(small_catalog, ["T-DU", "L-EQ"])
    assert [r.statement_id for r in reports] == ["L-EQ", "T-DU"]


def test_reports_are_deterministic(small_catalog):
    first = verify("L-EQ", small_catalog)
    second = verify("L-EQ", small_catalog)
    assert first.instances == second.instances
    assert first.verdict == second.verdict == "pass"


def test_report_json_shape(small_catalog):
    report = verify("T-DU", small_catalog)
    doc = report.to_json()
    assert doc["id"] == "T-DU" and doc["verdict"] in ("pass", "fail", "vacuous")
    assert isinstance(doc["instances"], int) and isinstance(doc["ms"], float)
    assert "counterexample" not in doc


# ---------------------------------------------------------------------------
# hypothesis filters: one qualifying and one non-qualifying instance each


def test_thom_filter():
    z4 = make_ring_zn([4])
    m4 = self_module(z4)
    s = unit_mcs(z4)
    assert is_s_monic_via_kernel(identity_hom(m4), s) is not None
    surjection = projection_hom(m4, submodule_from_set(m4, {0, 2}))
    assert is_s_monic_via_kernel(surjection, s) is None


def test_tdu_filter_only_zero_modules_qualify(small_catalog):
    report = verify("T-DU", small_catalog)
    assert report.verdict == "pass"
    assert report.instances >= 1
    assert report.notes["nonzero_instances"] == 0


def test_cdu_filter(small_catalog):
    report = verify("C-DU", small_catalog)
    assert report.verdict == "pass" and report.instances >= 1
    assert report.notes["nonzero_instances"] == 0


def test_pcy1_filter(z6, m6, z2_over_z6):
    minimal = minimal_nonzero_ideals(z6)
    assert any(zero_colon_set(z2_over_z6, i.elements) == frozenset({0})
               for i in minimal)
    assert not any(zero_colon_set(m6, i.elements) == frozenset({0})
                   for i in minimal)


def test_tcy2_filter(small_catalog):
    report = verify("T-CY2", small_catalog)
    assert report.verdict == "pass" and report.instances >= 1
    assert report.notes["already_cyclic"] == report.instances


def test_tcy3_filter(small_catalog):
    report = verify("T-CY3", small_catalog)
    assert report.verdict == "pass" and report.instances >= 1


def test_tmin_filter_and_readings(small_catalog):
    report = verify("T-MIN", small_catalog)
    assert report.verdict == "pass" and report.instances >= 1
    assert report.notes["holds_nonzero_L_reading"] == report.instances
    assert report.notes["holds_all_L_reading"] < report.instances


def test_csub_quotient_side(z6, m6, s1):
    # N = M qualifies for the quotient part with t = 1; a proper N does not
    full = frozenset(m6.elements())
    from scomult.modules import scalar_times_set

    assert scalar_times_set(m6, 1, full) <= full
    assert not scalar_times_set(m6, 1, full) <= frozenset({0, 3})


def test_pspr_and_tsec_record_skips(small_catalog):
    spr = verify("P-SPR", small_catalog)
    sec = verify("T-SEC", small_catalog)
    assert spr.notes["disjointness_skips"] > 0
    assert sec.notes["disjointness_skips"] > 0


def test_product_statements_on_default_instances():
    catalog = generate_catalog(CatalogParams(
        max_ring_order=6, product_moduli=((2, 2), (2, 3))))
    assert verify("P-PROD", catalog).verdict == "pass"
    prodn = verify("T-PRODN", catalog)
    assert prodn.verdict == "vacuous"      # no triples fit under order 6


# ---------------------------------------------------------------------------
# mutation sensitivity


def test_every_mutant_is_killed(mutation_outcomes):
    assert [name for name, _ in mutation_outcomes] == sorted(MUTANTS)
    for name, failed in mutation_outcomes:
        assert failed, f"mutant {name} escaped the suite"


def test_expected_kill_sets(mutation_outcomes):
    kills = dict(mutation_outcomes)
    assert kills["lemma_pair_direction_flip"] == ["L-EQ"]
    assert kills["localization_drop_ufactor"] == ["P-LOC", "T-LOC"]
    assert kills["s_prime_quantifier_swap"] == ["P-SPR", "T-M3"]
    assert kills["s_second_drop_disjointness"] == ["T-M3", "T-SEC", "T-SSUM"]
    assert kills["tm3_drop_uniform_clause"] == ["T-M3"]
    assert kills == {name: list(KILLS[name]) for name in MUTANTS}
    assert kill_mismatches(mutation_outcomes) == []


# (verdict, instances, notes) of every statement on the reduced catalog
# under the default toolbox, and the entries each mutant changes
REDUCED_OUTCOMES = {
    "C-DU": ("pass", 8, {"nonzero_instances": 0}),
    "C-M3": ("pass", 20, {}),
    "C-SUB": ("pass", 155, {}),
    "L-EQ": ("pass", 70, {}),
    "P-CY1": ("pass", 26, {}),
    "P-EXT": ("pass", 355, {}),
    "P-FAM": ("pass", 463, {}),
    "P-HOMS": ("pass", 5784, {}),
    "P-LOC": ("pass", 54, {}),
    "P-MONO": ("pass", 74, {}),
    "P-PF": ("pass", 74, {}),
    "P-PROD": ("pass", 3, {}),
    "P-SAT": ("pass", 70, {}),
    "P-SPR": ("pass", 223, {"disjointness_skips": 149}),
    "T-COM": ("pass", 18, {}),
    "T-CY2": ("pass", 6, {"already_cyclic": 6}),
    "T-CY3": ("pass", 39, {}),
    "T-DU": ("pass", 27, {"nonzero_instances": 0}),
    "T-HOM": ("pass", 3089, {"precondition_unmet": 2695}),
    "T-LOC": ("pass", 70, {}),
    "T-M3": ("pass", 155, {}),
    "T-MIN": ("pass", 28, {"holds_all_L_reading": 11,
                           "holds_nonzero_L_reading": 28}),
    "T-PRODN": ("vacuous", 0, {}),
    "T-SEC": ("pass", 223, {"disjointness_skips": 79}),
    "T-SSUM": ("pass", 440, {}),
    "T-TOR": ("pass", 54, {}),
}
MUTANT_OUTCOMES = {
    "lemma_pair_direction_flip": {"L-EQ": ("fail", 1, {})},
    "localization_drop_ufactor": {"P-LOC": ("fail", 0, {}),
                                  "T-LOC": ("fail", 0, {})},
    "s_prime_quantifier_swap": {"P-SPR": ("fail", 87, {}),
                                "T-M3": ("fail", 18, {})},
    "s_second_drop_disjointness": {"T-M3": ("fail", 17, {}),
                                   "T-SEC": ("fail", 88, {}),
                                   "T-SSUM": ("fail", 34, {})},
    "tm3_drop_uniform_clause": {"T-M3": ("fail", 16, {})},
}


def test_pinned_outcomes_on_reduced_catalog(mutation_reports):
    assert sorted(mutation_reports) == sorted(["default", *MUTANTS])
    for name, reports in mutation_reports.items():
        expected = {**REDUCED_OUTCOMES, **MUTANT_OUTCOMES.get(name, {})}
        got = {r.statement_id: (r.verdict, r.instances, r.notes) for r in reports}
        assert got == expected, name


def test_mutant_failure_reports_carry_counterexamples(small_catalog):
    toolbox = mutant_toolbox("lemma_pair_direction_flip")
    report = verify("L-EQ", small_catalog, toolbox)
    assert report.verdict == "fail"
    assert report.counterexample is not None
    assert "module" in report.counterexample


def test_witness_revalidation_catches_swapped_quantifiers(small_catalog):
    toolbox = mutant_toolbox("s_prime_quantifier_swap")
    report = verify("P-SPR", small_catalog, toolbox)
    assert report.verdict == "fail"
    assert "revalidation" in report.counterexample.get("detail", "")


# counterexample of every failing report above, keyed like MUTANT_OUTCOMES;
# key order is pinned too, since the JSON report keeps it
REVALIDATION = "witness failed revalidation: "
MUTANT_COUNTEREXAMPLES = {
    "lemma_pair_direction_flip": {
        "L-EQ": {"module": "Z2 over Z2", "mcs": "{1}",
                 "verdicts": [True, True, False]}},
    "localization_drop_ufactor": {
        sid: {"error": "axiom violated: image of S must consist of units"
                       " at (3,)"}
        for sid in ("P-LOC", "T-LOC")},
    "s_prime_quantifier_swap": {
        "P-SPR": {"module": "Z6 over Z6", "mcs": "{1,3}", "submodule": "{0}",
                  "detail": REVALIDATION + "s-prime-submodule(module=Z6 over Z6,"
                                           " p={0}, mcs={1,3}, s=1)"},
        "T-M3": {"module": "Z6 over Z6", "mcs": "{1,3}",
                 "submodule": "{0,1,2,3,4,5}",
                 "detail": REVALIDATION + "s-prime-submodule(module=Z6 over Z6,"
                                          " p={0}, mcs={1,3}, s=1)"}},
    "s_second_drop_disjointness": {
        "T-M3": {"module": "Z6 over Z6", "mcs": "{1,3}", "submodule": "{0,2,4}",
                 "second": True, "prime_annihilator": False,
                 "uniform_multiple": True},
        "T-SEC": {"module": "Z6 over Z6", "mcs": "{1,3}", "submodule": "{0,2,4}",
                  "verdicts": [True, False, False]},
        "T-SSUM": {"module": "Z6 over Z6", "mcs": "{1,3}", "submodule": "{0,2,4}",
                   "detail": REVALIDATION + "s-second(module=Z6 over Z6,"
                                            " n={0,2,4}, mcs={1,3}, s=3)"}},
    "tm3_drop_uniform_clause": {
        "T-M3": {"module": "Z6 over Z6", "mcs": "{1,3}", "submodule": "{0,2,4}",
                 "detail": REVALIDATION + "uniform-multiple(module=Z6 over Z6,"
                                          " n={0,2,4}, mcs={1,3}, s=1)"}},
}


def test_pinned_counterexamples_on_reduced_catalog(mutation_reports):
    for name, reports in mutation_reports.items():
        got = {r.statement_id: list(r.counterexample.items()) for r in reports
               if r.counterexample is not None}
        expected = {sid: list(c.items())
                    for sid, c in MUTANT_COUNTEREXAMPLES.get(name, {}).items()}
        assert got == expected, name


@pytest.mark.parametrize("sid", ["P-CY1", "T-TOR", "T-CY2", "T-CY3"])
def test_tampered_s_cyclic_witness_fails_its_consumers(small_catalog, sid,
                                                       monkeypatch):
    """Every checker that takes an S-cyclic witness revalidates it."""
    real = s_theory.is_s_cyclic

    def element_zero(module, mcs):
        witness = real(module, mcs)
        if witness is None:
            return None
        return Witness.make("s-cyclic", module, mcs, witness.get("s"), 0)

    monkeypatch.setattr(s_theory, "is_s_cyclic", element_zero)
    report = verify(sid, small_catalog)
    assert report.verdict == "fail"
    assert report.counterexample["detail"] == (
        REVALIDATION + "s-cyclic(module=Z2 over Z2, mcs={1}, s=1, element=0)")


def test_error_midway_reports_no_instances_or_notes(small_catalog):
    real = Toolbox().is_s_second
    calls = []

    def breaks_after_ten(module, n, mcs):
        calls.append(n)
        if len(calls) > 10:
            raise AxiomViolation("injected after ten calls")
        return real(module, n, mcs)

    report = verify("T-SEC", small_catalog, Toolbox(is_s_second=breaks_after_ten))
    assert len(calls) == 11
    assert (report.verdict, report.instances, report.notes) == ("fail", 0, {})
    assert report.counterexample == {
        "error": "axiom violated: injected after ten calls"}


def test_checkers_return_nothing():
    """Checkers report only through the context `verify` hands them.

    A value returned by a checker would be ignored and its statement would
    pass, so no `_check_*` function may return one.
    """
    tree = ast.parse(Path(statements.__file__).read_text(encoding="utf-8"))
    returning = sorted({
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_check_")
        for sub in ast.walk(node)
        if isinstance(sub, ast.Return) and sub.value is not None
    })
    assert returning == []


def test_checkers_take_the_run_context():
    for statement in STATEMENTS.values():
        params = list(inspect.signature(statement.check).parameters)
        assert params == ["cat", "tb", "ctx"], statement.statement_id


# ---------------------------------------------------------------------------
# P-HOMS and T-HOM: one evaluation per hom signature, witnesses per hom


def hom_instances(catalog):
    """(f, mcs) for every catalog hom and m.c.s. of its ring, in instance
    order."""
    for ring in catalog.rings:
        for f in catalog.homs[ring]:
            for mcs in catalog.mcs[ring]:
                yield f, mcs


def grouped_outcomes(catalog, evaluate):
    """(f, mcs, the value of `evaluate` for f at mcs) for every instance, as
    the hom checkers walk them."""
    for f, mcs_list, outcomes in _by_signature(catalog, evaluate):
        yield from zip([f] * len(mcs_list), mcs_list, outcomes)


def validated_witnesses(catalog, sid):
    """The witnesses that `verify(sid)` validates, in order; it must pass."""
    found = []
    real = Witness.validate

    def recording(self):
        found.append(self)
        return real(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Witness, "validate", recording)
        assert verify(sid, catalog).verdict == "pass"
    return found


def s_of(witness):
    return None if witness is None else witness.get("s")


def assert_bind_their_own_homs(validated, expected):
    """The validated witnesses are the per-hom witnesses, in order, and each
    binds the very hom of its instance."""
    assert validated == expected
    assert all(w.get("hom") is e.get("hom") for w, e in zip(validated, expected))


def test_grouped_bridge_equals_the_per_hom_bridge(small_catalog):
    """Every (hom, m.c.s.) instance of P-HOMS agrees with `monic_epic_bridge`
    on that hom: the s of both witnesses and how the bridge fails.  The
    witnesses P-HOMS validates are that function's, in instance order, and
    bind the hom itself, not the first hom of its signature."""
    pairs, shared, expected = 0, 0, []
    firsts = {}
    for f, mcs, outcome in grouped_outcomes(small_catalog, _bridge_outcomes):
        pairs += 1
        first = firsts.setdefault((f.source.ring, _signature(f)), f)
        shared += first is not f
        report = monic_epic_bridge(f, mcs)
        assert outcome == (s_of(report.s_monic), s_of(report.s_epic),
                           report.failure()), (f.describe(), f.values)
        expected += [w for w in (report.s_monic, report.s_epic) if w is not None]
    assert (pairs, len(firsts)) == (5784, 440)
    assert shared > 0
    assert_bind_their_own_homs(validated_witnesses(small_catalog, "P-HOMS"),
                               expected)


def test_grouped_transfer_equals_the_per_hom_transfer(small_catalog):
    pairs, unmet, expected = 0, 0, []
    for f, mcs, entry in grouped_outcomes(small_catalog, _transfer_core):
        pairs += 1
        if entry is None:
            unmet += 1
            with pytest.raises(PreconditionUnmet):
                transfer_theorem_check(f, mcs)
            continue
        report = transfer_theorem_check(f, mcs)
        assert entry == (s_of(report.kernel_witness), *report[1:]), (
            f.describe(), f.values)
        expected.append(report.kernel_witness)
    assert (pairs, unmet) == (5784, 2695)
    assert_bind_their_own_homs(validated_witnesses(small_catalog, "T-HOM"),
                               expected)


def counting(counts, name, real):
    """`real`, counting its calls in counts[name]."""
    def counted(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)
    return counted


# The core each hom statement evaluates once per signature class.
CORES = {"P-HOMS": (mor, "_bridge_core"), "T-HOM": (s_theory, "_transfer_core")}


@pytest.mark.parametrize("sid, validations", [("P-HOMS", 6178), ("T-HOM", 3089)])
def test_every_hom_witness_is_revalidated(monkeypatch, sid, validations):
    """The cores' values live as long as their catalog: a fresh reduced
    catalog (1,719 homs in 440 signature classes) evaluates each core once
    per class on its first run and never on its second, and a second
    catalog built from the same params evaluates every class again.  Both
    runs revalidate one witness per witness of each (hom, m.c.s.)
    instance, as many as when every hom was evaluated alone.  The second
    run builds no `BridgeReport` or `TransferReport` and makes only the
    witnesses it validates.  (A cold first run also fills the cached
    S-comultiplication searches that T-HOM reads, which make their own
    witnesses once per module and first m.c.s. of an e_S class.)"""
    counts = Counter()
    module, core = CORES[sid]
    monkeypatch.setattr(module, core,
                        counting(counts, "core", getattr(module, core)))
    for report_type in (BridgeReport, TransferReport):
        monkeypatch.setattr(report_type, "__new__",
                            counting(counts, "reports", report_type.__new__))
    monkeypatch.setattr(Witness, "validate", counting(
        counts, "validated", Witness.validate))
    catalog = generate_catalog(mutation_catalog_params())
    assert verify(sid, catalog).verdict == "pass"
    classes = [_hom_classes(catalog, ring) for ring in catalog.rings]
    assert sum(len(class_of) for class_of, _ in classes) == 1719
    assert sum(len(firsts) for _, firsts in classes) == 440
    assert counts == {"core": 440, "validated": validations}

    counts.clear()
    monkeypatch.setattr(Witness, "make", staticmethod(
        counting(counts, "made", Witness.make)))
    assert verify(sid, catalog).verdict == "pass"
    assert counts == {"made": validations, "validated": validations}

    counts.clear()
    fresh = generate_catalog(mutation_catalog_params())
    assert fresh._memo == {} and fresh == catalog    # the memo is not identity
    assert verify(sid, fresh).verdict == "pass"
    assert counts["core"] == 440 and counts["validated"] == validations


def test_a_rejected_witness_of_a_later_hom_fails_p_homs(small_catalog,
                                                        monkeypatch):
    """A revalidator that rejects only the last hom of the largest signature
    class over Z2 (an automorphism of Z2+Z2+Z2, so S-monic with s = 1) fails
    P-HOMS at that hom's instance."""
    z2 = small_catalog.rings[0]
    classes = {}
    for f in small_catalog.homs[z2]:
        classes.setdefault(_signature(f), []).append(f)
    largest = max(classes.values(), key=len)
    chosen = largest[-1]
    assert len(largest) == 168 and chosen.describe() == "Z2+Z2+Z2->Z2+Z2+Z2"
    position = next(i for i, (f, mcs) in enumerate(hom_instances(small_catalog))
                    if f is chosen and monic_epic_bridge(f, mcs).s_monic)
    real = REVALIDATORS["s-monic"]
    rejected = []

    def rejects_chosen(hom, mcs, s):
        if hom is chosen:
            rejected.append(hom)
            return False
        return real(hom, mcs, s)

    monkeypatch.setitem(REVALIDATORS, "s-monic", rejects_chosen)
    report = verify("P-HOMS", small_catalog)
    assert report.verdict == "fail"
    assert report.instances == position + 1
    assert rejected == [chosen]
    assert report.counterexample == {
        "hom": "Z2+Z2+Z2->Z2+Z2+Z2", "mcs": "{1}",
        "detail": REVALIDATION + "s-monic(hom=Z2+Z2+Z2->Z2+Z2+Z2, mcs={1}, s=1)"}


def test_the_core_values_fill_in_catalog_order(monkeypatch):
    """A signature class is evaluated when the walk first reaches it, not
    before.  The revalidator rejects the first Z2 hom with a witness (the
    identity on Z2, first of Z2's second class) and the bridge core raises
    on Z2's next class: P-HOMS fails with the revalidation detail at the
    identity's instance, as it does when the core runs per call; a table
    that filled a ring's classes before walking its homs would report the
    error instead.  The class that raised is not stored, so once the
    revalidator is sound again the next run reaches it and reports the
    error."""
    catalog = generate_catalog(mutation_catalog_params())
    z2 = catalog.rings[0]
    firsts = {}
    for f in catalog.homs[z2]:
        firsts.setdefault(_signature(f), f)
    zero, identity, raising = list(firsts.values())[:3]
    assert [f.values for f in (zero, identity)] == [(0, 0), (0, 1)]
    real_core, real_check = mor._bridge_core, REVALIDATORS["s-monic"]

    def raises_on_the_third_class(f, mcs_list):
        if f is raising:
            raise AxiomViolation("forced on Z2's third class")
        return real_core(f, mcs_list)

    monkeypatch.setattr(mor, "_bridge_core", raises_on_the_third_class)
    monkeypatch.setitem(REVALIDATORS, "s-monic", lambda hom, mcs, s: (
        hom is not identity and real_check(hom, mcs, s)))
    report = verify("P-HOMS", catalog)
    assert (report.verdict, report.instances) == ("fail", 2)
    assert report.counterexample == {
        "hom": "Z2->Z2", "mcs": "{1}",
        "detail": REVALIDATION + "s-monic(hom=Z2->Z2, mcs={1}, s=1)"}
    monkeypatch.setitem(REVALIDATORS, "s-monic", real_check)
    report = verify("P-HOMS", catalog)
    assert (report.verdict, report.instances) == ("fail", 0)
    assert report.counterexample == {
        "error": "axiom violated: forced on Z2's third class"}


@pytest.mark.parametrize("sid", ["P-HOMS", "T-HOM"])
def test_the_core_values_do_not_depend_on_the_toolbox(sid):
    """No `Toolbox` field reaches the bridge or transfer core, so a catalog
    whose first runs were under the five mutants reports, under each of
    them and then under the default toolbox, what a fresh catalog reports
    under the default toolbox first."""
    expected = outcome(verify(sid, generate_catalog(mutation_catalog_params())))
    catalog = generate_catalog(mutation_catalog_params())
    for toolbox in [mutant_toolbox(name) for name in sorted(MUTANTS)] + [None]:
        assert outcome(verify(sid, catalog, toolbox)) == expected, toolbox


# ---------------------------------------------------------------------------
# P-EXT, P-FAM, P-PF, T-M3 and T-SSUM: per-module tables, same reports


def outcome(report):
    """Everything a report says but its time."""
    return (report.statement_id, report.title, report.verdict,
            report.instances, report.notes, report.counterexample)


def reference_outcome(sid, catalog, toolbox=None):
    """The outcome of `verify(sid)` with the reference checker in its place."""
    title = STATEMENTS[sid].title
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(STATEMENTS, sid,
                      Statement(sid, title, REFERENCE_CHECKERS[sid]))
        return outcome(verify(sid, catalog, toolbox))


@pytest.mark.parametrize("toolbox_name", ["default", *sorted(MUTANTS)])
def test_module_tables_match_the_reference_checkers(small_catalog,
                                                    mutation_reports,
                                                    toolbox_name):
    toolbox = (Toolbox() if toolbox_name == "default"
               else mutant_toolbox(toolbox_name))
    reports = {r.statement_id: r for r in mutation_reports[toolbox_name]}
    for sid in sorted(REFERENCE_CHECKERS):
        assert outcome(reports[sid]) == reference_outcome(
            sid, small_catalog, toolbox), sid


CHOSEN_MODULE = "Z2+Z3 over Z6"


def chosen(module):
    return module.describe() == CHOSEN_MODULE


def past_the_first_mcs(catalog, module, mcs):
    return chosen(module) and catalog.mcs[module.ring].index(mcs) >= 1


def none_from_the_second_mcs(catalog):
    """first_multiplier, but None on the chosen module from its ring's
    second m.c.s. on."""
    real = statements.first_multiplier

    def patched(module, mcs, subset, target):
        if past_the_first_mcs(catalog, module, mcs):
            return None
        return real(module, mcs, subset, target)
    return patched


# where P-FAM and T-SSUM test e_S, and what a missing multiplier gives there
E_S_SEAMS = {"P-FAM": ("colon_set_into_module", lambda module: frozenset()),
             "T-SSUM": ("scalar_times_set",
                        lambda module: frozenset((module.size,)))}


def no_e_s_from_the_second_mcs(catalog, sid):
    """The fault of `none_from_the_second_mcs` as P-FAM or T-SSUM sees it,
    as {name in `statements`: patch}.  They ask no `first_multiplier`: they
    test e_S through (N :_M e_S) or e_S N.  On the chosen module from its
    ring's second m.c.s. on, (N :_M e_S) is empty and e_S N holds an index
    outside the module, so no target or summand takes it."""
    walked = []
    name, fault = E_S_SEAMS[sid]
    real = getattr(statements, name)

    def patched(module, *args):
        if past_the_first_mcs(catalog, *walked):
            return fault(module)
        return real(module, *args)
    return {"_with_module_table": tracking_walk(walked), name: patched}


def tracking_walk(walked):
    """`_with_module_table`, keeping in `walked` the (module, m.c.s.) of the
    item it last gave."""
    real = statements._with_module_table

    def walk(*args):
        for item in real(*args):
            walked[:] = item[:2]
            yield item
    return walk


def drops_an_element(catalog):
    """sum_of_sets, but a sum of two or more elements on the chosen module
    loses its largest element."""
    real = statements.sum_of_sets

    def patched(module, sets):
        total = real(module, sets)
        if chosen(module) and len(total) > 1:
            return total - {max(total)}
        return total
    return patched


def returns_the_first(catalog):
    """ideal_sum(I, J), but I itself over the chosen module's ring."""
    real = statements.ideal_sum
    ring = next(m.ring for m in catalog.nonzero_modules() if chosen(m))
    return lambda i, j: i if i.module == ring else real(i, j)


def zero_annihilator(catalog):
    """annihilator, but (0) for every N of the chosen module."""
    real = statements.annihilator

    def patched(module, subset):
        if chosen(module):
            return rings.Submodule(module.ring, frozenset((0,)))
        return real(module, subset)
    return patched


@pytest.mark.parametrize("sid, name, forced, failing_module", [
    ("P-FAM", "first_multiplier", none_from_the_second_mcs, CHOSEN_MODULE),
    ("T-SSUM", "first_multiplier", none_from_the_second_mcs, CHOSEN_MODULE),
    ("P-PF", "first_multiplier", none_from_the_second_mcs, CHOSEN_MODULE),
    ("P-FAM", "sum_of_sets", drops_an_element, CHOSEN_MODULE),
    ("T-SSUM", "sum_of_sets", drops_an_element, None),
    ("P-EXT", "ideal_sum", returns_the_first, "Z6 over Z6"),
    ("P-EXT", "annihilator", zero_annihilator, CHOSEN_MODULE),
    ("T-M3", "annihilator", zero_annihilator, CHOSEN_MODULE),
])
def test_forced_failures_match_the_reference_checkers(monkeypatch, sid, name,
                                                      forced, failing_module):
    """A broken library call seen through `statements` gives the report of
    the reference checker: the same instance count, and a failure at the
    same module, m.c.s., submodule and family.  None: the statement passes
    (a lossy sum only drops T-SSUM instances).  The reference checkers ask
    `first_multiplier`, P-FAM and T-SSUM test e_S themselves, so a
    multiplier fault is forced on both.  The module tables live as long as
    their catalog, so each case builds its own and the fault meets a cold
    catalog."""
    catalog = generate_catalog(mutation_catalog_params())
    monkeypatch.setattr(statements, name, forced(catalog))
    if forced is none_from_the_second_mcs and sid in E_S_SEAMS:
        for seam, patched in no_e_s_from_the_second_mcs(catalog, sid).items():
            monkeypatch.setattr(statements, seam, patched)
    actual = outcome(verify(sid, catalog))
    assert actual == reference_outcome(sid, catalog)
    if failing_module is None:
        assert actual[2] == "pass"
    else:
        assert actual[2] == "fail" and actual[5]["module"] == failing_module
        if forced is none_from_the_second_mcs:
            assert actual[5]["mcs"] != "{1}"


# ---------------------------------------------------------------------------
# P-HOMS and T-HOM: forced failures, pinned and equal to the reference


def identity_signature(catalog, name):
    """The signature of the identity on the catalog module named `name`."""
    module = next(m for ring in catalog.rings for f in catalog.homs[ring]
                  for m in (f.source, f.target) if m.describe() == name)
    return _signature(identity_hom(module))


def no_s_monic_on_z2_z4_automorphisms(catalog):
    """_s_monic_cross_checked, but None for the homs with the signature of
    the identity on Z2+Z4 over Z4: monic maps that are not S-monic."""
    real, chosen = mor._s_monic_cross_checked, identity_signature(
        catalog, "Z2+Z4 over Z4")
    return lambda f, kernel, scalars, mcs: (
        None if _signature(f) == chosen else real(f, kernel, scalars, mcs))


def no_zero_divisors_on_z2_z3(catalog):
    """zero_divisors_on, but empty on Z2+Z3 over Z6, so every S avoids it."""
    real = mor.zero_divisors_on
    return lambda module: (frozenset() if module.describe() == "Z2+Z3 over Z6"
                           else real(module))


def no_s_epic_on_z6_automorphisms(catalog):
    """ModuleHom.s_epic_scalars, but empty for the homs with the signature of
    the identity on Z6 over Z6: epic maps that are not S-epic."""
    real, chosen = ModuleHom.s_epic_scalars, identity_signature(
        catalog, "Z6 over Z6")
    return lambda f: frozenset() if _signature(f) == chosen else real(f)


def every_element_a_unit_of_z2xz3(catalog):
    """units, but the whole ring for Z2xZ3, so every S of it is units."""
    real = mor.units
    return lambda ring: (frozenset(ring.elements()) if ring.name == "Z2xZ3"
                         else real(ring))


def not_s_comultiplication(name):
    """is_s_comultiplication, but failing at the whole module on the module
    named `name`, for every m.c.s."""
    def forced(catalog):
        real = s_theory.is_s_comultiplication

        def patched(module, mcs):
            if module.describe() == name:
                return s_theory.ForEachResult(False, (), full_submodule(module))
            return real(module, mcs)
        return patched
    return forced


@pytest.mark.parametrize("sid, name, forced, instances, counterexample", [
    ("P-HOMS", "morphisms._s_monic_cross_checked",
     no_s_monic_on_z2_z4_automorphisms, 1657,
     {"hom": "Z2+Z4->Z2+Z4", "mcs": "{1}",
      "detail": "monic map is not S-monic"}),
    ("P-HOMS", "morphisms.zero_divisors_on", no_zero_divisors_on_z2_z3, 2003,
     {"hom": "Z2+Z3->Z2+Z3", "mcs": "{1,3}",
      "detail": "S-monic did not force monic despite S avoiding z(M)"}),
    ("P-HOMS", "morphisms.ModuleHom.s_epic_scalars",
     no_s_epic_on_z6_automorphisms, 1743,
     {"hom": "Z6->Z6", "mcs": "{1}", "detail": "epic map is not S-epic"}),
    ("P-HOMS", "morphisms.units", every_element_a_unit_of_z2xz3, 5724,
     {"hom": "Z2xZ3->Z2xZ3", "mcs": "{(1,0),(1,1)}",
      "detail": "S-epic did not force epic despite S being units"}),
    ("T-HOM", "s_theory.is_s_comultiplication",
     not_s_comultiplication("Z6|{0,3} over Z6"), 610,
     {"hom": "Z6|{0,3}->Z6", "mcs": "{1}", "failing": "{0,3}",
      "detail": "property failed to descend to the source"}),
    ("T-HOM", "s_theory.is_s_comultiplication",
     not_s_comultiplication("Z6/{0,3} over Z6"), 617,
     {"hom": "Z6->Z6/{0,3}", "mcs": "{1,4}", "failing": "{[0],[1],[2]}",
      "detail": "property failed to push to the target"}),
])
def test_forced_hom_failures_are_pinned(monkeypatch, sid, name, forced,
                                        instances, counterexample):
    """Each of the four bridge claims, and T-HOM's downward and upward
    verdicts, forced false through a library call that the hom statements
    read: the report fails at the pinned instance with the pinned payload,
    as the reference checker's does.  The cores' values live as long as
    their catalog, so each case builds its own."""
    catalog = generate_catalog(mutation_catalog_params())
    monkeypatch.setattr("scomult." + name, forced(catalog))
    actual = outcome(verify(sid, catalog))
    assert actual[2:4] == ("fail", instances)
    assert actual[5] == counterexample
    assert actual == reference_outcome(sid, catalog)


# ---------------------------------------------------------------------------
# every other fail and revalidation site: forced, pinned payload and key order


def pinned(report):
    """What a failing report pins: its verdict, count, notes and payload."""
    return (report.verdict, report.instances, report.notes,
            list(report.counterexample.items()))


def past_its_first_mcs(catalog, mcs):
    return catalog.mcs[mcs.ring].index(mcs) >= 1


def not_s_comultiplication_past_the_first_mcs(catalog):
    """is_s_comultiplication, but failing at the whole chosen module from
    its ring's second m.c.s. on."""
    real = s_theory.is_s_comultiplication

    def patched(module, mcs):
        if past_the_first_mcs(catalog, module, mcs):
            return s_theory.ForEachResult(False, (), full_submodule(module))
        return real(module, mcs)
    return patched


def not_comultiplication(name):
    """is_comultiplication, but False on the module named `name`."""
    def forced(catalog):
        real = s_theory.is_comultiplication
        return lambda module: module.describe() != name and real(module)
    return forced


def colon_identity_breaks_past_the_first_mcs(catalog):
    real = statements.loc.localized_colon_identity_check
    return lambda module, mcs, ideal: (
        not past_the_first_mcs(catalog, module, mcs)
        and real(module, mcs, ideal))


def no_maximal_ideals_of_z6(catalog):
    real = statements.maximal_ideals
    return lambda ring: [] if ring.name == "Z6" else real(ring)


def no_members_on_the_chosen_module(catalog):
    """_vanishing_colon_ideals, but each ideal of the chosen module with no
    members to try as a."""
    real = statements._vanishing_colon_ideals
    return lambda module: ([(ideal, [], im) for ideal, _, im in real(module)]
                           if chosen(module) else real(module))


def whole_module_on_the_chosen_module(catalog):
    """scalar_times_set, but the whole chosen module for every scalar."""
    real = statements.scalar_times_set
    return lambda module, r, elements: (
        frozenset(module.elements()) if chosen(module)
        else real(module, r, elements))


def no_multiplier_past_the_first_mcs_of_z6(catalog):
    real = statements.first_multiplier

    def patched(module, mcs, subset, target):
        if module.ring.name == "Z6" and past_its_first_mcs(catalog, mcs):
            return None
        return real(module, mcs, subset, target)
    return patched


def vanishing_colons_on_the_chosen_module(catalog):
    real = statements.zero_colon_set
    return lambda module, ideal: (frozenset((0,)) if chosen(module)
                                  else real(module, ideal))


def not_s_cyclic_past_the_first_mcs(catalog):
    real = s_theory.is_s_cyclic
    return lambda module, mcs: (None if past_the_first_mcs(catalog, module, mcs)
                                else real(module, mcs))


def not_s_cyclic_past_the_first_mcs_of_any_ring(catalog):
    real = s_theory.is_s_cyclic
    return lambda module, mcs: (None if past_its_first_mcs(catalog, mcs)
                                else real(module, mcs))


def not_s_minimal_on_z2_over_z6(catalog):
    """is_s_minimal, but failing on Z2 over Z6 from Z6's second m.c.s. on."""
    real = s_theory.is_s_minimal

    def patched(module, k, mcs, include_zero=False):
        if (module.describe() == "Z2 over Z6"
                and past_its_first_mcs(catalog, mcs)):
            return s_theory.ForEachResult(False, (), None)
        return real(module, k, mcs, include_zero=include_zero)
    return patched


def second_flipped_on_the_chosen_module(catalog):
    """is_second_submodule_set, but negated on the chosen module."""
    real = s_theory.is_second_submodule_set
    return lambda module, subset: (real(module, subset) != chosen(module))


FAIL_SITES = [
    ("P-MONO", "s_theory.is_s_comultiplication",
     not_s_comultiplication_past_the_first_mcs,
     ("fail", 46, {}, [
         ("module", "Z2+Z3 over Z6"),
         ("smaller", "{1}"),
         ("larger", "{1,3}"),
     ])),
    ("P-SAT", "s_theory.is_s_comultiplication",
     not_s_comultiplication_past_the_first_mcs,
     ("fail", 47, {}, [
         ("module", "Z2+Z3 over Z6"),
         ("mcs", "{1}"),
         ("saturation", "{1,5}"),
         ("before", True),
         ("after", False),
     ])),
    ("P-LOC", "s_theory.is_comultiplication",
     not_comultiplication("(Z2+Z3 loc {1,3}) over (Z6 loc {1,3})"),
     ("fail", 36, {}, [
         ("module", "Z2+Z3 over Z6"),
         ("mcs", "{1,3}"),
         ("detail", "localization is not comultiplication"),
     ])),
    ("P-LOC", "localization.localized_colon_identity_check",
     colon_identity_breaks_past_the_first_mcs,
     ("fail", 36, {}, [
         ("module", "Z2+Z3 over Z6"),
         ("mcs", "{1,3}"),
         ("ideal", "{0}"),
         ("detail", "localized colon identity broke"),
     ])),
    ("T-LOC", "s_theory.is_comultiplication",
     not_comultiplication("(Z2+Z3 loc {1,3}) over (Z6 loc {1,3})"),
     ("fail", 48, {}, [
         ("module", "Z2+Z3 over Z6"),
         ("mcs", "{1,3}"),
         ("s_comultiplication", True),
         ("localized_comultiplication", False),
     ])),
    ("C-SUB", "s_theory.is_s_comultiplication",
     not_s_comultiplication("Z2+Z3|{(0,0),(0,1),(0,2)} over Z6"),
     ("fail", 61, {}, [
         ("module", "Z2+Z3 over Z6"),
         ("mcs", "{1}"),
         ("submodule", "{(0,0),(0,1),(0,2)}"),
         ("detail", "submodule lost the property"),
     ])),
    ("C-SUB", "s_theory.is_s_comultiplication",
     not_s_comultiplication("Z2+Z3/{(0,0),(1,0)} over Z6"),
     ("fail", 63, {}, [
         ("module", "Z2+Z3 over Z6"),
         ("mcs", "{1,3}"),
         ("submodule", "{(0,0),(1,0)}"),
         ("t", 3),
         ("detail", "quotient lost the property"),
     ])),
    ("P-PROD", "s_theory.is_s_comultiplication",
     not_s_comultiplication("Z2xZ3 over Z2xZ3"),
     ("fail", 2, {}, [
         ("module", "Z2xZ3 over Z2xZ3"),
         ("mcs", "{(1,1)}"),
         ("whole", False),
         ("parts", True),
     ])),
    ("T-COM", "statements.maximal_ideals", no_maximal_ideals_of_z6,
     ("fail", 10, {}, [
         ("ring", "Z6"),
         ("detail", "prime and maximal ideals differ on this ring"),
     ])),
    ("T-COM", "s_theory.is_comultiplication",
     not_comultiplication(CHOSEN_MODULE),
     ("fail", 15, {}, [
         ("module", "Z2+Z3 over Z6"),
         ("verdicts", [False, True, True, True]),
     ])),
    ("P-PF", "statements._vanishing_colon_ideals",
     no_members_on_the_chosen_module,
     ("fail", 52, {}, [
         ("module", "Z2+Z3 over Z6"),
         ("mcs", "{1}"),
         ("ideal", "{0,1,2,3,4,5}"),
         ("element", 0),
         ("detail", "no s, a with sm = am"),
     ])),
    ("P-PF", "statements.scalar_times_set",
     whole_module_on_the_chosen_module,
     ("fail", 52, {}, [
         ("module", "Z2+Z3 over Z6"),
         ("mcs", "{1}"),
         ("ideal", "{0,1,2,3,4,5}"),
         ("detail", "no s, a with (s+a)M = 0"),
     ])),
    ("T-DU", "statements.first_multiplier",
     no_multiplier_past_the_first_mcs_of_z6,
     ("fail", 12, {}, [
         ("module", "0 over Z6"),
         ("mcs", "{1,3}"),
         ("ideal", "{0}"),
         ("t", 1),
         ("detail", "no s with sM = 0"),
     ])),
    ("C-DU", "statements.zero_colon_set",
     vanishing_colons_on_the_chosen_module,
     ("fail", 6, {}, [
         ("module", "Z2+Z3 over Z6"),
         ("ideal", "{0}"),
         ("detail", "nonzero module with (0:_M I) = 0"),
     ])),
    ("T-TOR", "s_theory.is_s_cyclic", not_s_cyclic_past_the_first_mcs,
     ("fail", 36, {}, [
         ("module", "Z2+Z3 over Z6"),
         ("mcs", "{1,3}"),
         ("detail", "neither S-cyclic nor torsion"),
     ])),
    ("P-CY1", "s_theory.is_s_cyclic",
     not_s_cyclic_past_the_first_mcs_of_any_ring,
     ("fail", 3, {}, [
         ("module", "Z3 over Z3"),
         ("mcs", "{1,2}"),
         ("ideal", "{0,1,2}"),
         ("detail", "module is not S-cyclic"),
     ])),
    ("T-CY2", "s_theory.is_s_cyclic",
     not_s_cyclic_past_the_first_mcs_of_any_ring,
     ("fail", 3, {}, [
         ("module", "Z3 over Z3"),
         ("mcs", "{1,2}"),
         ("detail", "module is not S-cyclic"),
     ])),
    ("T-CY3", "s_theory.is_s_cyclic",
     not_s_cyclic_past_the_first_mcs_of_any_ring,
     ("fail", 3, {}, [
         ("module", "Z3 over Z3"),
         ("mcs", "{1,2}"),
         ("detail", "S-torsion-free module is not S-cyclic"),
     ])),
    ("T-MIN", "s_theory.is_s_minimal", not_s_minimal_on_z2_over_z6,
     ("fail", 10, {}, [
         ("module", "Z2 over Z6"),
         ("mcs", "{1,3}"),
         ("detail", "not S-minimal under the nonzero-L reading"),
     ])),
    ("C-M3", "s_theory.is_second_submodule_set",
     second_flipped_on_the_chosen_module,
     ("fail", 12, {}, [
         ("module", "Z2+Z3 over Z6"),
         ("submodule", "{(0,0),(1,0)}"),
         ("second", False),
         ("prime_annihilator", True),
     ])),
]


@pytest.mark.parametrize("sid, name, forced, expected", FAIL_SITES)
def test_forced_fail_sites_are_pinned(monkeypatch, sid, name, forced,
                                      expected):
    """A library call that a checker reads, broken on one module, ring or
    m.c.s.: the report fails at the pinned instance with the pinned payload,
    its keys in the pinned order.  Each case builds its own catalog, so the
    fault meets a cold catalog memo."""
    catalog = generate_catalog(mutation_catalog_params())
    monkeypatch.setattr("scomult." + name, forced(catalog))
    assert pinned(verify(sid, catalog)) == expected


REVALIDATION_SITES = [
    ("L-EQ", "s-comultiplication-def",
     ("fail", 5, {}, [
         ("module", "Z3 over Z3"),
         ("mcs", "{1,2}"),
         ("detail",
          "witness failed revalidation: s-comultiplication-def(module=Z3"
          " over Z3, n={0}, mcs={1,2}, s=1, ideal={0,1,2})"),
     ])),
    ("T-LOC", "maximal-multiple",
     ("fail", 4, {}, [
         ("module", "Z3 over Z3"),
         ("mcs", "{1,2}"),
         ("detail",
          "witness failed revalidation: maximal-multiple(mcs={1,2}, s=1)"),
     ])),
    ("T-HOM", "s-monic",
     ("fail", 182, {}, [
         ("hom", "Z3->Z3"),
         ("mcs", "{1,2}"),
         ("detail",
          "witness failed revalidation: s-monic(hom=Z3->Z3, mcs={1,2}, s=1)"),
     ])),
    ("T-CY2", "s-finite",
     ("fail", 2, {}, [
         ("module", "Z3 over Z3"),
         ("mcs", "{1,2}"),
         ("detail",
          "witness failed revalidation: s-finite(module=Z3 over Z3,"
          " n={0,1,2}, mcs={1,2}, s=1, generators=(1))"),
     ])),
    ("T-CY3", "s-torsion-free",
     ("fail", 2, {}, [
         ("module", "Z3 over Z3"),
         ("mcs", "{1,2}"),
         ("detail",
          "witness failed revalidation: s-torsion-free(module=Z3 over Z3,"
          " mcs={1,2}, s=1)"),
     ])),
    ("T-MIN", "s-minimal-step",
     ("fail", 3, {}, [
         ("module", "Z3 over Z3"),
         ("mcs", "{1,2}"),
         ("detail",
          "witness failed revalidation: s-minimal-step(module=Z3 over Z3,"
          " k={0,1,2}, l={0,1,2}, mcs={1,2}, s=1)"),
     ])),
    ("P-CY1", "s-cyclic",
     ("fail", 3, {}, [
         ("module", "Z3 over Z3"),
         ("mcs", "{1,2}"),
         ("detail",
          "witness failed revalidation: s-cyclic(module=Z3 over Z3,"
          " mcs={1,2}, s=1, element=1)"),
     ])),
    ("T-TOR", "s-cyclic",
     ("fail", 3, {}, [
         ("module", "Z3 over Z3"),
         ("mcs", "{1,2}"),
         ("detail",
          "witness failed revalidation: s-cyclic(module=Z3 over Z3,"
          " mcs={1,2}, s=1, element=1)"),
     ])),
    ("T-CY2", "s-cyclic",
     ("fail", 3, {}, [
         ("module", "Z3 over Z3"),
         ("mcs", "{1,2}"),
         ("detail",
          "witness failed revalidation: s-cyclic(module=Z3 over Z3,"
          " mcs={1,2}, s=1, element=1)"),
     ])),
    ("T-CY3", "s-cyclic",
     ("fail", 3, {}, [
         ("module", "Z3 over Z3"),
         ("mcs", "{1,2}"),
         ("detail",
          "witness failed revalidation: s-cyclic(module=Z3 over Z3,"
          " mcs={1,2}, s=1, element=1)"),
     ])),
]


@pytest.mark.parametrize("sid, claim, expected", REVALIDATION_SITES)
def test_revalidation_sites_are_pinned(small_catalog, monkeypatch, sid, claim,
                                       expected):
    """The claim's revalidator rejects every witness whose m.c.s. is past the
    first of its ring: the report fails at the first such witness the
    checker consumes, with the pinned payload and key order."""
    real, mcs_at = REVALIDATORS[claim], PARAMETERS[claim].index("mcs")

    def rejects_past_the_first_mcs(*args):
        return (not past_its_first_mcs(small_catalog, args[mcs_at])
                and real(*args))

    monkeypatch.setitem(REVALIDATORS, claim, rejects_past_the_first_mcs)
    assert pinned(verify(sid, small_catalog)) == expected


@pytest.mark.parametrize("sid, closure_checks", [
    ("P-EXT", 160), ("T-M3", 39), ("P-SPR", 0), ("T-SEC", 0)])
def test_closure_checks_of_a_warm_run_are_pinned(monkeypatch, sid,
                                                 closure_checks):
    """Once a first run has filled the library's caches, a run over a cold
    catalog memo makes only the closure checks that no library cache keeps,
    and a run over the warm memo only those that the memo does not keep
    either.  P-EXT builds J = I + ann(N) once per (N, I) of a module on
    every run, T-M3 ann(N) once per N of a module on a cold memo and never
    on a warm one, and the homothety revalidators of P-SPR and T-SEC reach
    their cached family from the element set; a Submodule built per
    (module, m.c.s.) pair again would raise the cold counts (before the
    per-module tables: 710, 155, 208 and 208)."""
    catalog = generate_catalog(mutation_catalog_params())
    verify(sid, catalog)
    catalog._memo.clear()
    calls = []
    real = rings._check_closed

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(rings, "_check_closed", counting)
    assert verify(sid, catalog).verdict == "pass"
    assert len(calls) == closure_checks
    calls.clear()
    assert verify(sid, catalog).verdict == "pass"
    assert len(calls) == WARM_CLOSURE_CHECKS[sid]


WARM_CLOSURE_CHECKS = {"P-EXT": 160, "T-M3": 0, "P-SPR": 0, "T-SEC": 0}


@pytest.mark.parametrize("sid, seam, sets", [
    ("P-FAM", "colon_set_into_module", 209),
    ("T-SSUM", "scalar_times_set", 67),
])
def test_multiplier_sets_of_a_run_are_pinned(monkeypatch, sid, seam, sets):
    """P-FAM computes (N :_M e_S) once per (m.c.s., N) of an S-comultiplication
    pair, T-SSUM e_S N once per (m.c.s., S-second N), on every run, and
    neither makes a `first_multiplier` call.  A call per question would make
    4,157 and 863 of them on every run."""
    built, searches = [], []
    real_seam = getattr(statements, seam)
    real_search = statements.first_multiplier

    def counting_seam(*args):
        built.append(args)
        return real_seam(*args)

    def counting_search(*args):
        searches.append(args)
        return real_search(*args)

    monkeypatch.setattr(statements, seam, counting_seam)
    monkeypatch.setattr(statements, "first_multiplier", counting_search)
    catalog = generate_catalog(mutation_catalog_params())
    for _ in range(2):
        assert verify(sid, catalog).verdict == "pass"
        assert (len(built), len(searches)) == (sets, 0)
        built.clear()


class AskedSet(frozenset):
    """A set that logs, with the (module, m.c.s.) being walked and the set
    it was built from, each subset question asked of it and its answer:
    `x <= self`, P-FAM's target inside (N :_M e_S), and `self <= x`, T-SSUM's
    e_S N inside a summand."""

    def __ge__(self, other):
        answer = frozenset.__ge__(self, other)
        self.log.append((*self.subject, other, answer))
        return answer

    def __le__(self, other):
        answer = frozenset.__le__(self, other)
        self.log.append((*self.subject, other, answer))
        return answer


def test_e_s_questions_answer_like_a_search_over_s(small_catalog, monkeypatch):
    """Every question P-FAM and T-SSUM ask at e_S gets the answer of a search
    over every s of S: a target T lies in (N :_M e_S) iff some s has sT
    inside N, and e_S N lies in a summand P iff some s has sN inside P."""
    walked = []
    monkeypatch.setattr(statements, "_with_module_table", tracking_walk(walked))
    asked = {"P-FAM": [], "T-SSUM": []}
    for sid, seam, position in (("P-FAM", "colon_set_into_module", 1),
                                ("T-SSUM", "scalar_times_set", 2)):
        real = getattr(statements, seam)

        def logging(*args, real=real, position=position, log=asked[sid]):
            out = AskedSet(real(*args))
            out.log, out.subject = log, (*walked, args[position])
            return out

        monkeypatch.setattr(statements, seam, logging)
        assert verify(sid, small_catalog).verdict == "pass"
    assert {sid: len(q) for sid, q in asked.items()} == {
        "P-FAM": 4157, "T-SSUM": 863}
    for module, mcs, n, target, answer in asked["P-FAM"]:
        assert answer == any(scalar_times_set(module, s, target) <= n for s in mcs)
    for module, mcs, n, part, answer in asked["T-SSUM"]:
        assert answer == any(scalar_times_set(module, s, n) <= part for s in mcs)


# ---------------------------------------------------------------------------
# the catalog memo: toolbox-free values only, compact, cold when fresh

# Every evaluator whose values the catalog memo keeps, by module.  The
# bridge core reaches the memo through `_bridge_outcomes`; the T-SSUM table
# holds what `sum_of_sets` gives; `_classes` builds the hom signature and
# e_S class tables; the other module tables are built by the functions
# named here.
MEMOIZED_EVALUATORS = {
    s_theory: ("s_prime_colon_form", "s_prime_homothety_form",
               "s_second_homothety_form", "s_second_containment_form",
               "_transfer_core"),
    statements: ("_bridge_outcomes", "_vanishing_colon_ideals",
                 "_zero_meet_targets", "_nonzero_annihilators", "sum_of_sets",
                 "_classes"),
}
TOOLBOX_NAMES = frozenset(
    ["tb", "Toolbox", *(f.name for f in fields(Toolbox))]) - {"mutated"}


@pytest.fixture(scope="module")
def memo_rounds():
    """One reduced catalog walked twice under the default toolbox and each
    mutant: the calls of each memoized evaluator in the first round and in
    the second, the second round's reports by toolbox, and the catalog."""
    catalog = generate_catalog(mutation_catalog_params())
    calls = Counter()
    rounds, reports = [], {}
    with pytest.MonkeyPatch.context() as patch:
        for module, names in MEMOIZED_EVALUATORS.items():
            for name in names:
                real = getattr(module, name)
                patch.setattr(module, name, counting(calls, name, real))
        for _ in range(2):
            calls.clear()
            for toolbox in [Toolbox(), *map(mutant_toolbox, sorted(MUTANTS))]:
                reports[toolbox.mutated] = verify_all(catalog, toolbox=toolbox)
            rounds.append(Counter(calls))
    return rounds, reports, catalog


def test_a_second_round_evaluates_nothing_the_memo_keeps(memo_rounds):
    (first, second), _, _ = memo_rounds
    assert sorted(first) == sorted(
        name for names in MEMOIZED_EVALUATORS.values() for name in names)
    assert second == Counter()


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_a_warm_catalog_reports_what_a_fresh_one_does(memo_rounds, name):
    """Under each mutant, the reports from a catalog that every toolbox,
    the other four mutants included, has walked equal the reports from a
    fresh catalog: verdict, instances, notes and counterexample."""
    _, reports, _ = memo_rounds
    toolbox = mutant_toolbox(name)
    fresh = verify_all(generate_catalog(mutation_catalog_params()),
                       toolbox=toolbox)
    assert list(map(outcome, reports[(name,)])) == list(map(outcome, fresh))


def test_the_memo_keeps_no_witness_or_result(memo_rounds):
    """The memo holds plain values: after every toolbox has walked the
    catalog twice, nothing reachable from it is a `Witness` or a
    `ForEachResult`, the derived forms are one bytearray per module, and
    each zero-meet family of P-FAM keeps its parts as `bytes` of indices
    into the module's submodules and its targets as `bytes` of indices
    into the module's distinct intersections."""
    _, _, catalog = memo_rounds
    seen, todo = set(), list(catalog._memo.items())
    while todo:
        value = todo.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        assert not isinstance(value, (Witness, s_theory.ForEachResult)), value
        if isinstance(value, dict):
            todo.extend(value.items())
        elif isinstance(value, (tuple, list)):
            todo.extend(value)
    keys = Counter(key[0] for key in catalog._memo)
    assert all(isinstance(catalog._memo[key], bytearray)
               for key in catalog._memo
               if key[0] in (s_theory.SPrimeForms, s_theory.SSecondForms))
    nonzero = len(list(catalog.nonzero_modules()))
    assert keys[s_theory.SPrimeForms] == keys[s_theory.SSecondForms] == nonzero
    families = [value[2] for key, value in catalog._memo.items()
                if key[0] is statements._check_p_fam]
    assert len(families) == keys[statements._check_p_fam] > 0
    assert all(type(parts) is bytes and type(targets) is bytes
               for squeezes in families for parts, targets in squeezes)


def reached_names(functions, todo):
    """The names that the AST nodes in `todo` reach, following every name
    that some function or method of the library bears, in any module."""
    names, todo = set(), list(todo)
    while todo:
        node = todo.pop()
        new = ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
               | {n.attr for n in ast.walk(node)
                  if isinstance(n, ast.Attribute)}) - names
        names |= new
        todo.extend(f for name in new for f in functions.get(name, ()))
    return names


def test_memoized_evaluators_name_no_toolbox_field():
    """No memoized evaluator, nor the build argument of a module table, nor
    a class table with the key it classes by (`_hom_classes`,
    `_e_s_classes`), reaches by any chain of names across the library's
    modules `tb`, `Toolbox` or the name of a `Toolbox` field; a checker that
    takes the toolbox does."""
    functions = defaultdict(list)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef):
                functions[node.name].append(node)
    evaluators = [node for names in MEMOIZED_EVALUATORS.values()
                  for name in names for node in functions[name]]
    assert len(evaluators) == sum(map(len, MEMOIZED_EVALUATORS.values()))
    tree = ast.parse(Path(statements.__file__).read_text(encoding="utf-8"))
    builds = [node.args[3] for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "_with_module_table"]
    assert len(builds) == 4
    class_tables = functions["_hom_classes"] + functions["_e_s_classes"]
    assert len(class_tables) == 2
    assert {"_class_table", "_signature", "idempotent"} <= reached_names(
        functions, class_tables)
    assert sorted(reached_names(functions, evaluators + builds + class_tables)
                  & TOOLBOX_NAMES) == []
    assert "is_s_second" in reached_names(functions, functions["_check_t_m3"])


# ---------------------------------------------------------------------------
# the catalog memo keyed by e_S class

MEMO_CATALOGS = {"default": CatalogParams(), "reduced": mutation_catalog_params()}

# the derived forms of P-SPR and T-SEC by forms record: the submodules the
# checker walks, its direct form and the derived forms in field order
DERIVED_FORMS = {
    s_theory.SPrimeForms: (enumerate_submodules, s_theory.is_s_prime_submodule,
                           ("s_prime_colon_form", "s_prime_homothety_form")),
    s_theory.SSecondForms: (lambda module: [n for n in enumerate_submodules(module)
                                            if not n.is_zero()],
                            s_theory.is_s_second,
                            ("s_second_homothety_form",
                             "s_second_containment_form")),
}

# per catalog, on a cold walk of P-HOMS, T-HOM, P-SPR and T-SEC: the
# entries the bridge core computes, those the transfer core computes, and
# the derived forms evaluated.  One per m.c.s. they were 5,643, 5,643 and
# 4,216 on the default catalog, 1,520, 1,520 and 892 on the reduced one.
COLD_WALK_EVALUATIONS = {"default": (2142, 2142, 1848),
                         "reduced": (758, 758, 484)}


def skips(direct, module, n, mcs):
    """Whether the direct form raises the error its checker counts as a skip."""
    try:
        direct(module, n, mcs)
    except (DisjointnessFailure, PreconditionUnmet):
        return True
    return False


def counting_entries(counts, name, real):
    """`real(f, mcs_list)`, adding len(mcs_list) to counts[name]."""
    def counted(f, mcs_list):
        counts[name] += len(mcs_list)
        return real(f, mcs_list)
    return counted


def walk_memo_statements(catalog):
    for sid in ("P-HOMS", "T-HOM", "P-SPR", "T-SEC"):
        assert verify(sid, catalog).verdict == "pass", sid


@pytest.mark.parametrize("name", sorted(MEMO_CATALOGS))
def test_a_cold_walk_evaluates_once_per_e_s_class(monkeypatch, name):
    """Each core computes one entry per (signature class, e_S class) and
    each derived form runs once per (module, e_S class, N) where the
    definitional form's disjointness holds, not once per m.c.s.  On the
    default catalog 103 m.c.s. fall into 43 e_S classes, on the reduced one
    25 into 13."""
    counts = Counter()
    for module, core in CORES.values():
        monkeypatch.setattr(module, core, counting_entries(
            counts, core, getattr(module, core)))
    for _, _, forms in DERIVED_FORMS.values():
        for form in forms:
            monkeypatch.setattr(s_theory, form, counting(
                counts, "forms", getattr(s_theory, form)))
    catalog = generate_catalog(MEMO_CATALOGS[name])
    walk_memo_statements(catalog)
    classes = {ring: len(_e_s_classes(catalog, ring)[1]) for ring in catalog.rings}
    assert (sum(len(catalog.mcs[ring]) for ring in catalog.rings),
            sum(classes.values())) == {"default": (103, 43),
                                       "reduced": (25, 13)}[name]
    entries = sum(len(_hom_classes(catalog, ring)[1]) * classes[ring]
                  for ring in catalog.rings)
    assert entries == COLD_WALK_EVALUATIONS[name][0]
    assert (counts["_bridge_core"], counts["_transfer_core"], counts["forms"]) == (
        COLD_WALK_EVALUATIONS[name])


@pytest.mark.parametrize("name", sorted(MEMO_CATALOGS))
def test_the_class_keyed_memo_agrees_with_per_mcs_evaluation(name):
    """After a walk, the memo gives every (hom, m.c.s.) the bridge and
    transfer core values that the core gives for that m.c.s. alone, and
    every (module, N, m.c.s.) the byte of each derived form that the form
    gives at that m.c.s.: 1 for None, 2 for a witness, and 0 where the
    definitional form's disjointness fails, which it does for a whole e_S
    class or not at all."""
    catalog = generate_catalog(MEMO_CATALOGS[name])
    walk_memo_statements(catalog)
    for evaluate in (_bridge_outcomes, _transfer_core):
        assert all(None not in catalog._memo[evaluate, ring][0]
                   for ring in catalog.rings)
        pairs = 0
        for f, mcs, value in grouped_outcomes(catalog, evaluate):
            pairs += 1
            assert value == evaluate(f, (mcs,))[0], (f.describe(), mcs.describe())
        assert pairs == {"default": 19603, "reduced": 5784}[name]
    bytes_read = Counter()
    for record, (submodules, direct, forms) in DERIVED_FORMS.items():
        forms = [getattr(s_theory, form) for form in forms]
        for module in catalog.nonzero_modules():
            table = catalog._memo[record, module]
            subs = submodules(module)
            class_of, _ = _e_s_classes(catalog, module.ring)
            for mcs, c in zip(catalog.mcs[module.ring], class_of):
                for i, n in enumerate(subs):
                    skipped = skips(direct, module, n, mcs)
                    for j, form in enumerate(forms):
                        code = table[(c * len(subs) + i) * len(forms) + j]
                        bytes_read[code] += 1
                        assert code == (0 if skipped else 1 if s_theory._guard(
                            lambda: form(module, n, mcs)) is None else 2), (
                            form.__name__, module.describe(), mcs.describe(), n)
    assert bytes_read[1] and bytes_read[2]


def revalidated(monkeypatch, sid, catalog):
    """Every witness that one run of `sid` revalidates, in order."""
    seen = []
    real = Witness.validate

    def recording(witness):
        seen.append(witness)
        return real(witness)

    with monkeypatch.context() as patch:
        patch.setattr(Witness, "validate", recording)
        assert verify(sid, catalog).verdict == "pass"
    return seen


def bundle_witnesses(sid, catalog):
    """The witnesses of the library's bundles over the statement's instances,
    in the order its checker revalidates them; a form that gave none has
    nothing to revalidate."""
    out = []
    for module, mcs in catalog.module_mcs_pairs():
        if sid == "L-EQ":
            bundle = s_theory.lemma_equivalence_bundle(module, mcs)
            out.extend(w for form in bundle for _, w in form.witnesses)
            continue
        if sid == "P-SPR":
            subs = enumerate_submodules(module)
            forms = s_theory.s_prime_characterizations
        else:
            subs = [n for n in enumerate_submodules(module) if not n.is_zero()]
            forms = s_theory.s_second_characterizations
        for n in subs:
            try:
                out.extend(w for w in forms(module, n, mcs) if w is not None)
            except (DisjointnessFailure, PreconditionUnmet):
                pass
    return out


@pytest.mark.parametrize("sid", ["L-EQ", "P-SPR", "T-SEC"])
def test_witnesses_made_from_the_memo_equal_the_bundles(monkeypatch, sid):
    """P-SPR and T-SEC make their derived witnesses by search on a cold run
    and from the memo on a warm one; L-EQ, which keeps nothing in the memo,
    calls `lemma_equivalence_bundle` on both.  Both runs revalidate the same
    witnesses, in the same order, as the library's bundles give."""
    catalog = generate_catalog(mutation_catalog_params())
    cold = revalidated(monkeypatch, sid, catalog)
    warm = revalidated(monkeypatch, sid, catalog)
    assert cold == warm == bundle_witnesses(sid, catalog)
    assert len(warm) > 100

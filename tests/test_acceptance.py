"""Acceptance gate: one test per criterion, each printing a verdict line.

Derived expectations are pinned from the independent oracles in conftest
(raw subset filters), never from the enumeration paths they check.
"""

import hashlib
import json
import time
from pathlib import Path

import pytest

from scomult.catalog import CatalogParams, generate_catalog
from scomult.errors import DisjointnessFailure, PreconditionUnmet
from scomult.localization import localize_ring
from scomult.modules import (
    direct_sum_module,
    enumerate_submodules,
    ideal_times_module_set,
    self_module,
    zero_colon_set,
)
from scomult.mutations import KILLS, MUTANTS, mutation_catalog_params
from scomult.rings import (
    enumerate_ideals,
    has_maximal_multiple,
    make_ring_table,
    make_ring_zn,
    saturation,
    unit_mcs,
    validate_mcs,
)
from scomult.s_theory import (
    is_comultiplication,
    is_cyclic,
    is_multiplication,
    is_prime_submodule_set,
    is_s_comultiplication,
    is_s_cyclic,
    is_s_finite,
    is_s_multiplication,
    is_s_prime_submodule,
    is_s_second,
    is_s_torsion_free,
    is_second_submodule_set,
    uniform_multiple,
)
from scomult.statements import verify_all

from conftest import brute_force_ideals, brute_force_submodules
from test_rings import F4_ADD, F4_MUL


@pytest.fixture(scope="module")
def catalog():
    return generate_catalog()


@pytest.fixture(scope="module")
def suite(catalog):
    start = time.perf_counter()
    reports = verify_all(catalog)
    elapsed = time.perf_counter() - start
    return reports, elapsed


def test_criterion_1_full_suite(suite):
    reports, elapsed = suite
    fails = [r.statement_id for r in reports if r.verdict == "fail"]
    nonvacuous = [r for r in reports if r.verdict != "vacuous"]
    assert len(reports) == 26
    assert not fails
    assert len(nonvacuous) >= 20
    assert elapsed <= 300.0
    print(f"criterion-1 PASS: 26 statements, 0 fail, "
          f"{len(nonvacuous)} non-vacuous, {elapsed:.1f}s")


def test_criterion_2_lemma_equivalence(suite, catalog):
    reports, _ = suite
    report = next(r for r in reports if r.statement_id == "L-EQ")
    pair_count = sum(1 for _ in catalog.module_mcs_pairs())
    assert report.verdict == "pass"
    assert report.instances == pair_count
    print(f"criterion-2 PASS: verdict triples equal on all "
          f"{report.instances} (module, S) instances")


def test_criterion_3_oracle_equivalence(catalog):
    rings_checked = 0
    for ring in catalog.rings:
        if ring.order > 8:
            continue
        assert [i.elements for i in enumerate_ideals(ring)] == \
            brute_force_ideals(ring)
        rings_checked += 1
    f4 = make_ring_table(F4_ADD, F4_MUL, 0, 1)
    assert [i.elements for i in enumerate_ideals(f4)] == brute_force_ideals(f4)
    modules_checked = 0
    for ring in catalog.rings:
        for module in catalog.modules[ring]:
            if module.size > 16:
                continue
            assert [n.elements for n in enumerate_submodules(module)] == \
                brute_force_submodules(module)
            modules_checked += 1
    print(f"criterion-3 PASS: enumeration matches brute force on "
          f"{rings_checked + 1} rings and {modules_checked} modules")


def test_criterion_4_known_instance_pins():
    for n in range(2, 31):
        assert is_comultiplication(self_module(make_ring_zn([n])))
    z2 = make_ring_zn([2])
    plane = direct_sum_module(z2, [2, 2])
    assert not is_comultiplication(plane)
    # oracle for the multiplication verdict: scan every ideal image IM
    full = frozenset(plane.elements())
    images = {ideal_times_module_set(plane, i.elements, full)
              for i in enumerate_ideals(z2)}
    oracle_multiplication = all(
        n.elements in images for n in enumerate_submodules(plane))
    assert oracle_multiplication is False
    assert is_multiplication(plane) is oracle_multiplication
    z6 = make_ring_zn([6])
    assert saturation(validate_mcs(z6, {1, 3})).members() == [1, 3, 5]
    assert localize_ring(z6, validate_mcs(z6, {1, 3})).ring.order == 2
    print("criterion-4 PASS: Z_n self comultiplication for n=2..30; the plane "
          "over F2 is not comultiplication and (per the ideal-image oracle) "
          "not multiplication either; saturation and localization pins exact")


def test_criterion_5_reduction_laws(catalog):
    checked = 0
    for ring in catalog.rings:
        one = unit_mcs(ring)
        for module in catalog.modules[ring]:
            if module.is_zero_module:
                continue
            assert is_s_comultiplication(module, one).holds == \
                is_comultiplication(module)
            assert is_s_multiplication(module, one).holds == \
                is_multiplication(module)
            assert (is_s_cyclic(module, one) is not None) == is_cyclic(module)
            for p in enumerate_submodules(module):
                try:
                    s_prime = is_s_prime_submodule(module, p, one) is not None
                except DisjointnessFailure:
                    assert p.is_full()
                    continue
                assert s_prime == is_prime_submodule_set(module, p.elements)
            for n in enumerate_submodules(module):
                if n.is_zero():
                    continue
                try:
                    s_second = is_s_second(module, n, one) is not None
                except DisjointnessFailure:
                    continue
                assert s_second == is_second_submodule_set(module, n.elements)
            checked += 1
    print(f"criterion-5 PASS: S={{1}} collapses to the classical predicates "
          f"on {checked} modules")


def test_criterion_6_dual_nakayama(suite):
    reports, _ = suite
    tdu = next(r for r in reports if r.statement_id == "T-DU")
    cdu = next(r for r in reports if r.statement_id == "C-DU")
    assert tdu.verdict == "pass" and tdu.instances >= 1
    assert cdu.verdict == "pass" and cdu.instances >= 1
    print(f"criterion-6 PASS: T-DU {tdu.instances} instances, "
          f"C-DU {cdu.instances} instances, zero counterexamples")


def test_criterion_7_mutation_sensitivity(mutation_outcomes):
    outcomes = mutation_outcomes
    assert len(outcomes) == len(MUTANTS) == 5
    for name, failed in outcomes:
        assert failed, f"mutant {name} escaped"
    print("criterion-7 PASS: all 5 mutants make at least one statement fail: "
          + "; ".join(f"{name} -> {','.join(failed)}" for name, failed in outcomes))


def test_criterion_8_witness_revalidation(catalog):
    seen = 0
    for module, mcs in catalog.module_mcs_pairs():
        witnesses = []
        result = is_s_comultiplication(module, mcs)
        witnesses.extend(w for _, w in result.witnesses)
        for candidate in (is_s_cyclic(module, mcs),
                          is_s_torsion_free(module, mcs),
                          has_maximal_multiple(mcs)):
            if candidate is not None:
                witnesses.append(candidate)
        for n in enumerate_submodules(module):
            witnesses.append(uniform_multiple(module, n, mcs))
            try:
                w = is_s_prime_submodule(module, n, mcs)
            except DisjointnessFailure:
                w = None
            if w is not None:
                witnesses.append(w)
            try:
                w = is_s_second(module, n, mcs)
            except (DisjointnessFailure, PreconditionUnmet):
                w = None
            if w is not None:
                witnesses.append(w)
            witnesses.append(is_s_finite(module, n, mcs))
        for w in witnesses:
            assert w.validate(), w.describe()
        seen += len(witnesses)
    assert seen > 1000
    print(f"criterion-8 PASS: {seen} emitted witnesses re-validated, 100%")


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json"


def workload_params(params):
    """`CatalogParams` from a catalog of the benchmark's workloads file,
    its moduli lists read as tuples, as the benchmark's worker reads them."""
    return CatalogParams(**{**params, "product_moduli": tuple(
        map(tuple, params["product_moduli"]))})


def test_reports_match_the_benchmark_pins(suite, mutation_run):
    """Every (verdict, instances) that the benchmark pins in its workloads
    file, read and left as it is: the default catalog, the reduced one, and
    the reduced one under each mutant, whose failed statements are its kills
    there and in `mutations.KILLS`.  The benchmark scores a mismatch as a
    failed operation."""
    spec = json.loads(WORKLOADS.read_text())
    catalogs, mutants = spec["catalogs"], spec["mutants"]
    assert workload_params(catalogs["default"]["params"]) == CatalogParams()
    assert (workload_params(catalogs["reduced"]["params"])
            == mutation_catalog_params())
    outcomes, reports = mutation_run

    def pinned(reports):
        return {r.statement_id: [r.verdict, r.instances] for r in reports}

    assert pinned(suite[0]) == catalogs["default"]["expected"]
    assert pinned(reports["default"]) == catalogs["reduced"]["expected"]
    assert sorted(mutants) == sorted(MUTANTS)
    for name, failed in outcomes:
        assert pinned(reports[name]) == mutants[name]["expected"], name
        assert failed == mutants[name]["kills"] == list(KILLS[name]), name


# SHA-256 of each run's statement reports, the same under PYTHONHASHSEED 1
# and 7: the default catalog, the reduced one, and the reduced one under
# each mutant
REPORT_DIGESTS = {
    "default": "01c5a77af95de546840ae9350016eb3d1af6e6b9c28fd4c73bf79f022f31b6c3",
    "reduced": "be96595791ca19242e2cb3eababd43f53212452724d4ccb651293a4334b1cb5f",
    "lemma_pair_direction_flip":
        "a0352f1ec0f36283ef341706b5553e79cd6165fc4c9e972c16550436975686b8",
    "localization_drop_ufactor":
        "3b39eb0ce294d298fab15e33d6bd0626748e72d7bf27df92c5bdd840f4ab131b",
    "s_prime_quantifier_swap":
        "5b253a60175e8f4fec465acd38477580fa537f2a654b23acb103af6aa06d47c1",
    "s_second_drop_disjointness":
        "35fde585d5e3f426348ebf6fbe2a1f362fb815c0c49fc2cbc5589f3bcdc62b14",
    "tm3_drop_uniform_clause":
        "8661e0fb5146aba88b7db011bde79734a20b826650cf23e4ad6a5437083f6450",
}


def report_digest(reports):
    """SHA-256 of the reports' JSON documents, in order, each without `ms`."""
    documents = [{key: value for key, value in r.to_json().items() if key != "ms"}
                 for r in reports]
    return hashlib.sha256(json.dumps(documents).encode()).hexdigest()


def test_every_report_document_is_pinned(suite, mutation_run):
    """Each statement's whole report (verdict, instances, notes and
    counterexample) on both catalogs and under every mutant."""
    _, reports = mutation_run
    runs = {"default": suite[0], "reduced": reports["default"],
            **{name: reports[name] for name in MUTANTS}}
    assert {name: report_digest(r) for name, r in runs.items()} == REPORT_DIGESTS

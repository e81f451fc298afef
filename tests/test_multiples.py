"""x*N is a table: one tuple of x*N for every ring element x per (module or
ring, subset N) on each side of the search/revalidation split.

The searches and checkers read the search table (`modules._scalar_multiples`,
through `scalar_times_set` and `first_multiplier`), the revalidators only
the revalidation table (`s_theory._revalidation_multiples`).  The oracle
here is the definition, x*N = {x*m : m in N}, built element by element with
`act`.
"""

import gc

from scomult import rings
from scomult import s_theory as st
from scomult.catalog import generate_catalog
from scomult.modules import _scalar_multiples
from scomult.mutations import mutation_catalog_params
from scomult.statements import verify, verify_all
from test_imports import run_fresh

SIDES = ("_multiples", "_revalidation_multiples")


def filled_tables():
    """(side, table object, subset, tuple) for every entry of every table
    that some live ring or module holds."""
    return [(side, obj, subset, multiples)
            for obj in gc.get_objects() if isinstance(obj, rings._Table)
            for side in SIDES if getattr(obj, side)
            for subset, multiples in getattr(obj, side).items()]


def test_both_tables_hold_the_elementwise_multiples():
    """After `verify_all` on the reduced catalog, every entry of either
    table, rings acting on themselves included, holds at each ring element
    x the set {x*m : m in N} and is indexed by every ring element; equal
    images are one shared object."""
    catalog = generate_catalog(mutation_catalog_params())
    assert {r.verdict for r in verify_all(catalog)} == {"pass", "vacuous"}
    seen = {(side, type(obj).__name__) for side, obj, _, _ in filled_tables()}
    assert seen >= {("_multiples", "Module"), ("_multiples", "Ring"),
                    ("_revalidation_multiples", "Module")}
    images = 0
    for side, obj, subset, multiples in filled_tables():
        assert len(multiples) == obj.ring.size, (side, obj, subset)
        for x, image in enumerate(multiples):
            assert image == frozenset(obj.act(x, m) for m in subset), (
                side, obj, subset, x)
            assert rings._POOL[image] is image
            images += 1
    assert images > 0


# After a fresh default `generate_catalog()` and `verify_all`: per side and
# kind of table object, (objects with a table, subsets, images).  Before
# the tables, the same run built x*N 44,646 times, once per
# `scalar_times_set` call.
DEFAULT_RUN_TABLES = [
    ["_multiples", "Module", 132, 498, 3577],
    ["_multiples", "Ring", 17, 68, 547],
    ["_revalidation_multiples", "Module", 66, 366, 2463],
]


def test_a_default_run_fills_each_table_once_per_subset():
    out = run_fresh("""
        import gc
        from scomult import generate_catalog, rings
        from scomult.statements import verify_all

        catalog = generate_catalog()
        assert {r.verdict for r in verify_all(catalog)} == {"pass"}
        counts = {}
        for obj in gc.get_objects():
            if isinstance(obj, rings._Table):
                for side in ("_multiples", "_revalidation_multiples"):
                    table = getattr(obj, side)
                    if table:
                        row = counts.setdefault((side, type(obj).__name__),
                                                [0, 0, 0])
                        row[0] += 1
                        row[1] += len(table)
                        row[2] += sum(map(len, table.values()))
        print(sorted([*key, *row] for key, row in counts.items()))
    """)
    assert out.strip() == str(DEFAULT_RUN_TABLES)


def test_revalidation_does_not_read_the_search_table():
    """With the search table's entry for the whole of Z2+Z2 over Z2
    corrupted to x*M = 0 for every x, the searches find S = {1} making M
    S-comultiplication and S-minimal; T-MIN revalidates the step witnesses
    from the revalidation table and rejects the first.  The caches keyed by
    module are cleared before and after, so the tampered verdicts reach no
    other catalog, and the entry is put back."""
    st.is_s_comultiplication.cache_clear()
    catalog = generate_catalog(mutation_catalog_params())
    assert verify("T-MIN", catalog).verdict == "pass"
    module = next(m for ring in catalog.rings for m in catalog.modules[ring]
                  if m.describe() == "Z2+Z2 over Z2")
    full = module.carrier
    honest = _scalar_multiples(module, full)
    st.is_s_comultiplication.cache_clear()
    try:
        module._multiples[full] = tuple(frozenset((0,)) for _ in honest)
        report = verify("T-MIN", catalog)
    finally:
        module._multiples[full] = honest
        st.is_s_comultiplication.cache_clear()
    assert report.verdict == "fail"
    assert report.counterexample["detail"] == (
        "witness failed revalidation: s-minimal-step(module=Z2+Z2 over Z2, "
        "k={(0,0),(0,1),(1,0),(1,1)}, l={(0,0),(0,1)}, mcs={1}, s=1)")
    assert st._revalidation_multiples(module, full) == honest

"""Instance-file parsing, errors, and round-tripping."""

import pytest

from scomult.errors import InstanceParseError
from scomult.instancefile import (
    parse_instance,
    serialize_instance,
)
from scomult.modules import self_module, zn_over_zk
from scomult.rings import make_ring_zn, validate_mcs

Z6_TEXT = """
# a comment
[ring]
kind = zn_product
moduli = 6

[module m]
kind = self

[mcs s13]
elements = 1 3

[submodule evens]
module = m
generators = 2

[hom double]
source = m
target = m
values = 0 2 4 0 2 4
"""


def test_parse_basic():
    instance = parse_instance(Z6_TEXT)
    assert instance.ring == make_ring_zn([6])
    assert instance.modules["m"] == self_module(make_ring_zn([6]))
    assert instance.mcs["s13"].members() == [1, 3]
    _, evens = instance.submodules["evens"]
    assert evens.members() == [0, 2, 4]
    assert instance.homs["double"].values == (0, 2, 4, 0, 2, 4)


def test_parse_table_ring_and_module():
    text = """
[ring]
kind = table
add = 0 1 / 1 0
mul = 0 0 / 0 1
zero = 0
one = 1

[module q]
kind = table
add = 0 1 / 1 0
action = 0 0 / 0 1
"""
    instance = parse_instance(text)
    assert instance.ring.order == 2
    assert instance.modules["q"].size == 2


def test_parse_errors_carry_line_numbers():
    with pytest.raises(InstanceParseError) as err:
        parse_instance("stray = 1\n")
    assert err.value.line_no == 1
    with pytest.raises(InstanceParseError) as err:
        parse_instance("[ring]\nkind = zn_product\nmoduli = 6\nmoduli = 4\n")
    assert err.value.line_no == 4
    with pytest.raises(InstanceParseError) as err:
        parse_instance("[module m]\nkind = self\n")
    assert err.value.line_no == 1       # file must begin with [ring]
    with pytest.raises(InstanceParseError) as err:
        parse_instance(Z6_TEXT + "\n[mcs bad]\nelements = 1 2\n")
    assert "not closed" in str(err.value)


def test_unknown_references():
    with pytest.raises(InstanceParseError):
        parse_instance("[ring]\nkind = zn_product\nmoduli = 6\n"
                       "[submodule n]\nmodule = ghost\nelements = 0\n")
    with pytest.raises(InstanceParseError):
        parse_instance("[ring]\nkind = zn_product\nmoduli = 6\n"
                       "[module m]\nkind = bogus\n")


def test_round_trip_zn():
    instance = parse_instance(Z6_TEXT)
    text = serialize_instance(
        instance.ring, instance.modules, instance.mcs,
        instance.submodules, instance.homs)
    again = parse_instance(text)
    assert again.ring == instance.ring
    assert again.modules == instance.modules
    assert {k: v.elements for k, v in again.mcs.items()} == \
        {k: v.elements for k, v in instance.mcs.items()}
    assert again.homs["double"].values == instance.homs["double"].values


def test_round_trip_whole_catalog():
    """Every catalog member survives serialization regardless of its kind."""
    from scomult.catalog import generate_catalog

    catalog = generate_catalog()
    for ring in catalog.rings:
        modules = {f"m{i}": m for i, m in enumerate(catalog.modules[ring])}
        mcs = {f"s{i}": s for i, s in enumerate(catalog.mcs[ring])}
        homs = {f"f{i}": f for i, f in enumerate(catalog.homs[ring][:3])}
        named = dict(modules)
        for name, f in homs.items():
            for hom_end in (f.source, f.target):
                if hom_end not in named.values():
                    named[f"aux{len(named)}"] = hom_end
        text = serialize_instance(ring, named, mcs, homs=homs)
        again = parse_instance(text)
        assert again.ring == ring
        for name, module in named.items():
            assert again.modules[name] == module
        for name, s in mcs.items():
            assert again.mcs[name].elements == s.elements
        for name, f in homs.items():
            assert again.homs[name].values == f.values


def test_round_trip_quotient_as_table(m6):
    from scomult.modules import quotient_module, submodule_from_set

    quotient = quotient_module(m6, submodule_from_set(m6, {0, 3}))
    text = serialize_instance(m6.ring, {"q": quotient})
    again = parse_instance(text)
    assert again.modules["q"] == quotient


Z2_TABLE_TEXT = """[ring]
kind = table
add = 0 1 / 1 0
mul = 0 0 / 0 1
zero = 0
one = 1
[module m]
kind = self
"""


@pytest.mark.parametrize("block", [
    "[module t]\nkind = table\nadd = 0 1 / 1 5\naction = 0 0 / 0 1\n",
    "[mcs s]\nelements = 1 9\n",
    "[submodule n]\nmodule = m\ngenerators = 7\n",
    "[submodule n]\nmodule = m\nelements = 0 1 -1\n",
])
def test_out_of_range_indices_are_parse_errors(block):
    with pytest.raises(InstanceParseError) as err:
        parse_instance(Z2_TABLE_TEXT + block)
    assert err.value.line_no == 9               # the block's header line
    assert "out of range" in str(err.value)


@pytest.mark.parametrize("old, new", [("zero = 0", "zero = 9"), ("one = 1", "one = 7")])
def test_out_of_range_ring_constants_are_parse_errors(old, new):
    with pytest.raises(InstanceParseError) as err:
        parse_instance(Z2_TABLE_TEXT.replace(old, new))
    assert err.value.line_no == 1
    assert "out of range" in str(err.value)


Z6_QUOTIENT_TEXT = """[ring]
kind = zn_product
moduli = 6
[module q]
kind = zn_over_zk
d = 2
"""


@pytest.mark.parametrize("old, new, line_no", [
    ("zero = 0", "zero =", 5),
    ("zero = 0", "zero = 0 1", 5),
    ("one = 1", "one =", 6),
    ("one = 1", "one = 1 0", 6),
    ("d = 2", "d =", 6),
    ("d = 2", "d = 2 3", 6),
])
def test_single_value_keys_take_exactly_one_integer(old, new, line_no):
    text = Z6_QUOTIENT_TEXT if old.startswith("d ") else Z2_TABLE_TEXT
    with pytest.raises(InstanceParseError) as err:
        parse_instance(text.replace(old, new))
    assert err.value.line_no == line_no
    assert "exactly one integer" in str(err.value)

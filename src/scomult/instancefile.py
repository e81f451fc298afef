"""Line-oriented instance files: rings, modules, m.c.s., submodules, homs.

The format is keyed text in named sections.  `#` starts a comment, blank
lines are ignored, and element values are canonical indices (for a Z_n
ring the index is the residue; for products it is the mixed-radix code of
the residue tuple, documented in the README grammar).  Multi-row tables
separate rows with `/`.  Parse failures carry the offending line number.

    [ring]
    kind = zn_product
    moduli = 6

    [module m]
    kind = self

    [mcs s]
    elements = 1 3

    [submodule n]
    module = m
    generators = 2

    [hom f]
    source = m
    target = m
    values = 0 2 4 0 2 4
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InstanceParseError, ScomultError
from .modules import (
    direct_sum_module,
    make_module,
    self_module,
    submodule_closure,
    submodule_from_set,
    zero_module,
    zn_over_zk,
)
from .morphisms import make_hom
from .rings import Ring, make_ring_table, make_ring_zn, validate_mcs


@dataclass
class ParsedInstance:
    ring: Ring
    modules: dict = field(default_factory=dict)
    mcs: dict = field(default_factory=dict)
    submodules: dict = field(default_factory=dict)
    homs: dict = field(default_factory=dict)


def _split_sections(text):
    sections = []
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise InstanceParseError(line_no, "unterminated section header")
            header = line[1:-1].strip().split()
            if not header:
                raise InstanceParseError(line_no, "empty section header")
            kind = header[0]
            name = header[1] if len(header) > 1 else None
            current = (kind, name, line_no, {})
            sections.append(current)
            continue
        if current is None:
            raise InstanceParseError(line_no, "key outside any section")
        if "=" not in line:
            raise InstanceParseError(line_no, "expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in current[3]:
            raise InstanceParseError(line_no, f"duplicate key {key!r}")
        current[3][key] = (value, line_no)
    return sections


def _ints(value, line_no):
    try:
        return [int(tok) for tok in value.split()]
    except ValueError:
        raise InstanceParseError(line_no, f"expected integers, got {value!r}")


def _rows(value, line_no):
    return [_ints(part, line_no) for part in value.split("/")]


def _take(fields, key, line_no, required=True):
    if key not in fields:
        if required:
            raise InstanceParseError(line_no, f"missing key {key!r}")
        return None, line_no
    return fields[key]


def _parse_ring(fields, line_no):
    kind, kind_line = _take(fields, "kind", line_no)
    if kind == "zn_product":
        moduli, mod_line = _take(fields, "moduli", line_no)
        return make_ring_zn(_ints(moduli, mod_line))
    if kind == "table":
        add, add_line = _take(fields, "add", line_no)
        mul, mul_line = _take(fields, "mul", line_no)
        zero, zero_line = _take(fields, "zero", line_no)
        one, one_line = _take(fields, "one", line_no)
        return make_ring_table(
            _rows(add, add_line), _rows(mul, mul_line),
            _ints(zero, zero_line)[0], _ints(one, one_line)[0],
        )
    raise InstanceParseError(kind_line, f"unknown ring kind {kind!r}")


def _parse_module(ring, fields, line_no):
    kind, kind_line = _take(fields, "kind", line_no)
    if kind == "self":
        return self_module(ring)
    if kind == "zero":
        return zero_module(ring)
    if kind == "zn_over_zk":
        d, d_line = _take(fields, "d", line_no)
        return zn_over_zk(ring, _ints(d, d_line)[0])
    if kind == "direct_sum":
        moduli, mod_line = _take(fields, "moduli", line_no)
        return direct_sum_module(ring, _ints(moduli, mod_line))
    if kind == "table":
        add, add_line = _take(fields, "add", line_no)
        action, act_line = _take(fields, "action", line_no)
        return make_module(ring, _rows(add, add_line), _rows(action, act_line))
    raise InstanceParseError(kind_line, f"unknown module kind {kind!r}")


def parse_instance(text):
    """Parse instance text into validated domain objects."""
    sections = _split_sections(text)
    if not sections or sections[0][0] != "ring":
        line = sections[0][2] if sections else 1
        raise InstanceParseError(line, "instance file must start with [ring]")
    instance = None
    for kind, name, line_no, fields in sections:
        try:
            if kind == "ring":
                if instance is not None:
                    raise InstanceParseError(line_no, "only one [ring] allowed")
                instance = ParsedInstance(_parse_ring(fields, line_no))
            elif kind == "module":
                key = name or f"m{len(instance.modules) + 1}"
                instance.modules[key] = _parse_module(instance.ring, fields, line_no)
            elif kind == "mcs":
                elements, el_line = _take(fields, "elements", line_no)
                key = name or f"s{len(instance.mcs) + 1}"
                instance.mcs[key] = validate_mcs(instance.ring,
                                                 _ints(elements, el_line))
            elif kind == "submodule":
                module_name, mod_line = _take(fields, "module", line_no)
                if module_name not in instance.modules:
                    raise InstanceParseError(mod_line,
                                             f"unknown module {module_name!r}")
                module = instance.modules[module_name]
                key = name or f"n{len(instance.submodules) + 1}"
                if "elements" in fields:
                    elements, el_line = fields["elements"]
                    sub = submodule_from_set(module, _ints(elements, el_line))
                else:
                    gens, gen_line = _take(fields, "generators", line_no)
                    sub = submodule_closure(module, _ints(gens, gen_line))
                instance.submodules[key] = (module_name, sub)
            elif kind == "hom":
                source_name, src_line = _take(fields, "source", line_no)
                target_name, tgt_line = _take(fields, "target", line_no)
                values, val_line = _take(fields, "values", line_no)
                for nm, ln in ((source_name, src_line), (target_name, tgt_line)):
                    if nm not in instance.modules:
                        raise InstanceParseError(ln, f"unknown module {nm!r}")
                key = name or f"f{len(instance.homs) + 1}"
                instance.homs[key] = make_hom(
                    instance.modules[source_name], instance.modules[target_name],
                    _ints(values, val_line),
                )
            else:
                raise InstanceParseError(line_no, f"unknown section kind {kind!r}")
        except InstanceParseError:
            raise
        except ScomultError as err:
            raise InstanceParseError(line_no, str(err))
    return instance


def parse_instance_file(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_instance(handle.read())


# ---------------------------------------------------------------------------
# serialization


def _render_rows(rows):
    return " / ".join(" ".join(str(v) for v in row) for row in rows)


def serialize_ring(ring):
    lines = ["[ring]"]
    if ring.moduli is not None:
        lines.append("kind = zn_product")
        lines.append("moduli = " + " ".join(str(n) for n in ring.moduli))
    else:
        lines.append("kind = table")
        lines.append("add = " + _render_rows(ring._add_rows))
        lines.append("mul = " + _render_rows(ring._act_rows))
        lines.append(f"zero = {ring.zero}")
        lines.append(f"one = {ring.one}")
    return lines


def serialize_module(name, module):
    lines = [f"[module {name}]"]
    if module.kind == "self":
        lines.append("kind = self")
    elif module.kind == "zero":
        lines.append("kind = zero")
    elif module.kind == "zn_over_zk":
        lines.append("kind = zn_over_zk")
        lines.append(f"d = {module.moduli[0]}")
    elif module.kind == "direct_sum":
        lines.append("kind = direct_sum")
        lines.append("moduli = " + " ".join(str(d) for d in module.moduli))
    else:
        lines.append("kind = table")
        lines.append("add = " + _render_rows(module._add_rows))
        lines.append("action = " + _render_rows(module._act_rows))
    return lines


def serialize_instance(ring, modules=None, mcs=None, submodules=None, homs=None):
    """Render domain objects back into instance-file text."""
    lines = serialize_ring(ring)
    for name, module in (modules or {}).items():
        lines.append("")
        lines.extend(serialize_module(name, module))
    for name, s in (mcs or {}).items():
        lines.append("")
        lines.append(f"[mcs {name}]")
        lines.append("elements = " + " ".join(str(x) for x in s.members()))
    for name, (module_name, sub) in (submodules or {}).items():
        lines.append("")
        lines.append(f"[submodule {name}]")
        lines.append(f"module = {module_name}")
        lines.append("elements = " + " ".join(str(x) for x in sub.members()))
    def module_name(module):
        for key, candidate in (modules or {}).items():
            if candidate == module:
                return key
        raise ScomultError(f"hom endpoint {module.describe()} has no named module")

    for name, f in (homs or {}).items():
        lines.append("")
        lines.append(f"[hom {name}]")
        lines.append(f"source = {module_name(f.source)}")
        lines.append(f"target = {module_name(f.target)}")
        lines.append("values = " + " ".join(str(v) for v in f.values))
    return "\n".join(lines) + "\n"

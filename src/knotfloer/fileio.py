"""Complex files: a small JSON format.

Top-level fields: `name` (string), `generators` (list of {id, grw, grz}),
`differential` (list of {from, to, u, v}), each entry one monomial term;
duplicate (from, to, u, v) quadruples are an error. Ids are strings and
gradings and exponents exact integers. The optional `iota` field has the
same entry shape and is interpreted as a skew-equivariant involution
candidate; it must pass the skew chain-map checks.

Loading reports each violation with entry context. The reader checks
fields, ids, exponents, duplicates and homogeneity in one pass over each
list: the first malformed entry (not an object, a missing or mistyped
field, an unknown id, a negative exponent, a quadruple given twice) is
named at once; inhomogeneous entries are reported together after the
pass, unless a generator id repeats, which is reported instead. Then
`load_complex` checks the rest: Alexander parity, d^2 = 0, d iota = iota d.
Saving writes exactly the bytes of `json.dump(obj, indent=1,
sort_keys=True)` plus a newline: ASCII, with `\\u` escapes, and entries
in (from, to) label order, so save(load(f)) is byte-stable. The writer
formats the fixed-shape entries itself because `indent` forces `json`
onto its pure-Python encoder; `tests/oracle_io.py` keeps the `json.dump`
writer as the reference.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import List, NoReturn, Optional, Tuple

from .complexes import BigradedComplex, ChainMap, SkewMap, chain_violation
from .errors import FileFormatError, ValidationError


def _field(entry: dict, ctx: str, key: str, kind):
    """entry[key], which must be a str (kind str) or an exact int (kind int)."""
    try:
        value = entry[key]
    except KeyError:
        raise FileFormatError(f"{ctx}: missing field {key!r}") from None
    if type(value) is not kind:  # bool is not int here, and 1.0 is not 1
        name = "a string" if kind is str else "an integer"
        raise FileFormatError(f"{ctx}: field {key!r} must be {name}, got {value!r}")
    return value


def _fields(entry, ctx: str, spec) -> list:
    """The values of an entry's fields, checked in order; names the first fault."""
    if not isinstance(entry, dict):
        raise FileFormatError(f"{ctx}: expected an object")
    return [_field(entry, ctx, key, kind) for key, kind in spec]


_GENERATOR_FIELDS = (("id", str), ("grw", int), ("grz", int))
_TERM_FIELDS = (("from", str), ("to", str), ("u", int), ("v", int))


def _parse_generators(raw) -> List[Tuple[str, int, int]]:
    """The (id, grw, grz) row of each generator entry, checked."""
    if not isinstance(raw, list) or not raw:
        raise FileFormatError("'generators' must be a nonempty list")
    rows = []
    for k, g in enumerate(raw):
        try:
            n, w, z = g["id"], g["grw"], g["grz"]
            ok = type(n) is str and type(w) is int and type(z) is int
        except (KeyError, TypeError):  # not an object or a missing field
            ok = False
        if not ok:
            n, w, z = _fields(g, f"generator entry #{k}", _GENERATOR_FIELDS)
        rows.append((n, w, z))
    return rows


def _name_fault(entry, ctx: str, index) -> NoReturn:
    """Raise the error of a faulty term entry.

    In order: not an object, a missing or mistyped field, an unknown id,
    a negative exponent; an entry with none of these repeats an earlier one.
    """
    src, tgt, u, v = _fields(entry, ctx, _TERM_FIELDS)
    for key, name in (("from", src), ("to", tgt)):
        if name not in index:
            raise FileFormatError(f"{ctx}: unknown generator {name!r} in {key!r}")
    for key, value in (("u", u), ("v", v)):
        if value < 0:
            raise FileFormatError(f"{ctx}: field {key!r} must be nonnegative, got {value}")
    raise FileFormatError(f"{ctx}: duplicate term {(src, tgt, u, v)}")


def _read_columns(raw, kind: str, f: ChainMap) -> Tuple[int, ...]:
    """The columns of f, read from a list of file entries in one pass.

    Faults take precedence as the module docstring says. A homogeneous
    entry sets its column bit, so a second hit on it repeats a quadruple.
    """
    if not isinstance(raw, list):
        raise FileFormatError(f"'{kind}' must be a list")
    index = f.source.index
    bw, bz = f.bases
    tw, tz = f.target.grw, f.target.grz
    cols = [0] * len(f.source)  # not len(index): repeated ids shrink it
    bad = {}  # inhomogeneous (from, to, u, v) -> (i, j), in entry order
    for k, entry in enumerate(raw):
        try:
            u, v = entry["u"], entry["v"]
            # An id that is not a string is no key of index.
            i, j = index[entry["from"]], index[entry["to"]]
        except (KeyError, TypeError):  # not an object, a missing field or an unknown id
            _name_fault(entry, f"{kind} entry #{k}", index)
        if type(u) is not int or type(v) is not int or u < 0 or v < 0:
            _name_fault(entry, f"{kind} entry #{k}", index)
        if tw[j] - bw[i] == 2 * u and tz[j] - bz[i] == 2 * v:
            bit = 1 << j
            if cols[i] & bit:
                _name_fault(entry, f"{kind} entry #{k}", index)
            cols[i] |= bit
        else:
            quad = (entry["from"], entry["to"], u, v)
            if quad in bad:
                _name_fault(entry, f"{kind} entry #{k}", index)
            bad[quad] = (i, j)
    if len(index) < len(cols):
        raise ValidationError(f"duplicate generator id {f.source.repeated_label()!r}")
    if bad:
        raise ValidationError([f.problem(i, j, u, v) for (_, _, u, v), (i, j) in bad.items()])
    return tuple(cols)


def load_complex(path: str) -> Tuple[BigradedComplex, Optional[SkewMap]]:
    """Load and fully validate a complex file; returns (complex, iota?)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path} is not well-formed JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path} is not UTF-8 text: {exc}") from None
    except RecursionError:
        raise FileFormatError(f"{path} nests arrays or objects too deeply to read") from None
    if not isinstance(data, dict):
        raise FileFormatError("top level must be an object")
    labels, grw, grz = zip(*_parse_generators(data.get("generators")))
    shape = BigradedComplex(labels, grw, grz, [0] * len(labels))
    try:
        cols = _read_columns(data.get("differential", []), "differential", shape.d)
        complex_ = BigradedComplex(labels, grw, grz, cols)
        complex_.illegal_terms = ()  # the reader matched each entry with its implied exponents
        complex_.require_valid()
    except ValidationError as exc:
        raise FileFormatError(
            f"{path}: complex fails validation: {'; '.join(exc.violations)}"
        ) from None
    iota = None
    if "iota" in data:
        try:
            iota = SkewMap(complex_, _read_columns(data["iota"], "iota", SkewMap(complex_, ())))
        except ValidationError as exc:
            raise FileFormatError(f"{path}: iota rejected: {'; '.join(exc.violations)}") from None
        violation = chain_violation(iota)
        if violation is not None:
            raise FileFormatError(f"{path}: iota rejected: {violation}")
    return complex_, iota


# A generator entry as `json.dump(indent=1, sort_keys=True)` lays it out; term entries alike.
_GENERATOR = '  {\n   "grw": %d,\n   "grz": %d,\n   "id": %s\n  }'


def _block(key: str, entries: List[str]) -> str:
    if not entries:
        return f' "{key}": []'
    return f' "{key}": [\n' + ",\n".join(entries) + "\n ]"


def _term_entries(f: ChainMap, heads: List[str], quoted: List[str], order: List[int], rank: List[int]) -> List[str]:
    """The entries of f, sorted by (from, to) label; labels are distinct. heads[i] opens one from i."""
    bw, bz = f.bases
    tw, tz = f.target.grw, f.target.grz
    cols = f.cols
    out = []
    for i in order:
        col, head, w, z = cols[i], heads[i], bw[i], bz[i]
        if col & (col - 1):  # two or more targets, put in label order
            targets = []
            while col:
                top = col.bit_length() - 1
                targets.append(top)
                col ^= 1 << top
            targets.sort(key=rank.__getitem__)
        else:
            targets = (col.bit_length() - 1,) if col else ()
        for j in targets:
            out.append(f'{head}{quoted[j]},\n   "u": {(tw[j] - w) // 2},\n   "v": {(tz[j] - z) // 2}\n  }}')
    return out


def _format_complex(complex_: BigradedComplex, name: str, iota: Optional[SkewMap]) -> str:
    labels = complex_.labels
    quoted = list(map(encode_basestring_ascii, labels))
    order = sorted(range(len(labels)), key=labels.__getitem__)
    rank = [0] * len(labels)
    for position, i in enumerate(order):
        rank[i] = position
    heads = [f'  {{\n   "from": {q},\n   "to": ' for q in quoted]
    blocks = [
        _block("differential", _term_entries(complex_.d, heads, quoted, order, rank)),
        _block("generators", list(map(_GENERATOR.__mod__, zip(complex_.grw, complex_.grz, quoted)))),
    ]
    if iota is not None:
        blocks.append(_block("iota", _term_entries(iota, heads, quoted, order, rank)))
    blocks.append(' "name": ' + encode_basestring_ascii(name))
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def save_complex(
    complex_: BigradedComplex,
    path: str,
    name: str = "",
    iota: Optional[SkewMap] = None,
) -> None:
    """Write a complex (and iota) in canonical order; labels must be distinct.

    Nothing is written, and a file already at `path` is left as it was,
    when the complex or the name cannot be saved.
    """
    dup = complex_.repeated_label()
    if dup is not None:
        raise ValidationError(f"cannot save: generator label {dup!r} is repeated")
    if not isinstance(name, str):
        raise ValidationError(f"cannot save: name must be a string, got {name!r}")
    if iota is not None and iota.source.labels != complex_.labels:
        raise ValidationError("cannot save: iota is a map on another complex")
    text = _format_complex(complex_, name, iota)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)

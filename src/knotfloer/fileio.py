"""Complex files: a small JSON format.

Top-level fields: `name` (string), `generators` (list of {id, grw, grz}),
`differential` (list of {from, to, u, v}), each entry one monomial term;
duplicate (from, to, u, v) quadruples are an error. Ids are strings and
gradings and exponents exact integers. The optional `iota` field has the
same entry shape and is interpreted as a skew-equivariant involution
candidate; it must pass the skew chain-map checks.

Loading validates everything and reports violations with entry context.
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
from typing import List, Optional, Tuple

from .complexes import BigradedComplex, ChainMap, SkewMap, Term, columns_from_terms, verify_chain_map
from .errors import FileFormatError, ValidationError
from .linalg import iter_bits


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


def _parse_generators(raw) -> List[Tuple[str, int, int]]:
    """The (id, grw, grz) row of each generator entry, checked."""
    if not isinstance(raw, list) or not raw:
        raise FileFormatError("'generators' must be a nonempty list")
    try:
        rows = [(g["id"], g["grw"], g["grz"]) for g in raw]
    except (KeyError, TypeError):  # an entry that is not an object or lacks a field
        rows = None
    if rows is not None and all(
        type(n) is str and type(w) is int and type(z) is int for n, w, z in rows
    ):
        return rows
    # Some entry is faulty: check them in order and name the first.
    rows = []
    for idx, g in enumerate(raw):
        ctx = f"generator entry #{idx}"
        if not isinstance(g, dict):
            raise FileFormatError(f"{ctx}: expected an object")
        rows.append((_field(g, ctx, "id", str), _field(g, ctx, "grw", int), _field(g, ctx, "grz", int)))
    return rows


def _entry_columns(raw, f: ChainMap) -> Optional[List[int]]:
    """The columns of f, read from a list of file entries in one pass.

    Checks each entry as the checked path does (types, signs, ids,
    homogeneity, a (from, to) pair given twice) but returns None at the
    first anomaly instead of naming it. A pair given twice is a duplicate
    term or an inhomogeneous one, since the gradings fix its exponents.
    """
    if not isinstance(raw, list):
        return None
    index = f.source.index
    bw, bz = f.bases
    tw, tz = f.target.grw, f.target.grz
    cols = [0] * len(index)
    try:
        for entry in raw:
            u, v = entry["u"], entry["v"]
            if type(u) is not int or type(v) is not int or u < 0 or v < 0:
                return None
            # A non-string id is no key of index, so the lookup fails.
            i, j = index[entry["from"]], index[entry["to"]]
            bit = 1 << j
            if tw[j] - bw[i] != 2 * u or tz[j] - bz[i] != 2 * v or cols[i] & bit:
                return None
            cols[i] |= bit
    except (KeyError, TypeError):  # not an object, a missing field or an unknown id
        return None
    return cols


def _parse_entries(raw, kind: str, names) -> List[Term]:
    """The (from, to, u, v) term of each entry; names the first faulty one."""
    if not isinstance(raw, list):
        raise FileFormatError(f"'{kind}' must be a list")
    seen = set()
    out: List[Term] = []
    for idx, entry in enumerate(raw):
        ctx = f"{kind} entry #{idx}"
        if not isinstance(entry, dict):
            raise FileFormatError(f"{ctx}: expected an object")
        src, tgt = _field(entry, ctx, "from", str), _field(entry, ctx, "to", str)
        u, v = _field(entry, ctx, "u", int), _field(entry, ctx, "v", int)
        if src not in names:
            raise FileFormatError(f"{ctx}: unknown generator {src!r} in 'from'")
        if tgt not in names:
            raise FileFormatError(f"{ctx}: unknown generator {tgt!r} in 'to'")
        for key, value in (("u", u), ("v", v)):
            if value < 0:
                raise FileFormatError(f"{ctx}: field {key!r} must be nonnegative, got {value}")
        quad = (src, tgt, u, v)
        if quad in seen:
            raise FileFormatError(f"{ctx}: duplicate term {quad}")
        seen.add(quad)
        out.append(quad)
    return out


def _read_columns(raw, kind: str, f: ChainMap, names) -> Tuple[int, ...]:
    """The columns of f from a list of file entries.

    One pass reads them; at its first anomaly the checked path,
    `_parse_entries` and then the homogeneity check of `from_terms`,
    reads the list again and names the fault.
    """
    cols = _entry_columns(raw, f)
    if cols is None:
        return columns_from_terms(f, _parse_entries(raw, kind, names))
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
    gens = _parse_generators(data.get("generators"))
    names = {row[0] for row in gens}
    raw = data.get("differential", [])
    complex_ = BigradedComplex(*zip(*gens), [0] * len(gens))
    try:
        if len(names) == len(gens):
            complex_.cols = _read_columns(raw, "differential", complex_.d, names)
        else:  # from_terms names the repeated id, after any faulty entry
            BigradedComplex.from_terms(gens, _parse_entries(raw, "differential", names))
        complex_.require_valid()
    except ValidationError as exc:
        raise FileFormatError(
            f"{path}: complex fails validation: {'; '.join(exc.violations)}"
        ) from None
    iota = None
    if "iota" in data:
        try:
            iota = SkewMap(complex_, _read_columns(data["iota"], "iota", SkewMap(complex_, ()), names))
        except ValidationError as exc:
            raise FileFormatError(f"{path}: iota rejected: {'; '.join(exc.violations)}") from None
        violation = verify_chain_map(iota)
        if violation is not None:
            raise FileFormatError(f"{path}: iota rejected: {violation}")
    return complex_, iota


# One entry of each list as `json.dump(indent=1, sort_keys=True)` lays it out.
_GENERATOR = '  {\n   "grw": %d,\n   "grz": %d,\n   "id": %s\n  }'
_TERM = '  {\n   "from": %s,\n   "to": %s,\n   "u": %d,\n   "v": %d\n  }'


def _block(key: str, entries: List[str]) -> str:
    if not entries:
        return f' "{key}": []'
    return f' "{key}": [\n' + ",\n".join(entries) + "\n ]"


def _term_entries(f: ChainMap, quoted: List[str], order: List[int], rank: List[int]) -> List[str]:
    """The entries of f, sorted by (from, to) label; labels are distinct."""
    bw, bz = f.bases
    tw, tz = f.target.grw, f.target.grz
    cols = f.cols
    return [
        _TERM % (quoted[i], quoted[j], (tw[j] - bw[i]) // 2, (tz[j] - bz[i]) // 2)
        for i in order
        for j in sorted(iter_bits(cols[i]), key=rank.__getitem__)
    ]


def _format_complex(complex_: BigradedComplex, name: str, iota: Optional[SkewMap]) -> str:
    labels = complex_.labels
    quoted = list(map(encode_basestring_ascii, labels))
    order = sorted(range(len(labels)), key=labels.__getitem__)
    rank = [0] * len(labels)
    for position, i in enumerate(order):
        rank[i] = position
    blocks = [
        _block("differential", _term_entries(complex_.d, quoted, order, rank)),
        _block("generators", list(map(_GENERATOR.__mod__, zip(complex_.grw, complex_.grz, quoted)))),
    ]
    if iota is not None:
        blocks.append(_block("iota", _term_entries(iota, quoted, order, rank)))
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

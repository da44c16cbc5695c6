"""Complex files: a small JSON format, written as gradings and target lists.

Format 2, the one `save_complex` writes, stores a complex the way
`BigradedComplex` holds it. Top-level fields: `format` (the integer 2),
`name` (string), `id` (the n generator ids, distinct strings), `grw` and
`grz` (n exact integers each), `differential` (n lists: differential[i]
lists the indices j of the generators y_j in d(x_i)) and the optional
`iota` (the same shape: the columns of a skew-equivariant involution
candidate). Exponents are not stored, since homogeneity fixes them:
U^u V^v y in d(x) has 2u = grw(y) - grw(x) + 1 and
2v = grz(y) - grz(x) + 1, and in iota(x) 2u = grw(y) - grz(x) and
2v = grz(y) - grw(x). The reader checks only the file: the shape of
each list, the exact type of each element (a bool or a float is not an
integer), the index ranges, repeated targets and repeated ids, and names
the first fault by path, field and generator. It sorts each target list in
place and builds the complex and iota with those lists as their `targets`
(`BigradedComplex.targets`, `ChainMap.targets`), so no later check
walks the bits of the columns. Then `require_valid` checks the complex
and `verify_chain_map` checks iota, both over those lists, by the one
homogeneity rule of `ChainMap.illegal_entries`. Any other `format` value is an error.

Format 1 is every file without a `format` field. It is still read,
never written. `generators` is a list of {id, grw, grz} and
`differential` a list of {from, to, u, v}, each entry one monomial term;
duplicate (from, to, u, v) quadruples are an error. The optional `iota`
has the same entry shape. A front end reads each list in one pass into
one target list per generator. It checks each entry in this order, and
names the first fault at once: not an object, a missing or mistyped
field, an unknown id, a negative exponent, a quadruple given twice.
Then it compares the stated exponents with those the gradings imply.
The entries that differ are reported together after the pass, unless a
generator id repeats, which is reported instead. The lists then
go through the format-2 reader above, so one builder makes the complex
of either format.

Saving writes exactly the bytes of `json.dumps(obj, sort_keys=True)`
plus a newline: one line, ASCII with `\\u` escapes, and the target lists
of `BigradedComplex.targets` and `ChainMap.targets`, in ascending index
order, so save(load(f)) is byte-stable even when the file's lists are
not sorted. Without `indent`, `json` runs its C encoder.
"""

from __future__ import annotations

import json
from typing import List, Optional, Tuple

from .complexes import BigradedComplex, ChainMap, SkewMap, verify_chain_map
from .errors import FileFormatError, ValidationError

FORMAT = 2  # the layout `save_complex` writes


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


# --- format 2: gradings and target lists ------------------------------------


def _only(values, kind) -> bool:
    """Whether every element of a list has exactly type kind."""
    return set(map(type, values)) <= {kind}


def _at(key: str, k: int, labels: List[str]) -> str:
    """Where a format-2 fault is: the field and the generator."""
    return f"{key} of generator #{k} {labels[k]!r}"


def _gradings(data: dict, key: str, labels: List[str]) -> List[int]:
    """The list data[key] of one exact integer per generator."""
    raw = data.get(key)
    if type(raw) is not list or len(raw) != len(labels):
        raise FileFormatError(f"field {key!r} must be a list of {len(labels)} integers, one per id")
    if not _only(raw, int):
        k = next(k for k, value in enumerate(raw) if type(value) is not int)
        raise FileFormatError(f"{_at(key, k, labels)}: must be an integer, got {raw[k]!r}")
    return raw


def _ids(data: dict) -> List[str]:
    """The list of distinct generator ids."""
    raw = data.get("id")
    if type(raw) is not list or not raw:
        raise FileFormatError("field 'id' must be a nonempty list of strings")
    if not _only(raw, str):
        k = next(k for k, value in enumerate(raw) if type(value) is not str)
        raise FileFormatError(f"id of generator #{k}: must be a string, got {raw[k]!r}")
    if len(set(raw)) < len(raw):
        first = {}
        for k, name in enumerate(raw):
            if name in first:
                raise FileFormatError(f"{_at('id', k, raw)}: repeats generator #{first[name]}")
            first[name] = k
    return raw


def _read_targets(raw, key: str, labels: List[str]) -> Tuple[List[int], Tuple[List[int], ...]]:
    """The bitmask columns and the sorted target lists of n target lists.

    Each list is checked and sorted in place, and the first fault of
    type, range or repetition is raised.
    """
    n = len(labels)
    if type(raw) is not list or len(raw) != n:
        raise FileFormatError(f"field {key!r} must be a list of {n} target lists, one per id")
    cols = []
    for i, targets in enumerate(raw):
        if type(targets) is not list:
            raise FileFormatError(f"{_at(key, i, labels)}: expected a list of target indices, got {targets!r}")
        col = 0
        for j in targets:
            if type(j) is not int:  # bool is not int here, and 1.0 is not 1
                raise FileFormatError(f"{_at(key, i, labels)}: target must be an integer, got {j!r}")
            if not 0 <= j < n:
                raise FileFormatError(f"{_at(key, i, labels)}: target {j} is not a generator index (0..{n - 1})")
            bit = 1 << j
            if col & bit:
                raise FileFormatError(f"{_at(key, i, labels)}: target {j} is repeated")
            col |= bit
        targets.sort()
        cols.append(col)
    return cols, tuple(raw)


# --- format 1: one object per term, read into target lists ------------------


_GENERATOR_FIELDS = (("id", str), ("grw", int), ("grz", int))
_TERM_FIELDS = (("from", str), ("to", str), ("u", int), ("v", int))


def _parse_generators(raw) -> List[list]:
    """The (id, grw, grz) row of each generator entry, checked."""
    if not isinstance(raw, list) or not raw:
        raise FileFormatError("'generators' must be a nonempty list")
    return [_fields(g, f"generator entry #{k}", _GENERATOR_FIELDS) for k, g in enumerate(raw)]


def _entry_targets(raw, kind: str, f: ChainMap) -> List[List[int]]:
    """The target lists of f, read from a list of format-1 entries in one pass.

    Each entry is checked in the order of the module docstring, and its
    first fault is raised. An entry whose stated exponents are not those
    its gradings imply stays out of the lists; after the pass a repeated
    generator id is raised, and then all such entries together. So every
    listed entry has the natural exponents it states, and
    `ChainMap.illegal_entries` never fires on these lists.
    """
    if not isinstance(raw, list):
        raise FileFormatError(f"'{kind}' must be a list")
    index = f.source.index
    bw, bz = f.bases
    tw, tz = f.target.grw, f.target.grz
    lists = [[] for _ in f.source.labels]  # not len(index): repeated ids shrink it
    seen, bad = set(), []
    for k, entry in enumerate(raw):
        ctx = f"{kind} entry #{k}"
        quad = src, tgt, u, v = tuple(_fields(entry, ctx, _TERM_FIELDS))
        for key, name in (("from", src), ("to", tgt)):
            if name not in index:
                raise FileFormatError(f"{ctx}: unknown generator {name!r} in {key!r}")
        for key, value in (("u", u), ("v", v)):
            if value < 0:
                raise FileFormatError(f"{ctx}: field {key!r} must be nonnegative, got {value}")
        if quad in seen:
            raise FileFormatError(f"{ctx}: duplicate term {quad}")
        seen.add(quad)
        i, j = index[src], index[tgt]
        if tw[j] - bw[i] == 2 * u and tz[j] - bz[i] == 2 * v:
            lists[i].append(j)
        else:
            bad.append((i, j, u, v))
    if len(index) < len(lists):
        raise ValidationError(f"duplicate generator id {f.source.repeated_label()!r}")
    if bad:
        raise ValidationError([f.problem(*entry) for entry in bad])
    return lists


# --- loading and saving -------------------------------------------------------


def _file_complex(data: dict, columnar: bool) -> BigradedComplex:
    """The complex of a file of either format, before `require_valid`."""
    if columnar:
        labels = _ids(data)
        grw, grz = _gradings(data, "grw", labels), _gradings(data, "grz", labels)
        raw = data.get("differential")
    else:
        labels, grw, grz = zip(*_parse_generators(data.get("generators")))
        shape = BigradedComplex(labels, grw, grz, [0] * len(labels))
        raw = _entry_targets(data.get("differential", []), "differential", shape.d)
    return BigradedComplex(labels, grw, grz, *_read_targets(raw, "differential", labels))


def load_complex(path: str) -> Tuple[BigradedComplex, Optional[SkewMap]]:
    """Load and fully validate a complex file of either format; returns (complex, iota?)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise FileFormatError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path} is not well-formed JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path} is not UTF-8 text: {exc}") from None
    except RecursionError:
        raise FileFormatError(f"{path} nests arrays or objects too deeply to read") from None
    except ValueError as exc:  # after its subclasses above: a path with a null byte, or an integer too long to convert
        raise FileFormatError(f"{path!r}: cannot read: {exc}") from None
    try:
        if not isinstance(data, dict):
            raise FileFormatError("top level must be an object")
        columnar = "format" in data
        if columnar and (type(data["format"]) is not int or data["format"] != FORMAT):
            raise FileFormatError(
                f"field 'format' must be {FORMAT}, or absent in a format-1 file, got {data['format']!r}"
            )
        try:
            complex_ = _file_complex(data, columnar)
            complex_.require_valid()
        except ValidationError as exc:
            raise FileFormatError(f"complex fails validation: {'; '.join(exc.violations)}") from None
        iota = None
        if "iota" in data:
            try:
                raw = data["iota"] if columnar else _entry_targets(data["iota"], "iota", SkewMap(complex_, ()))
            except ValidationError as exc:
                raise FileFormatError(f"iota rejected: {'; '.join(exc.violations)}") from None
            iota = SkewMap(complex_, *_read_targets(raw, "iota", complex_.labels))
            violation = verify_chain_map(iota)
            if violation is not None:
                raise FileFormatError(f"iota rejected: {violation}")
        return complex_, iota
    except FileFormatError as exc:
        raise FileFormatError(f"{path}: {exc}") from None


def save_complex(
    complex_: BigradedComplex,
    path: str,
    name: str = "",
    iota: Optional[SkewMap] = None,
) -> None:
    """Write a complex (and iota) in format 2; labels must be distinct.

    Nothing is written, and a file already at `path` is left as it was,
    when the complex or the name cannot be saved, or iota is not a map on
    the complex (`SkewMap.is_on`), as the loader requires.
    """
    if len(set(complex_.labels)) < len(complex_):
        raise ValidationError(f"cannot save: generator label {complex_.repeated_label()!r} is repeated")
    if not isinstance(name, str):
        raise ValidationError(f"cannot save: name must be a string, got {name!r}")
    if iota is not None and not iota.is_on(complex_):
        raise ValidationError("cannot save: iota is a map on another complex")
    data = {
        "format": FORMAT,
        "name": name,
        "id": complex_.labels,
        "grw": complex_.grw,
        "grz": complex_.grz,
        "differential": complex_.targets,
    }
    if iota is not None:
        data["iota"] = iota.targets
    text = json.dumps(data, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)

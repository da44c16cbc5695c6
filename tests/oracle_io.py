"""Reference complex-file readers and writers, oracles for `fileio`.

`load_complex_checked` reads a format-1 file the slow way: it checks
every generator entry, then turns every term entry into a checked
(from, to, u, v) quadruple, and only then builds the complex with
`oracle_terms.from_terms`, which names a repeated id before any
inhomogeneous term. The program's loader, whose format-1 front end
codes the stated-exponent check itself, must give the same complex or
the same error in one pass over each list.

`load_columns_checked` reads a format-2 file by translating it into a
format-1 object, each target given the exponents its gradings imply
(rounded down when they are not integers), and handing that to the
same checks. So a format-2 file must be accepted exactly when its
translation is, and give the same complex.

`save_complex_json` writes format 1 with `json.dump(indent=1,
sort_keys=True)`; the program no longer writes format 1, and the tests
use these files to drive its format-1 reader. `save_complex_columns`
writes format 2 from `oracle_terms.terms`; the program builds the same bytes
straight from its columns.
"""

import json

from knotfloer.complexes import verify_chain_map
from knotfloer.errors import FileFormatError, ValidationError

from oracle_terms import from_terms, skew_from_terms, terms


def _field(entry, ctx, key, kind):
    try:
        value = entry[key]
    except KeyError:
        raise FileFormatError(f"{ctx}: missing field {key!r}") from None
    if type(value) is not kind:
        name = "a string" if kind is str else "an integer"
        raise FileFormatError(f"{ctx}: field {key!r} must be {name}, got {value!r}")
    return value


def parse_generators_checked(raw):
    if not isinstance(raw, list) or not raw:
        raise FileFormatError("'generators' must be a nonempty list")
    rows = []
    for idx, g in enumerate(raw):
        ctx = f"generator entry #{idx}"
        if not isinstance(g, dict):
            raise FileFormatError(f"{ctx}: expected an object")
        rows.append((_field(g, ctx, "id", str), _field(g, ctx, "grw", int), _field(g, ctx, "grz", int)))
    return rows


def parse_entries_checked(raw, kind, names):
    """The (from, to, u, v) term of each entry; names the first faulty one."""
    if not isinstance(raw, list):
        raise FileFormatError(f"'{kind}' must be a list")
    seen = set()
    out = []
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


def _read_json(path):
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
    return data


def _in_file(path, read):
    """read(data) of the parsed file at path, each fault after parsing prefixed by the path."""
    data = _read_json(path)
    try:
        if not isinstance(data, dict):
            raise FileFormatError("top level must be an object")
        return read(data)
    except FileFormatError as exc:
        raise FileFormatError(f"{path}: {exc}") from None


def load_complex_checked(path):
    return _in_file(path, _load_entries)


def _load_entries(data):
    gens = parse_generators_checked(data.get("generators"))
    names = {row[0] for row in gens}
    try:
        terms = parse_entries_checked(data.get("differential", []), "differential", names)
        complex_ = from_terms(gens, terms).require_valid()
    except ValidationError as exc:
        raise FileFormatError(f"complex fails validation: {'; '.join(exc.violations)}") from None
    iota = None
    if "iota" in data:
        try:
            iota = skew_from_terms(complex_, parse_entries_checked(data["iota"], "iota", names))
        except ValidationError as exc:
            raise FileFormatError(f"iota rejected: {'; '.join(exc.violations)}") from None
        violation = verify_chain_map(iota)
        if violation is not None:
            raise FileFormatError(f"iota rejected: {violation}")
    return complex_, iota


def _exact_ints(raw, n):
    return isinstance(raw, list) and len(raw) == n and all(type(x) is int for x in raw)


def _entries(raw, n, exponents):
    """The format-1 entries of n target lists; exponents(i, j) gives (u, v)."""
    if not isinstance(raw, list) or len(raw) != n:
        raise FileFormatError("target lists do not match the ids")
    out = []
    for i, targets in enumerate(raw):
        if not isinstance(targets, list):
            raise FileFormatError(f"generator #{i}: target list is not a list")
        for j in targets:
            if type(j) is not int or not 0 <= j < n:
                raise FileFormatError(f"generator #{i}: target {j!r} is no generator index")
            out.append((i, j, *exponents(i, j)))
    return out


def load_columns_checked(path):
    return _in_file(path, _load_columns)


def _load_columns(data):
    if data.get("format") != 2 or type(data.get("format")) is not int:
        raise FileFormatError("not a format-2 file")
    ids, grw, grz = data.get("id"), data.get("grw"), data.get("grz")
    if not isinstance(ids, list) or not ids or not all(type(x) is str for x in ids):
        raise FileFormatError("ids are not a nonempty list of strings")
    n = len(ids)
    if not _exact_ints(grw, n) or not _exact_ints(grz, n):
        raise FileFormatError("gradings do not match the ids")

    def as_terms(entries):
        return [{"from": ids[i], "to": ids[j], "u": u, "v": v} for i, j, u, v in entries]

    translated = {
        "generators": [{"id": name, "grw": w, "grz": z} for name, w, z in zip(ids, grw, grz)],
        "differential": as_terms(
            _entries(data.get("differential"), n, lambda i, j: ((grw[j] - grw[i] + 1) // 2, (grz[j] - grz[i] + 1) // 2))
        ),
    }
    if "iota" in data:
        translated["iota"] = as_terms(
            _entries(data["iota"], n, lambda i, j: ((grw[j] - grz[i]) // 2, (grz[j] - grw[i]) // 2))
        )
    return _load_entries(translated)


def save_complex_json(complex_, path, name="", iota=None):
    dup = complex_.repeated_label()
    if dup is not None:
        raise ValidationError(f"cannot save: generator label {dup!r} is repeated")

    def entry_list(terms):
        return [{"from": s, "to": t, "u": u, "v": v} for s, t, u, v in sorted(terms)]

    data = {
        "name": name,
        "generators": [{"id": g.name, "grw": g.grw, "grz": g.grz} for g in complex_.gens],
        "differential": entry_list(terms(complex_)),
    }
    if iota is not None:
        data["iota"] = entry_list(terms(iota))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")


def save_complex_columns(complex_, path, name="", iota=None):
    dup = complex_.repeated_label()
    if dup is not None:
        raise ValidationError(f"cannot save: generator label {dup!r} is repeated")
    index = complex_.index

    def target_lists(terms):
        lists = [[] for _ in complex_.labels]
        for src, tgt, _u, _v in terms:
            lists[index[src]].append(index[tgt])
        return [sorted(targets) for targets in lists]

    data = {
        "format": 2,
        "name": name,
        "id": [g.name for g in complex_.gens],
        "grw": [g.grw for g in complex_.gens],
        "grz": [g.grz for g in complex_.gens],
        "differential": target_lists(terms(complex_)),
    }
    if iota is not None:
        data["iota"] = target_lists(terms(iota))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(data, sort_keys=True) + "\n")

"""Reference complex-file reader and writer, oracles for `fileio`.

`load_complex_checked` reads a file the slow way: it checks every
generator entry, then turns every term entry into a checked
(from, to, u, v) quadruple, and only then builds the complex with
`from_terms`, which names a repeated id before any inhomogeneous term.
The program's loader must give the same complex or the same error in
one pass over each list.

`save_complex_json` builds the file as a dict and hands it to
`json.dump(indent=1, sort_keys=True)`; the program formats the same
bytes itself.
"""

import json

from knotfloer.complexes import BigradedComplex, SkewMap, verify_chain_map
from knotfloer.errors import FileFormatError, ValidationError


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


def load_complex_checked(path):
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
    gens = parse_generators_checked(data.get("generators"))
    names = {row[0] for row in gens}
    try:
        terms = parse_entries_checked(data.get("differential", []), "differential", names)
        complex_ = BigradedComplex.from_terms(gens, terms).require_valid()
    except ValidationError as exc:
        raise FileFormatError(
            f"{path}: complex fails validation: {'; '.join(exc.violations)}"
        ) from None
    iota = None
    if "iota" in data:
        try:
            iota = SkewMap.from_terms(complex_, parse_entries_checked(data["iota"], "iota", names))
        except ValidationError as exc:
            raise FileFormatError(f"{path}: iota rejected: {'; '.join(exc.violations)}") from None
        violation = verify_chain_map(iota)
        if violation is not None:
            raise FileFormatError(f"{path}: iota rejected: {violation}")
    return complex_, iota


def save_complex_json(complex_, path, name="", iota=None):
    dup = complex_.repeated_label()
    if dup is not None:
        raise ValidationError(f"cannot save: generator label {dup!r} is repeated")

    def entry_list(terms):
        return [{"from": s, "to": t, "u": u, "v": v} for s, t, u, v in sorted(terms)]

    data = {
        "name": name,
        "generators": [{"id": g.name, "grw": g.grw, "grz": g.grz} for g in complex_.gens],
        "differential": entry_list(complex_.terms()),
    }
    if iota is not None:
        data["iota"] = entry_list(iota.terms())
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")

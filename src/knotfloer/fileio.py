"""Complex files: a small JSON format.

Top-level fields: `name` (string), `generators` (list of {id, grw, grz}),
`differential` (list of {from, to, u, v}), each entry one monomial term;
duplicate (from, to, u, v) quadruples are an error. Ids are strings and
gradings and exponents exact integers. The optional `iota` field has the
same entry shape and is interpreted as a skew-equivariant involution
candidate; it must pass the skew chain-map checks.

Loading validates everything and reports violations with entry context;
saving canonicalizes ordering so that save(load(f)) is byte-stable.
"""

from __future__ import annotations

import json
from typing import List, Optional, Tuple

from .complexes import BigradedComplex, Generator, SkewMap, Term, verify_chain_map
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


def _parse_entries(raw, kind: str, names) -> List[Term]:
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


def load_complex(path: str) -> Tuple[BigradedComplex, Optional[SkewMap]]:
    """Load and fully validate a complex file; returns (complex, iota?)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path} is not well-formed JSON: {exc}") from None
    if not isinstance(data, dict):
        raise FileFormatError("top level must be an object")
    gens_raw = data.get("generators")
    if not isinstance(gens_raw, list) or not gens_raw:
        raise FileFormatError("'generators' must be a nonempty list")
    gens = []
    for idx, g in enumerate(gens_raw):
        ctx = f"generator entry #{idx}"
        if not isinstance(g, dict):
            raise FileFormatError(f"{ctx}: expected an object")
        gens.append(Generator(_field(g, ctx, "id", str), _field(g, ctx, "grw", int), _field(g, ctx, "grz", int)))
    names = {g.name for g in gens}
    terms = _parse_entries(data.get("differential", []), "differential", names)
    try:
        complex_ = BigradedComplex.from_terms(gens, terms).require_valid()
    except ValidationError as exc:
        raise FileFormatError(
            f"{path}: complex fails validation: {'; '.join(exc.violations)}"
        ) from None
    iota = None
    if "iota" in data:
        terms = _parse_entries(data["iota"], "iota", names)
        try:
            iota = SkewMap.from_terms(complex_, terms, provenance="user-file")
        except ValidationError as exc:
            raise FileFormatError(f"{path}: iota rejected: {'; '.join(exc.violations)}") from None
        violation = verify_chain_map(iota)
        if violation is not None:
            raise FileFormatError(f"{path}: iota rejected: {violation}")
    return complex_, iota


def save_complex(
    complex_: BigradedComplex,
    path: str,
    name: str = "",
    iota: Optional[SkewMap] = None,
) -> None:
    """Write a complex (and iota) in canonical order; labels must be distinct."""
    dup = complex_.repeated_label()
    if dup is not None:
        raise ValidationError(f"cannot save: generator label {dup!r} is repeated")

    def entry_list(terms):
        return [{"from": s, "to": t, "u": u, "v": v} for s, t, u, v in sorted(terms)]

    data = {
        "name": name,
        "generators": [
            {"id": g.name, "grw": g.grw, "grz": g.grz} for g in complex_.gens
        ],
        "differential": entry_list(complex_.terms()),
    }
    if iota is not None:
        data["iota"] = entry_list(iota.terms())
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")

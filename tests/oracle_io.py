"""Reference complex-file writer, kept as an oracle for `fileio.save_complex`.

It builds the file as a dict and hands it to `json.dump(indent=1,
sort_keys=True)`; the program formats the same bytes itself.
"""

import json

from knotfloer.errors import ValidationError


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

"""The JSON text of every CLI document: `json.dumps(value, indent=2)`, byte
for byte, made with C string code and no pure-Python indented encoder."""

import json
from typing import Iterator, Sequence

_encode_str = json.encoder.encode_basestring_ascii


def dumps(v, nl: str = "\n") -> str:
    """`json.dumps(v, indent=2)`, byte for byte, without its pure-Python
    indented encoder: a dict, list or tuple is one `str.join` of its items,
    and a str or an int (by exact type) is written by C code, an int item of
    a list or tuple in place; anything else (bool, None, float, or what json
    refuses) goes to `json.dumps`."""
    t = type(v)
    if t is str:
        return _encode_str(v)
    if t is int:
        return int.__repr__(v)
    inner = nl + "  "
    if isinstance(v, dict):
        brackets, items = "{}", [
            f"{_encode_str(k) if type(k) is str else json.dumps({k: 0})[1:-4]}"
            f": {dumps(x, inner)}" for k, x in v.items()]
    elif isinstance(v, (list, tuple)):
        brackets, items = "[]", [int.__repr__(x) if type(x) is int
                                 else dumps(x, inner) for x in v]
    else:
        return json.dumps(v)
    return (f"{brackets[0]}{inner}{(',' + inner).join(items)}{nl}{brackets[1]}"
            if items else brackets)


def json_list(items: Sequence[str]) -> Iterator[str]:
    """A list under a top-level key of an indented document, in pieces, from
    the text of its items (each indented four spaces)."""
    sep = "[\n"
    for item in items:
        yield sep
        yield item
        sep = ",\n"
    yield "[]" if sep == "[\n" else "\n  ]"

"""Report objects: canonical JSON bytes and a plain-text rendering.

Reports are nested dicts of strings, ints, bools, lists and dicts; every
scalar from the exact fields is rendered as a string, so serialization is
lossless and two runs with the same input and seed produce byte-identical
JSON.
"""

from __future__ import annotations

import json

from .linalg import Matrix


def matrix_entries(m: Matrix):
    return [[str(x) for x in row] for row in m.entries]


def vector_entries(vec):
    return [str(x) for x in vec]


def to_json_bytes(report: dict) -> bytes:
    return (json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n").encode()


def render_text(report: dict) -> str:
    lines = []
    _render(report, lines, 0)
    return "\n".join(lines) + "\n"


def _render(node, lines, depth):
    pad = "  " * depth
    if isinstance(node, dict):
        for key in node:
            val = node[key]
            if isinstance(val, (dict, list)) and val:
                lines.append(f"{pad}{key}:")
                _render(val, lines, depth + 1)
            else:
                lines.append(f"{pad}{key}: {_scalar(val)}")
    elif isinstance(node, list):
        if node and all(isinstance(x, list) for x in node):
            for row in node:
                lines.append(pad + "[" + ", ".join(_scalar(x) for x in row) + "]")
        else:
            for item in node:
                if isinstance(item, (dict, list)):
                    lines.append(pad + "-")
                    _render(item, lines, depth + 1)
                else:
                    lines.append(pad + "- " + _scalar(item))
    else:
        lines.append(pad + _scalar(node))


def _scalar(val):
    if isinstance(val, bool):
        return "yes" if val else "no"
    if isinstance(val, (list, dict)) and not val:
        return "(none)"
    return str(val)

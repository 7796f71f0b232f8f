"""The recursive JSON emitter, kept as a reference.

``reporting.dumps`` renders through a table of kinds found once per type,
and a container renders its float entries without a dispatch.  This is the
same emitter written the earlier way: one ``isinstance`` chain per value,
appending to one list of pieces.  The tests require the same text, or the
same TypeError, from both.
"""

import enum
import json
import math

import numpy as np


def render_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _emit(obj, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (float, np.floating)):
        out.append(render_float(float(obj)))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, enum.Enum):
        out.append(json.dumps(obj.value))
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), indent, out)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (k, v) in enumerate(items):
            out.append(f"{pad}  {json.dumps(str(k))}: ")
            _emit(v, indent + 1, out)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad + "  ")
            _emit(v, indent + 1, out)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    out: list[str] = []
    _emit(obj, 0, out)
    out.append("\n")
    return "".join(out)

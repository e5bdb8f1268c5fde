"""The array form of the dense JSON payloads, and its JSON-native list form.

SchurUnitary, CgBlock and GateList each describe their JSON schema once, as a
payload of dicts, lists, scalars and `Pairs`, an array that stands for a
nested list of [re, im] pairs. The CLI streams such a payload row by row
straight from the arrays; `to_json` returns `json_lists(payload)`, which
equals json.load of the written file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Pairs:
    """An array whose entries are written as [re, im] pairs.

    A real array is written as is, with im = +0.0 (the text "0"), so a real
    matrix needs no complex copy.
    """

    values: np.ndarray

    def floats(self) -> np.ndarray:
        """The float view of the complex values, shape values.shape + (2,)."""
        values = np.ascontiguousarray(self.values, dtype=complex)
        return values.view(float).reshape(*values.shape, 2)


def json_lists(payload):
    """The payload with every Pairs replaced by nested [re, im] lists."""
    if isinstance(payload, dict):
        return {k: json_lists(v) for k, v in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [json_lists(v) for v in payload]
    if isinstance(payload, Pairs):
        return payload.floats().tolist()
    return payload

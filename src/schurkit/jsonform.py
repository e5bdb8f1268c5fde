"""The array form of the dense JSON payloads, and its JSON-native list form.

SchurUnitary, CgBlock and GateList each describe their JSON schema once, as a
payload of dicts, lists, scalars, `Pairs`, an array that stands for a nested
list of [re, im] pairs, and `Records`, float arrays that stand for a list of
records with one record per row. The CLI streams such a payload row by row
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


@dataclass(frozen=True)
class Records:
    """A JSON list written section by section, one record per array row.

    Each section pairs a record template, the text of one record with one
    %-placeholder (%d or %.17g) per column, with a 2-D float array whose
    rows fill it in. The list holds every section's records in order.
    """

    sections: tuple[tuple[str, np.ndarray], ...]

    def lists(self) -> list:
        """The records as JSON-native objects, read back from their text."""
        import json  # here, not at the top: the CLI never needs it, ~3 ms of start-up

        return [
            json.loads(template % tuple(row), parse_int=_parse_int)
            for template, values in self.sections
            for row in values.tolist()
        ]


def _parse_int(text: str):
    # %.17g writes -0.0 as "-0", which would read back as the int 0.
    return -0.0 if text == "-0" else int(text)


def json_lists(payload):
    """The payload with every Pairs and Records replaced by its JSON-native
    lists."""
    if isinstance(payload, dict):
        return {k: json_lists(v) for k, v in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [json_lists(v) for v in payload]
    if isinstance(payload, Pairs):
        return payload.floats().tolist()
    if isinstance(payload, Records):
        return payload.lists()
    return payload

"""Small deterministic writers shared by the export helpers.

Numbers are printed with %.17g so a float64 round-trips exactly and
re-running an identical configuration reproduces the file byte for byte.
Line endings are forced to "\\n" on every platform.
"""

from __future__ import annotations

import json

import numpy as np

_CELL = "%.17g"


def write_csv(path, header, columns) -> None:
    """Write columns (equal-length sequences) under a comma-separated header.

    Each cell reads as _CELL % float(cell); whole rows are formatted at
    once from float lists, which writes the same bytes faster.
    """
    columns = [np.asarray(c, dtype=float).tolist() for c in columns]
    if len(header) != len(columns):
        raise ValueError("header and column counts differ")
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("columns have unequal lengths")
    row = ",".join([_CELL] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % cells for cells in zip(*columns))


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

"""Deterministic file output with embedded provenance.

Every artifact carries the fully resolved configuration: CSV files as a
'# config:' line ahead of the column header, JSON reports under a
"config" key.  CSV tables are streamed in column-wise blocks
(:func:`write_csv`); a cell is the ``repr`` of its Python value, so
integers print as digits and floats in shortest round-trip form.  '.'
decimals and LF endings make identical runs produce identical bytes.
"""

from __future__ import annotations

import json

import numpy as np

TRAJECTORY_COLUMNS = ("path", "t", "x", "y", "z", "u", "v", "dist_sigma")


def column_text(col):
    """The cells of one 1-D numeric column, as a list of str."""
    vals = np.asarray(col).tolist()
    # one repr of the list formats every value as repr would each
    return repr(vals)[1:-1].split(", ") if vals else []


def write_csv(path, columns, blocks, metadata=None):
    """Write the header, then each block before the next is formatted.

    A block is a tuple of equal-length 1-D columns, one per header name;
    a list of str is written as is (format a shared column once), and a
    block of no rows writes nothing.  Memory is bounded by one block.
    """
    with open(path, "w", newline="\n") as fh:
        if metadata:
            fh.write(f"# config: {json.dumps(metadata, sort_keys=True)}\n")
        fh.write(",".join(columns) + "\n")
        for block in blocks:
            texts = [c if isinstance(c, list) and c and isinstance(c[0], str)
                     else column_text(c) for c in block]
            if len(texts) != len(columns) or len({*map(len, texts)}) > 1:
                raise ValueError(f"a block does not fit the header {columns}")
            if texts[0]:
                fh.write("\n".join(map(",".join, zip(*texts))) + "\n")


def trajectory_blocks(ens):
    """Path-major blocks of :data:`TRAJECTORY_COLUMNS`, one per path."""
    t = column_text(ens.times)
    for i, pos in enumerate(ens.pos):
        yield ([str(i)] * len(t), t, *pos.T, ens.u[i], ens.v[i],
               ens.dist_sigma[i])


def write_json(path, obj):
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)

"""Deterministic file output with embedded provenance.

Every artifact carries the fully resolved configuration: CSV files as a
'# config:' line ahead of the column header, JSON reports under a
"config" key.  CSV tables are streamed in column-wise blocks, formatted
in parallel when there are many (:func:`write_csv`); a cell is the
``repr`` of its Python value, so integers print as digits and floats in
shortest round-trip form.  '.' decimals and LF endings make identical
runs produce identical bytes.
"""

from __future__ import annotations

import functools
import itertools
import json

import numpy as np

from .parallel import MIN_SHARD, cpu_count, imap, shard_count

TRAJECTORY_COLUMNS = ("path", "t", "x", "y", "z", "u", "v", "dist_sigma")


def column_text(col):
    """The cells of one 1-D numeric column, as a list of str."""
    vals = np.asarray(col).tolist()
    # one repr of the list formats every value as repr would each
    return repr(vals)[1:-1].split(", ") if vals else []


def write_csv(path, columns, blocks, metadata=None):
    """Write the header, then the text of each block, in block order.

    A block is a tuple of equal-length 1-D columns, one per header name;
    a list of str is written as is (format a shared column once), and a
    block of no rows writes nothing.  The blocks are formatted in forked
    workers, one per CPU, when each would get at least
    :data:`parallel.MIN_SHARD` of them, and in this process otherwise.
    A worker holds one block at a time, so memory is bounded by one
    block's text per worker, what a pipe buffers and the block being
    written.
    """
    blocks = iter(blocks)
    head = list(itertools.islice(blocks, MIN_SHARD * cpu_count()))
    with open(path, "w", newline="\n") as fh:
        if metadata:
            fh.write(f"# config: {json.dumps(metadata, sort_keys=True)}\n")
        fh.write(",".join(columns) + "\n")
        for text in imap(functools.partial(_block_text, columns),
                         itertools.chain(head, blocks),
                         shard_count(len(head))):
            fh.write(text)


def _block_text(columns, block):
    """The CSV lines of one block of :func:`write_csv`."""
    texts = [c if isinstance(c, list) and c and isinstance(c[0], str)
             else column_text(c) for c in block]
    if len(texts) != len(columns) or len({*map(len, texts)}) > 1:
        raise ValueError(f"a block does not fit the header {columns}")
    return "\n".join(map(",".join, zip(*texts))) + "\n" if texts[0] else ""


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

"""The per-row CSV writer as it stood before the column-wise rewrite.

One ``_fmt`` call per cell and the whole text joined in memory, fed the
row tuples the trajectory writers used to build;
:func:`kepdiff.io.write_csv` must write the same bytes.
"""

import json

import numpy as np


def _fmt(x):
    if isinstance(x, np.floating):
        x = float(x)
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, np.integer):
        return str(int(x))
    return str(x)


def write_csv_rows(path, columns, rows, metadata=None):
    lines = []
    if metadata:
        blob = json.dumps(metadata, sort_keys=True)
        lines.append(f"# config: {blob}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def trajectory_rows(ens):
    """Path-major (path, t, x, y, z, u, v, dist_sigma) tuples."""
    rows, times = [], ens.times
    for i in range(ens.n_paths):
        for k in range(len(times)):
            rows.append((i, float(times[k]),
                         float(ens.pos[i, k, 0]), float(ens.pos[i, k, 1]),
                         float(ens.pos[i, k, 2]), float(ens.u[i, k]),
                         float(ens.v[i, k]), float(ens.dist_sigma[i, k])))
    return rows

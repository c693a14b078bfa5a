"""R016 fixture: integer dedup through np.unique's hash or row-sort path.

Lines ending with ``# plant`` must fire; everything else must not.
The directory name matters — R016 covers files of the ``repro``
package only, so this fixture lives under a ``repro/graph/`` directory.
"""

import numpy
import numpy as np

from repro.store.csr import sorted_unique, unique_edge_rows


def hash_path_dedup(ids, rows):
    a = np.unique(ids)  # plant
    b = numpy.unique(ids[ids > 0])  # plant
    c = np.unique(rows, axis=0)  # plant
    d = np.unique(ids, return_counts=False)  # plant
    e = np.unique(rows, axis=1, return_index=True)  # plant
    return a, b, c, d, e


def sort_path_is_fine(ids, rows):
    # Requesting an index output already takes NumPy's sort path.
    uniq, inverse = np.unique(ids, return_inverse=True)
    first = np.unique(ids, return_index=True, axis=None)
    counts = np.unique(ids, return_counts=True)
    return uniq, inverse, first, counts


def hash_free_helpers_are_fine(ids, rows, n):
    return sorted_unique(ids), unique_edge_rows(rows[:, 0], rows[:, 1], n)


def float_values_keep_np_unique(ratios):
    # The sanctioned escape hatch: justified inline suppression.
    return np.unique(ratios)  # repro-lint: disable=R016 (float ratios)


def other_unique_methods_are_fine(frame):
    return frame.unique()

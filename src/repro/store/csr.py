"""O(m) counting-sort CSR construction.

The original containers built CSR via ``np.lexsort`` over all stored
arcs — O(m log m) with mergesort passes per key. Both builders here are
counting-sort based:

* :func:`csr_from_sorted_canonical` (undirected) exploits that every
  call site already holds the canonical edge list lex-sorted (it is the
  output of :func:`unique_edge_rows` or a CSR-ordered ``edges()``
  view): out-arc slots follow from pure arithmetic on the sorted rows,
  and in-arcs need only one single-key stable ``argsort`` — NumPy's
  radix sort for integer keys, O(m).
* :func:`counting_sort_csr` (directed) sorts arcs by the combined key
  ``heads * n + tails`` with one stable radix pass, replacing the
  two-key lexsort.

Both produce ``indptr``/``indices`` bit-identical to the lexsort
reference (kept as :func:`reference_csr_from_canonical` and pinned by
the equivalence suite in ``tests/store/test_csr_equivalence.py``).

The dedup step in front of them is hash-free as well:

* :func:`sorted_unique` is ``np.unique`` for integer arrays by sort plus
  an adjacent-difference mask. Under NumPy >= 2.3 a bare ``np.unique``
  takes a hash-table path that is ~19x slower than sorting on int64
  (measurements in ``docs/performance.md``); lint rule R016 keeps it
  out of ``src/repro``.
* :func:`unique_edge_rows` is ``np.unique(rows, axis=0)`` for vertex-id
  pairs through the combined key ``u * n + v`` (one int64 sort instead
  of structured-row compares), with the ``axis=0`` path kept only
  above ``_COMBINED_KEY_MAX_VERTICES``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "sorted_unique",
    "unique_edge_rows",
    "csr_from_sorted_canonical",
    "counting_sort_csr",
    "reference_csr_from_canonical",
]

# Combined-key sorting needs heads * n + tails to fit in int64:
# n * n < 2**63  =>  n <= isqrt(2**63 - 1).
_COMBINED_KEY_MAX_VERTICES = 3_037_000_499


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer array, like ``np.unique``.

    Sort plus an adjacent-difference mask, never NumPy's hash-table
    path; the result (values and dtype) equals ``np.unique(values)``.
    Multi-dimensional input is flattened, as ``np.unique`` does.
    """
    values = np.asarray(values)
    if values.dtype.kind not in "biu":
        raise TypeError(f"sorted_unique needs an integer array, got {values.dtype}")
    flat = np.sort(values.ravel())
    if flat.size < 2:
        return flat
    keep = np.empty(flat.size, dtype=bool)
    keep[0] = True
    np.not_equal(flat[1:], flat[:-1], out=keep[1:])
    return flat[keep]


def unique_edge_rows(
    heads: np.ndarray, tails: np.ndarray, num_vertices: int
) -> np.ndarray:
    """Distinct ``(head, tail)`` rows in lexicographic order, as int64.

    Equal to ``np.unique(np.stack([heads, tails], axis=1), axis=0)`` for
    endpoints in ``0..num_vertices-1``: the combined key
    ``head * n + tail`` orders rows lexicographically, so one integer
    dedup replaces the structured row sort.
    """
    heads = np.asarray(heads, dtype=np.int64)
    tails = np.asarray(tails, dtype=np.int64)
    if heads.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if num_vertices > _COMBINED_KEY_MAX_VERTICES:
        # n * n overflows int64, so there is no combined key to sort.
        rows = np.stack([heads, tails], axis=1)
        return np.unique(rows, axis=0)  # repro-lint: disable=R016 (keys overflow int64)
    n = np.int64(num_vertices)
    key = heads * n
    key += tails
    key = sorted_unique(key)
    out = np.empty((key.size, 2), dtype=np.int64)
    np.floor_divide(key, n, out=out[:, 0])
    np.subtract(key, out[:, 0] * n, out=out[:, 1])
    return out


def _sort_key_dtype(max_value: int) -> np.dtype:
    """Narrowest unsigned dtype holding ``0..max_value-1``.

    NumPy's stable sort on integers is a byte-wise radix sort, so a
    uint16 key sorts ~4x faster than the same values as int64.
    """
    if max_value <= 1 << 16:
        return np.dtype(np.uint16)
    if max_value <= 1 << 32:
        return np.dtype(np.uint32)
    return np.dtype(np.int64)


def _is_lex_sorted(heads: np.ndarray, tails: np.ndarray) -> bool:
    if heads.size < 2:
        return True
    du = heads[1:] >= heads[:-1]
    if not bool(du.all()):
        return False
    same = heads[1:] == heads[:-1]
    return bool(np.all(tails[1:][same] >= tails[:-1][same]))


def reference_csr_from_canonical(
    num_vertices: int, canonical_edges: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Original lexsort-based undirected CSR builder (reference only).

    Kept as the ground truth for the equivalence suite and the "before"
    leg of the CSR-build benchmark.
    """
    edge_u = canonical_edges[:, 0]
    edge_v = canonical_edges[:, 1]
    heads = np.concatenate([edge_u, edge_v])
    tails = np.concatenate([edge_v, edge_u])
    degrees = np.bincount(heads, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    order = np.lexsort((tails, heads))
    return indptr, np.ascontiguousarray(tails[order])


def csr_from_sorted_canonical(
    num_vertices: int,
    canonical_edges: np.ndarray,
    dtype: Optional[np.dtype] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Undirected CSR from a lex-sorted canonical (u < v) edge list.

    O(m): degrees via ``bincount``, ``indptr`` via prefix sum, out-arc
    slots by arithmetic on the already-sorted rows, in-arc slots via one
    stable radix ``argsort`` on the single tail key. Falls back to the
    lexsort reference if the input is (unexpectedly) not lex-sorted.

    ``dtype`` selects the output index dtype (default int64); the
    result is identical to :func:`reference_csr_from_canonical` cast to
    that dtype.
    """
    canon = np.asarray(canonical_edges, dtype=np.int64)
    if canon.ndim != 2 or canon.shape[1] != 2:
        canon = canon.reshape(-1, 2)
    out_dtype = np.dtype(np.int64) if dtype is None else np.dtype(dtype)
    num_edges = canon.shape[0]
    if num_edges == 0:
        return (
            np.zeros(num_vertices + 1, dtype=out_dtype),
            np.zeros(0, dtype=out_dtype),
        )
    edge_u = np.ascontiguousarray(canon[:, 0])
    edge_v = np.ascontiguousarray(canon[:, 1])
    if not _is_lex_sorted(edge_u, edge_v):
        indptr, indices = reference_csr_from_canonical(num_vertices, canon)
        return (indptr.astype(out_dtype), indices.astype(out_dtype))

    out_deg = np.bincount(edge_u, minlength=num_vertices)
    in_deg = np.bincount(edge_v, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(out_deg + in_deg, out=indptr[1:])
    indices = np.empty(2 * num_edges, dtype=np.int64)
    arange_m = np.arange(num_edges, dtype=np.int64)

    # Within vertex w's adjacency block, in-neighbors (< w, since u < v)
    # precede out-neighbors (> w); each sub-block lands pre-sorted, so
    # the block as a whole matches the lexsort ordering exactly.
    u_start = np.zeros(num_vertices, dtype=np.int64)
    np.cumsum(out_deg[:-1], out=u_start[1:])
    slots_out = indptr[edge_u] + in_deg[edge_u] + (arange_m - u_start[edge_u])
    indices[slots_out] = edge_v

    v_start = np.zeros(num_vertices, dtype=np.int64)
    np.cumsum(in_deg[:-1], out=v_start[1:])
    order = np.argsort(
        edge_v.astype(_sort_key_dtype(num_vertices), copy=False),
        kind="stable",
    )  # radix sort: O(m); fewer byte passes on a narrowed key
    sorted_v = edge_v[order]
    slots_in = indptr[sorted_v] + (arange_m - v_start[sorted_v])
    indices[slots_in] = edge_u[order]

    return indptr.astype(out_dtype, copy=False), indices.astype(
        out_dtype, copy=False
    )


def counting_sort_csr(
    num_vertices: int,
    heads: np.ndarray,
    tails: np.ndarray,
    dtype: Optional[np.dtype] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directed CSR: arcs sorted by (head, tail) with one radix pass.

    Returns ``(indptr, indices, order)`` where ``order`` is the stable
    permutation sorting the input arcs — the containers use it as the
    CSR-position -> edge-id map. Identical to
    ``np.lexsort((tails, heads))`` (both stable), but a single radix
    ``argsort`` on the combined key ``heads * n + tails``; graphs too
    large for the combined key to fit in int64 fall back to lexsort.
    """
    heads = np.asarray(heads, dtype=np.int64)
    tails = np.asarray(tails, dtype=np.int64)
    out_dtype = np.dtype(np.int64) if dtype is None else np.dtype(dtype)
    if num_vertices > _COMBINED_KEY_MAX_VERTICES:
        order = np.lexsort((tails, heads))
    else:
        key = heads * np.int64(num_vertices) + tails
        if num_vertices:
            key = key.astype(
                _sort_key_dtype(num_vertices * num_vertices), copy=False
            )
        order = np.argsort(key, kind="stable")
    degrees = np.bincount(heads, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = np.ascontiguousarray(tails[order], dtype=out_dtype)
    return indptr.astype(out_dtype, copy=False), indices, order

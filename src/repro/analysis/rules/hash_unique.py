"""R016 — integer dedup stays off ``np.unique``'s slow paths.

Under NumPy >= 2.3 a bare ``np.unique(x)`` (no ``return_*`` output)
takes a hash-table path, ``_unique_hash``, which is far slower than
sorting on integer arrays: 700k int64 take 238 ms hashed, 12.5 ms by
sort plus adjacent-difference and 2.1 ms with a mark array (2-CPU
x86-64, NumPy 2.4; ``docs/performance.md``).  With
``axis=0`` it instead views the rows as structured records and sorts
them with element-wise row compares.  Both once dominated the PWC
peeling cascade and the CSR build behind every ``from_edges``.

The hash-free replacements live in :mod:`repro.store.csr`:
``sorted_unique`` for 1-D integer arrays and ``unique_edge_rows`` for
vertex-id pairs (the combined key ``u * n + v``).  Calls that request
``return_index`` / ``return_inverse`` / ``return_counts`` already take
NumPy's sort path and are not flagged.  A call that must stay — float
values, or the row fallback above the combined-key guard — carries an
inline ``# repro-lint: disable=R016`` with its reason.

The rule is path-scoped to files of the ``repro`` package; the tests
are fair game, since they use ``np.unique`` as the oracle.
"""

from __future__ import annotations

import ast

from ..engine import Rule

__all__ = ["HashUniqueRule"]

_NUMPY_ALIASES = {"np", "numpy"}

#: Keywords that move ``np.unique`` onto its sort path.
_SORT_PATH_KEYWORDS = {"return_index", "return_inverse", "return_counts"}


def _is_literal(node: ast.expr, value: object) -> bool:
    return isinstance(node, ast.Constant) and node.value is value


class HashUniqueRule(Rule):
    """R016: no bare or row-wise ``np.unique`` inside the package."""

    rule_id = "R016"
    title = "integer dedup avoids np.unique's hash and row-sort paths"
    severity = "error"
    fix_hint = (
        "use repro.store.csr.sorted_unique (integer arrays) or "
        "unique_edge_rows (vertex pairs); keep np.unique only for floats, "
        "with an inline disable naming the reason"
    )

    def _in_scope(self) -> bool:
        # The last "repro" directory on the path is the package root, so
        # a checkout that happens to be named "repro" does not pull its
        # tests/ directory into scope.
        _, sep, rest = ("/" + self.context.posix_path).rpartition("/repro/")
        return bool(sep) and not rest.startswith("tests/")

    def visit_Call(self, node: ast.Call) -> None:
        """Flag ``np.unique(x)`` and ``np.unique(x, axis=...)``."""
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "unique"
            and isinstance(func.value, ast.Name)
            and func.value.id in _NUMPY_ALIASES
            and self._in_scope()
        ):
            keywords = {kw.arg: kw.value for kw in node.keywords}
            axis = keywords.get("axis")
            if axis is not None and not _is_literal(axis, None):
                self.report(
                    node,
                    f"`{func.value.id}.unique(..., axis=...)` dedups rows by a "
                    "structured-record sort; use the combined integer key",
                )
            elif not any(
                name in _SORT_PATH_KEYWORDS and not _is_literal(value, False)
                for name, value in keywords.items()
            ):
                self.report(
                    node,
                    f"bare `{func.value.id}.unique(...)` takes NumPy's "
                    "hash-table path; dedup integers by sort",
                )
        self.generic_visit(node)

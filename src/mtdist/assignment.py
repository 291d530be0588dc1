"""Minimum-weight maximum matching on complete bipartite graphs.

The kernel is the O(n^3) shortest-augmenting-path variant of the Hungarian
algorithm (Jonker-Volgenant style), which maintains dual potentials u, v with
c(i, j) - u(i) - v(j) >= 0 and equality on matched edges.

Rectangular instances are padded to square with a sentinel cost strictly
greater than n * max entry; sentinel pairs are dropped afterwards and the
short side's leftovers populate the unmatched lists.

Determinism: among matchings of optimal total cost, the returned pair list is
the lexicographically smallest by (row, col).  After the primal solve, the
zero-reduced-cost subgraph (every perfect matching inside it is optimal) is
canonicalized row by row, choosing the smallest column that still leaves the
remaining rows perfectly matchable.  Ties are detected within a small
relative tolerance; if the canonical pass would increase the summed cost at
all, the solver's own matching is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors

__all__ = ["Assignment", "solve"]


@dataclass(frozen=True)
class Assignment:
    """A minimum-cost maximum matching: |pairs| = min(n, m)."""

    pairs: tuple[tuple[int, int], ...]
    total_cost: float
    unmatched_rows: tuple[int, ...]
    unmatched_cols: tuple[int, ...]


def _augmenting_hungarian(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve a square instance; returns (col_to_row, u, v) potentials."""
    n = cost.shape[0]
    u = np.zeros(n)
    v = np.zeros(n + 1)  # index n is the virtual column
    p = np.full(n + 1, -1, dtype=np.int64)  # p[j] = row matched to column j
    for i in range(n):
        p[n] = i
        j0 = n
        minv = np.full(n, np.inf)
        way = np.full(n, n, dtype=np.int64)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            cur = cost[i0] - u[i0] - v[:n]
            free = ~used[:n]
            upd = free & (cur < minv)
            minv[upd] = cur[upd]
            way[upd] = j0
            masked = np.where(free, minv, np.inf)
            j1 = int(np.argmin(masked))
            delta = float(masked[j1])
            used_cols = np.flatnonzero(used)
            u[p[used_cols]] += delta
            v[used_cols] -= delta
            minv[free] -= delta
            j0 = j1
            if p[j0] == -1:
                break
        while j0 != n:
            j1 = int(way[j0])
            p[j0] = p[j1]
            j0 = j1
    return p[:n], u, v[:n]


def _kuhn_augment(r: int, adj: list[list[int]], col_to_row: np.ndarray,
                  banned: set[int], visited: set[int]) -> bool:
    """Find an augmenting path from free row r inside the tight subgraph.

    Depth-first, trying each row's columns in adjacency order; iterative, so
    path length is not bounded by the interpreter's recursion limit.
    """
    rows, cols = [r], []  # cols[k] leads from rows[k] to rows[k + 1]
    todo = [iter(adj[r])]
    while todo:
        for c in todo[-1]:
            if c in banned or c in visited:
                continue
            visited.add(c)
            cols.append(c)
            owner = int(col_to_row[c])
            if owner == -1:
                for row, col in zip(rows, cols):
                    col_to_row[col] = row
                return True
            rows.append(owner)
            todo.append(iter(adj[owner]))
            break
        else:  # rows[-1] is a dead end: back up to its parent's next column
            todo.pop()
            rows.pop()
            if cols:
                cols.pop()
    return False


def _lexicographic_matching(adj: list[list[int]], row_to_col: np.ndarray) -> np.ndarray:
    """Lexicographically smallest perfect matching within the tight subgraph.

    Starts from a known perfect matching and fixes rows in ascending order,
    rerouting through augmenting paths when a smaller column is feasible.
    """
    n = len(adj)
    match = row_to_col.copy()
    col_to_row = np.full(n, -1, dtype=np.int64)
    for i, c in enumerate(match):
        col_to_row[c] = i
    fixed: set[int] = set()
    for i in range(n):
        mi = int(match[i])
        for c in adj[i]:
            if c in fixed:
                continue
            if c == mi:
                break
            owner = int(col_to_row[c])
            # tentatively give c to row i, free its old column, rehome owner
            col_to_row[c] = i
            col_to_row[mi] = -1
            match[i] = c
            if _kuhn_augment(owner, adj, col_to_row, banned=fixed | {c}, visited=set()):
                # owner found a new column; record row->col for all rows
                for cc in range(n):
                    if col_to_row[cc] >= 0:
                        match[col_to_row[cc]] = cc
                break
            col_to_row[c] = owner
            col_to_row[mi] = i
            match[i] = mi
        fixed.add(int(match[i]))
    return match


def solve(cost) -> Assignment:
    """Minimum-total-cost maximum matching of a dense cost matrix.

    Empty instances (no rows or no columns) yield an empty assignment.
    Raises NonFiniteCost on NaN or infinite entries.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2:
        raise errors.NonFiniteCost("cost must be a 2-d matrix")
    n, m = c.shape
    if n == 0 or m == 0:
        return Assignment((), 0.0, tuple(range(n)), tuple(range(m)))
    if not np.all(np.isfinite(c)):
        raise errors.NonFiniteCost("cost matrix contains NaN or infinite entries")

    size = max(n, m)
    max_entry = float(c.max()) if c.size else 0.0
    sentinel = size * max(max_entry, 0.0) + 1.0
    padded = np.full((size, size), sentinel)
    padded[:n, :m] = c

    col_to_row, u, v = _augmenting_hungarian(padded)
    row_to_col = np.empty(size, dtype=np.int64)
    row_to_col[col_to_row] = np.arange(size)

    reduced = padded - u[:, None] - v[None, :]
    matched_slack = float(np.abs(reduced[np.arange(size), row_to_col]).max())
    # tie tolerance is relative to the data, not the sentinel, so the
    # canonical pass cannot trade optimality for lexicographic order; the
    # matched-slack term keeps the solver's own edges classified tight
    tol = max(1e-9 * max(1.0, max_entry), 2.0 * matched_slack)
    tight = reduced <= tol
    adj = [np.flatnonzero(tight[i]).tolist() for i in range(size)]

    canonical = _lexicographic_matching(adj, row_to_col)
    base_cost = float(padded[np.arange(size), row_to_col].sum())
    canon_cost = float(padded[np.arange(size), canonical].sum())
    if canon_cost > base_cost:  # tolerance admitted a worse edge; keep the optimum
        canonical = row_to_col

    pairs = tuple(
        (i, int(canonical[i]))
        for i in range(n)
        if canonical[i] < m
    )
    matched_rows = {i for i, _ in pairs}
    matched_cols = {j for _, j in pairs}
    total = float(sum(c[i, j] for i, j in pairs))
    return Assignment(
        pairs=pairs,
        total_cost=total,
        unmatched_rows=tuple(i for i in range(n) if i not in matched_rows),
        unmatched_cols=tuple(j for j in range(m) if j not in matched_cols),
    )

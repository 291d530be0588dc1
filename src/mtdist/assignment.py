"""Minimum-weight maximum matching on complete bipartite graphs.

The kernel is the O(n^3) shortest-augmenting-path variant of the Hungarian
algorithm (Jonker-Volgenant style), which maintains dual potentials u, v with
c(i, j) - u(i) - v(j) >= 0 and equality on matched edges.

Rectangular instances are padded to square with a sentinel cost strictly
greater than n * max entry; sentinel pairs are dropped afterwards and the
short side's leftovers populate the unmatched lists.

The loop runs over Python lists, not numpy arrays: at the benchmark's
sizes (padded n <= 50) the fixed cost of a dozen small numpy calls per
step outweighed the arithmetic they did.  A vectorised loop wins only on
padded sizes of about 160 and above, which no workload reaches.

Determinism: among matchings of optimal total cost, the returned pair list is
the lexicographically smallest by (row, col).  After the primal solve, the
zero-reduced-cost subgraph (every perfect matching inside it is optimal) is
canonicalized row by row: each row takes the smallest column that leaves the
later rows perfectly matchable.  That matching is unique, so the order in
which the pass searches for it is free.  Ties are detected within a small
relative tolerance; if the canonical pass would increase the summed cost at
all, the solver's own matching is kept.

So the returned matching can depend, down to the last bit, on the solver's
own matching and potentials: they decide which edges are tight, and the
guard falls back to the solver's matching.  The kernel therefore returns
potentials byte-identical to the numpy loop it replaced (kept in the tests
as the reference), leaving out only operations that are exact no-ops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from .core import _real_array

__all__ = ["Assignment", "solve"]


@dataclass(frozen=True)
class Assignment:
    """A minimum-cost maximum matching: |pairs| = min(n, m)."""

    pairs: tuple[tuple[int, int], ...]
    total_cost: float
    unmatched_rows: tuple[int, ...]
    unmatched_cols: tuple[int, ...]


def _augmenting_hungarian(cost: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve a square instance; returns (col_to_row, u, v) potentials.

    Columns from ``m`` on are padding.  Each step scans the free columns in
    ascending order, then shifts the potentials of the used rows and columns;
    the free columns' ``minv -= delta`` waits for the next step's scan.

    Two skips leave out exact no-ops only.  Steps with ``delta == 0`` shift
    nothing: u and v start at +0.0, and an IEEE sum or difference is -0.0
    only when an operand is, so they never hold -0.0 and +-0.0 keeps their
    bits.  Never-matched padding columns share cost, v = 0 and minv, and the
    scan takes the first index under a strict ``<``, so only the lowest of
    them, ``spare``, is scanned; it moves up when a phase ends on it.
    """
    n = cost.shape[0]
    rows = cost.tolist()
    u = [0.0] * n
    v = [0.0] * n
    p = [-1] * (n + 1)  # p[j] = row matched to column j; index n is virtual
    inf = float("inf")
    spare = m  # lowest padding column not yet matched; n when none is left
    for i in range(n):
        p[n] = i
        j0 = n
        minv = [inf] * n
        way = [n] * n
        free = list(range(min(spare + 1, n)))
        used_rows, used_cols = [i], []
        delta = 0.0  # nothing pending before the first scan: inf - 0.0 is inf
        while True:
            row = rows[p[j0]]
            ui = u[p[j0]]
            last, delta, j1 = delta, inf, -1
            for j in free:
                mj = minv[j] - last
                c = row[j] - ui - v[j]
                if c < mj:
                    mj = c
                    way[j] = j0
                minv[j] = mj
                if mj < delta:
                    delta, j1 = mj, j
            free.remove(j1)
            if delta:
                for r in used_rows:
                    u[r] += delta
                for j in used_cols:
                    v[j] -= delta
            j0 = j1
            if p[j0] == -1:
                break
            used_rows.append(p[j0])
            used_cols.append(j0)
        if j0 == spare:
            spare += 1
        while j0 != n:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    return np.array(p[:n], dtype=np.int64), np.array(u), np.array(v)


def _lexicographic_matching(adj: list[list[int]], row_to_col: np.ndarray) -> np.ndarray:
    """Lexicographically smallest perfect matching within the tight subgraph.

    Starts from a known perfect matching and fixes rows in ascending order.
    Row i tries its unfixed columns c below its own column mi in adjacency
    order: a breadth-first search from c over unfixed columns, in which each
    reached column's owner may move to any of its columns, looks for mi.  If
    it gets there, the owners shift one step along the path and i takes c.
    """
    n = len(adj)
    match = row_to_col.tolist()
    owner = np.argsort(row_to_col).tolist()  # owner[c] = the row matched to c
    fixed = [False] * n
    for i in range(n):
        mi = match[i]
        for c in adj[i]:
            if c == mi:
                break
            if fixed[c]:
                continue
            came = {c: c}  # came[y] = the column whose owner moves to y
            queue = [c]
            for x in queue:
                for y in adj[owner[x]]:
                    if y not in came and not fixed[y]:
                        came[y] = x
                        queue.append(y)
                if mi in came:
                    break
            else:
                continue
            y = mi
            while y != c:
                x = came[y]
                owner[y] = owner[x]
                match[owner[y]] = y
                y = x
            match[i], owner[c] = c, i
            break
        fixed[match[i]] = True
    return np.array(match, dtype=np.int64)


def solve(cost) -> Assignment:
    """Minimum-total-cost maximum matching of a dense cost matrix.

    Empty instances (no rows or no columns) yield an empty assignment.
    Raises NonFiniteCost on a ragged or non-numeric matrix (a numeric
    string is no number), on NaN or infinite entries, and on entries so
    large that the padding or the dual potentials would overflow.
    """
    try:
        c = _real_array(cost)
    except (TypeError, ValueError):
        raise errors.NonFiniteCost("cost must be a matrix of numbers") from None
    if c.ndim != 2:
        raise errors.NonFiniteCost("cost must be a 2-d matrix")
    n, m = c.shape
    if n == 0 or m == 0:
        return Assignment((), 0.0, tuple(range(n)), tuple(range(m)))
    if not np.all(np.isfinite(c)):
        raise errors.NonFiniteCost("cost matrix contains NaN or infinite entries")

    size = max(n, m)
    max_entry = float(c.max())
    sentinel = size * max(max_entry, 0.0) + 1.0
    # the potentials move by up to size * spread of the padded matrix
    if not np.isfinite(size * (sentinel - min(float(c.min()), 0.0))):
        raise errors.NonFiniteCost("cost magnitudes overflow the solver's float range")
    padded = np.full((size, size), sentinel)
    padded[:n, :m] = c

    col_to_row, u, v = _augmenting_hungarian(padded, m)
    row_to_col = np.argsort(col_to_row)  # the inverse permutation

    reduced = padded - u[:, None] - v[None, :]
    matched_slack = float(np.abs(reduced[np.arange(size), row_to_col]).max())
    # tie tolerance is relative to the data, not the sentinel, so the
    # canonical pass cannot trade optimality for lexicographic order; the
    # matched-slack term keeps the solver's own edges classified tight
    tol = max(1e-9 * max(1.0, max_entry), 2.0 * matched_slack)
    tight = reduced <= tol
    # np.nonzero lists each row's columns in ascending order, row after row
    cols = np.nonzero(tight)[1].tolist()
    ends = np.cumsum(np.count_nonzero(tight, axis=1)).tolist()
    adj = [cols[start:end] for start, end in zip([0] + ends[:-1], ends)]

    canonical = _lexicographic_matching(adj, row_to_col)
    base_cost = float(padded[np.arange(size), row_to_col].sum())
    canon_cost = float(padded[np.arange(size), canonical].sum())
    if canon_cost > base_cost:  # tolerance admitted a worse edge; keep the optimum
        canonical = row_to_col

    pairs, unmatched_rows, total = [], [], 0.0
    for i, (j, row) in enumerate(zip(canonical[:n].tolist(), c.tolist())):
        if j < m:
            pairs.append((i, j))
            total += row[j]
        else:
            unmatched_rows.append(i)
    # every real column a real row leaves is matched to a padding row
    unmatched_cols = sorted(j for j in canonical[n:].tolist() if j < m)
    return Assignment(tuple(pairs), total, tuple(unmatched_rows), tuple(unmatched_cols))

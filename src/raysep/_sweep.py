"""Coordinate passes of the complex lasso engine (``solvers._cd_lasso``).

A pass (``_cd_sweep``) visits a working set's rows once in every snapshot
column. Each column is its own lasso, so a column pass (``_cd_steps``)
moves only each column's start candidates, the entries that are nonzero
or over their threshold when the pass starts, the next candidate of every
column in one step; its updates are those of a plain per-column loop over
the candidates, bit for bit. A zero entry that crosses its threshold
during the pass waits for the next pass. Small or dense working sets are
swept row by row (``_cd_rows``), letting a zero entry in at its visit:
over many snapshot columns each row takes two real BLAS products, one for
its correlations with every column and one for their residual change, so
its updates are those of a plain row-by-row loop over the same products,
bit for bit. Over one snapshot the row form makes the column form's dots
on numpy scalars.
"""

from __future__ import annotations

import numpy as np

_TINY = np.finfo(float).tiny


class _WorkingSet:
    """The atoms of one working set and their thresholds, as the sweep reads them.

    The correlation of atom a with a complex residual row r is aᴴ r, whose
    real and imaginary parts are the real products of r's real view with
    the columns (Re a, Im a) and (−Im a, Re a), each interleaved by sensor.
    ``split`` holds these two columns side by side for every atom, atom q at
    columns 2q and 2q + 1, and ``rot[q]`` is their transpose, which maps the
    real view of a complex move d to that of the residual change d a.

    A row-by-row pass (``_cd_rows``) updates one atom in every snapshot
    column with two real BLAS products: the columns' correlations,
    ``np.dot(r.view(float), split[:, 2q:2q + 2])``, and their residual
    change, ``np.dot(delta.view(float).reshape(-1, 2), rot[q])``. On such
    small operands ``np.dot`` gives the bits of ``@`` with less call
    overhead. BLAS may block such a product differently by its number of
    rows, so a column's last bits may depend on the other columns of the
    pass. A column pass (``_cd_steps``) instead takes
    ``np.vecdot(a_t[q], r)`` on contiguous rows, one BLAS dot per entry, so
    a column's bits do not depend on the other columns. The start
    correlations that pick its candidates, every atom with every column,
    come from one real product, ``r.view(float) @ split``.
    """

    __slots__ = ("a_t", "split", "rot", "norms_sq", "lam")

    def __init__(self, a: np.ndarray, col_norms_sq: np.ndarray, lam: np.ndarray):
        m, n = a.shape
        self.a_t = a.T.copy()
        split = np.empty((2 * m, n, 2))
        split[0::2, :, 0], split[1::2, :, 0] = a.real, a.imag
        split[0::2, :, 1], split[1::2, :, 1] = -a.imag, a.real
        self.split = split.reshape(2 * m, 2 * n)
        self.rot = split.transpose(1, 2, 0).copy()
        self.norms_sq = col_norms_sq
        self.lam = lam


# A sweep visits every row for all columns at once when the working set has
# fewer rows than this beyond twice the largest per-column live count.
_ROW_SWEEP_MARGIN = 16


def _cd_steps(a_t, res, xs, batches, moves) -> None:
    """Exact coordinate updates, one batch of entries per step, in place.

    Step j takes ``(q, m, lam, norm_q, scale)`` from ``batches`` and
    updates, in each snapshot column c < m, the entry at dictionary row
    q[c], whose value is ``xs[j, c]``, whose threshold is lam[c] and whose
    atom has squared norm norm_q[c], against the column's residual row
    ``res[c]``, which it updates in place. ``a_t`` holds the atoms as rows.
    norm_q and scale, the reciprocal of norm_q, come twice per entry, to
    act on the real and imaginary parts. Each update is a soft threshold of
    the entry's correlation, written out inline, and ``moves[j, c]``
    receives the modulus of its move; a zero entry whose correlation is
    within its threshold moves by exactly zero. Scaling by a real number
    acts on the real view: a complex product with a real number, and
    numpy's complex quotient by one, which multiplies by its reciprocal,
    give the same values.
    """
    absolute, maximum, vecdot, subtract, tiny = np.abs, np.maximum, np.vecdot, np.subtract, _TINY
    xv = xs.view(float)
    for j, (q, m, lam, norm_q, scale) in enumerate(batches):
        x_j, r_j, at = xs[j, :m], res[:m], a_t[q]
        u = vecdot(at, r_j)
        uv = u.view(float)
        uv += xv[j, : 2 * m] * norm_q
        mag = absolute(u)
        shrink = mag - lam
        maximum(shrink, 0.0, out=shrink)
        shrink /= maximum(mag, tiny)
        u *= shrink
        uv *= scale
        delta = u - x_j
        subtract(r_j, at * delta[:, None], out=r_j)
        x_j[:] = u
        absolute(delta, out=moves[j, :m])


def _nonzero(x: np.ndarray) -> np.ndarray:
    """``x != 0`` for complex x, read from its real view."""
    return (x.view(float) != 0).view(np.uint16) != 0


def _cd_rows(ws: _WorkingSet, r, x, zero_rows) -> float:
    """The pass of ``_cd_sweep`` one row at a time, for small working sets.

    Each step updates one row in every column. ``zero_rows`` flags the
    rows that are zero at the start; such a row whose correlations are all
    within its threshold is skipped. Over many snapshots a step takes the
    row's correlations from one real product, soft-thresholds every column
    as ``_cd_steps`` does, and subtracts the moves from the residual with a
    second real product (see ``_WorkingSet``); the moves are read from x at
    the end. With one snapshot the step is ``_cd_steps``' arithmetic on
    numpy scalars, whose sums, real scalings and moduli come out as on
    arrays; the quotient by the squared norm is taken as numpy takes it on
    arrays, a product with its reciprocal.
    """
    absolute, maximum, vecdot, dot, tiny = np.abs, np.maximum, np.vecdot, np.dot, _TINY
    lams, norms_sq = ws.lam.tolist(), ws.norms_sq.tolist()
    if x.shape[1] == 1:
        # one snapshot: the same arithmetic on numpy scalars
        res, vals, largest = r[0], x[:, 0], 0.0
        for q, (at, lam_q, norm_q, zero) in enumerate(zip(ws.a_t, lams, norms_sq, zero_rows)):
            corr = vecdot(at, res)
            if zero and absolute(corr) <= lam_q:
                continue
            x_q = vals[q]
            u = corr + norm_q * x_q
            mag = absolute(u)
            u = u * (max(mag - lam_q, 0.0) / max(mag, tiny)) * (1.0 / norm_q)
            delta = u - x_q
            res -= at * delta
            vals[q] = u
            largest = max(largest, float(absolute(delta)) * norm_q / max(lam_q, tiny))
        return largest
    # the real views of the residual rows and coefficients; a complex
    # difference or real scaling on them is the same on the real view
    x_start, rv, xv = x.copy(), r.view(float), x.view(float)
    pairs = ws.split.reshape(rv.shape[1], -1, 2).transpose(1, 0, 2)
    for pair, rot, xv_q, lam_q, norm_q, zero in zip(pairs, ws.rot, xv, lams, norms_sq, zero_rows):
        uv = dot(rv, pair).reshape(-1)
        u = uv.view(complex)
        if zero:
            mag = absolute(u)
            if mag.max() <= lam_q:
                continue
        else:
            uv += xv_q * norm_q
            mag = absolute(u)
        den = maximum(mag, tiny)
        shrink = mag  # in place: max(|u| - lam, 0) / max(|u|, tiny)
        shrink -= lam_q
        maximum(shrink, 0.0, out=shrink)
        shrink /= den
        u *= shrink
        uv *= 1.0 / norm_q
        rv -= dot((uv - xv_q).reshape(-1, 2), rot)
        xv_q[:] = uv
    moves = absolute(x - x_start)
    moves *= ws.norms_sq[:, None]
    moves /= np.maximum(ws.lam, _TINY)[:, None]
    return float(moves.max(initial=0.0))


def _cd_sweep(ws: _WorkingSet, r, x) -> float:
    """One cyclic pass of exact coordinate updates over the rows of ``x``.

    ``x`` (n, L) holds the coefficients of the n atoms of ``ws`` and ``r``
    (L, M) the residual, one row per snapshot column; both are updated in
    place. Returns the largest step relative to its coordinate's threshold.
    Every snapshot column is its own lasso. In each column the pass visits,
    in row order, the column's start candidates: the entries that are
    nonzero, or whose correlation exceeds their threshold, when the pass
    starts. Each candidate is updated at its visit; every other entry stays
    zero, also one whose correlation crosses its threshold during the pass.
    Such an entry waits for the next pass, which picks its candidates
    afresh, or for ``_cd_lasso``'s stationarity pass.

    A step updates the next candidate of every column at once
    (``_cd_steps``), so the pass takes as many steps as the largest
    per-column candidate count. Each column's updates are those of the
    plain per-column loop over its candidates.

    On a working set of fewer than ``2 k + _ROW_SWEEP_MARGIN`` rows, with
    k the largest per-column count of live entries (or of candidates), the
    pass goes row by row (``_cd_rows``), as many steps as rows, and lets a
    zero entry in at its visit.
    """
    (n, num_l), lam, norms_sq = x.shape, ws.lam, ws.norms_sq
    live = _nonzero(x)
    if n < 2 * int(live.sum(axis=0).max()) + _ROW_SWEEP_MARGIN:
        return _cd_rows(ws, r, x, (~live.any(axis=1)).tolist())
    parts = r.view(float) @ ws.split  # real and imaginary parts of the start correlations
    np.square(parts, out=parts)
    corr0 = parts[:, 0::2] + parts[:, 1::2]
    np.sqrt(corr0, out=corr0)  # (L, n), as is the candidate mask
    cand = corr0 > lam
    cand |= live.T
    if n < 2 * int(cand.sum(axis=1).max()) + _ROW_SWEEP_MARGIN:
        return _cd_rows(ws, r, x, (~live.any(axis=1)).tolist())
    # each column's candidates in working-set order, as (column, position)
    # pairs; slots hold the columns by falling count, so that step j
    # updates the slots below widths[j]
    flat = np.flatnonzero(cand)
    cc, pp = np.divmod(flat, n)
    counts = np.bincount(cc, minlength=num_l)
    by_count = np.argsort(-counts, kind="stable")
    slot = np.argsort(by_count)
    k = int(counts[by_count[0]])
    entry = (np.arange(flat.size) - (np.cumsum(counts) - counts)[cc], slot[cc])
    rows = np.zeros((k, num_l), dtype=np.intp)
    rows[entry] = pp
    xs = np.zeros((k, num_l), dtype=x.dtype)
    xs[entry] = x[pp, cc]
    lams, nsq = lam[rows], norms_sq[rows]
    res = r[by_count]
    moves = np.zeros((k, num_l))
    widths = num_l - np.cumsum(np.bincount(counts, minlength=k)[:k])
    nsq2 = np.repeat(nsq, 2, axis=1)
    inv2 = 1.0 / nsq2
    batches = (
        (rows[j, :m], m, lams[j, :m], nsq2[j, : 2 * m], inv2[j, : 2 * m])
        for j, m in enumerate(widths.tolist())
    )
    _cd_steps(ws.a_t, res, xs, batches, moves)
    x[pp, cc] = xs[entry]
    r[by_count] = res
    moves *= nsq
    moves /= np.maximum(lams, _TINY)
    return float(moves.max(initial=0.0))

"""Coordinate passes of the complex lasso engine (``solvers._cd_lasso``).

A pass (``_cd_sweep``) visits a working set's rows once in every snapshot
column. Each column is its own lasso, so it moves each column's live
entries only, the next live entry of every column in one step, and shows
that the zero entries stay zero: the column form (``_cd_steps``), whose
updates are those of the plain column-by-column loop, bit for bit. Small or
dense working sets are swept row by row (``_cd_rows``): over many snapshot
columns each row takes two real BLAS products, one for its correlations
with every column and one for their residual change, so its updates are
those of a plain row-by-row loop over the same products, bit for bit, and
agree with the column form to rounding. Over one snapshot the row form
makes the column form's dots on numpy scalars.
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
    pass. A column pass
    (``_cd_steps``) instead takes ``np.vecdot(a_t[q], r)`` on contiguous
    rows, one BLAS dot per entry, so a column's bits do not depend on the
    other columns. Where only a bound on many correlations is needed,
    ``r.view(float) @ split`` gives all of them as one real product.
    """

    __slots__ = ("a_t", "split", "rot", "norms_sq", "norms", "lam")

    def __init__(self, a: np.ndarray, col_norms_sq: np.ndarray, lam: np.ndarray):
        m, n = a.shape
        self.a_t = a.T.copy()
        split = np.empty((2 * m, n, 2))
        split[0::2, :, 0], split[1::2, :, 0] = a.real, a.imag
        split[0::2, :, 1], split[1::2, :, 1] = -a.imag, a.real
        self.split = split.reshape(2 * m, 2 * n)
        self.rot = split.transpose(1, 2, 0).copy()
        self.norms_sq = col_norms_sq
        self.norms = np.sqrt(col_norms_sq)
        self.lam = lam


# A sweep visits every row for all columns at once when the working set has
# fewer rows than this beyond twice the largest per-column live count.
_ROW_SWEEP_MARGIN = 16
# Slack of the bound that clears a zero entry, relative to its column's
# residual norm and movement: far above the rounding of any correlation.
_CERTIFY_SLACK = 1e-10
# Zero entries bounded and checked at a time, to bound the gathered residuals.
_CHECK_BLOCK = 512


def _cd_steps(a_t, res, xs, batches, moves) -> None:
    """Exact coordinate updates, one batch of entries per step, in place.

    Step j takes ``(q, m, lam, norm_q, scale)`` from ``batches`` and
    updates, in each snapshot column c < m, the entry at dictionary row
    q[c], whose value is ``xs[j, c]``, whose threshold is lam[c] and whose
    atom has squared norm norm_q[c], against the residual row
    ``res[j][c]``; the updated residual goes to ``res[j + 1]``. ``a_t``
    holds the atoms as rows. norm_q and scale, the reciprocal of norm_q,
    come twice per entry, to act on the real and imaginary parts. Each
    update is a soft threshold of the entry's correlation, written out
    inline, and ``moves[j, c]`` receives the modulus of its move; a zero
    entry whose correlation is within its threshold moves by exactly zero.
    Scaling by a real number acts on the real view: a complex product with
    a real number, and numpy's complex quotient by one, which multiplies by
    its reciprocal, give the same values.
    """
    absolute, maximum, vecdot, subtract, tiny = np.abs, np.maximum, np.vecdot, np.subtract, _TINY
    xv = xs.view(float)
    for j, (q, m, lam, norm_q, scale) in enumerate(batches):
        x_j, r_j, at = xs[j, :m], res[j][:m], a_t[q]
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
        subtract(r_j, at * delta[:, None], out=res[j + 1][:m])
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
    Every snapshot column is its own lasso: in each column the pass visits
    the rows in order and updates an entry that is nonzero, or that is zero
    and whose correlation exceeds its threshold at the visit (it enters); a
    zero entry within its threshold stays zero.

    Only a column's live entries move, so a step updates the next live
    entry of every column at once (``_cd_steps``), and the pass takes as
    many steps as the largest per-column live count. A zero entry is live
    if its start correlation exceeds its threshold. Every other zero entry
    is then shown to stay zero: its correlation at the visit differs from
    the start by at most its atom's norm times the column's movement before
    it (the sum of atom norm times move modulus), so a bound within the
    threshold, with a slack for rounding, clears it; the movement of the
    whole pass clears most of them at once. An entry the bound does not
    clear is checked exactly, against its column's residual as it stood at
    the visit, which each step keeps. A column where such an entry enters
    after all is swept again from its start with that entry live. Each
    column's updates are thus those of the plain per-column loop.

    On a working set of fewer than ``2 k + _ROW_SWEEP_MARGIN`` rows, with
    k the largest per-column count of live entries (or of live entries and
    those over their threshold), the pass goes row by row (``_cd_rows``),
    as many steps as rows; its updates are the same up to rounding, in
    the last bits of the products it takes.
    """
    (n, num_l), lam, norms_sq, norms = x.shape, ws.lam, ws.norms_sq, ws.norms
    live = _nonzero(x)
    if n < 2 * int(live.sum(axis=0).max()) + _ROW_SWEEP_MARGIN:
        return _cd_rows(ws, r, x, (~live.any(axis=1)).tolist())
    parts = r.view(float) @ ws.split  # real and imaginary parts of the start correlations
    np.square(parts, out=parts)
    corr0 = parts[:, 0::2] + parts[:, 1::2]
    np.sqrt(corr0, out=corr0)  # (L, n), as are the candidate masks
    cand = corr0 > lam
    cand |= live.T
    if n < 2 * int(cand.sum(axis=1).max()) + _ROW_SWEEP_MARGIN:
        return _cd_rows(ws, r, x, (~live.any(axis=1)).tolist())
    scale = float(np.linalg.norm(r)) + float(lam.max()) / float(norms.min())
    largest = np.zeros(num_l)
    cols = np.arange(num_l)
    while cols.size:
        # each column's candidates in working-set order, as (column, position)
        # pairs; slots hold the columns by falling count, so that step j
        # updates the slots below widths[j]
        col_cand = cand if cols.size == num_l else cand[cols]
        flat = np.flatnonzero(col_cand)
        cc, pp = np.divmod(flat, n)
        counts = np.bincount(cc, minlength=cols.size)
        by_count = np.argsort(-counts, kind="stable")
        slot = np.argsort(by_count)
        first = np.cumsum(counts) - counts
        k = int(counts[by_count[0]])
        entry = (np.arange(flat.size) - first[cc], slot[cc])
        rows = np.zeros((k, cols.size), dtype=np.intp)
        rows[entry] = pp
        xs = np.zeros((k, cols.size), dtype=x.dtype)
        xs[entry] = x[pp, cols[cc]]
        lams, nsq = lam[rows], norms_sq[rows]
        hist = np.empty((k + 1, cols.size, r.shape[1]), dtype=r.dtype)
        hist[0] = r[cols[by_count]]
        moves = np.zeros((k, cols.size))
        widths = cols.size - np.cumsum(np.bincount(counts, minlength=k)[:k])
        nsq2 = np.repeat(nsq, 2, axis=1)
        inv2 = 1.0 / nsq2
        batches = (
            (rows[j, :m], m, lams[j, :m], nsq2[j, : 2 * m], inv2[j, : 2 * m])
            for j, m in enumerate(widths.tolist())
        )
        _cd_steps(ws.a_t, hist, xs, batches, moves)
        # bound the zero entries by their column's movement, first all of it,
        # then the part before each entry; check the rest exactly
        moves_n = moves * norms[rows]
        total = moves_n.sum(axis=0)[slot]
        slack = _CERTIFY_SLACK * (scale + total)
        reach = np.multiply.outer(total + slack, norms)
        reach += corr0 if cols.size == num_l else corr0[cols]
        reach = reach > lam
        reach &= ~col_cand
        doubt = np.flatnonzero(reach)
        redo = np.zeros(cols.size, dtype=bool)
        if doubt.size:
            moved = np.zeros((k + 1, cols.size))
            np.cumsum(moves_n, axis=0, out=moved[1:])
        for lo in range(0, doubt.size, _CHECK_BLOCK):
            part = doubt[lo:lo + _CHECK_BLOCK]
            dc, dp = np.divmod(part, n)
            at = (np.searchsorted(flat, part) - first[dc], slot[dc])
            bound = moved[at] + slack[dc]
            bound *= norms[dp]
            bound += corr0[cols[dc], dp]
            keep = bound > lam[dp]
            at, dc, dp = (at[0][keep], at[1][keep]), dc[keep], dp[keep]
            enter = np.abs(np.vecdot(ws.a_t[dp], hist[at])) > lam[dp]
            cand[cols[dc[enter]], dp[enter]] = True
            redo[dc[enter]] = True
        if redo.any():
            kept = ~redo[cc]
            pp, cc, entry = pp[kept], cc[kept], (entry[0][kept], entry[1][kept])
        x[pp, cols[cc]] = xs[entry]
        done = np.flatnonzero(~redo)
        r[cols[done]] = hist[counts[done], slot[done]]
        moves *= nsq
        moves /= np.maximum(lams, _TINY)
        largest[cols[done]] = moves.max(axis=0, initial=0.0)[slot[done]]
        cols = cols[redo]
    return float(largest.max())

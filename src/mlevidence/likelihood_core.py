"""Sufficient statistics and integrated / full log-likelihood evaluators.

All data-only sums are computed once (:func:`precompute`).  Each family
then has one kernel (:func:`posterior_system`) that maps a block of
natural variance rows to the Gaussian posterior-precision system of the
coefficients: ``A``, ``rhs``, the remaining log-determinant and data-fit
terms, and a mask of rows with zero density.  Every other evaluator reads
that system: the batched integrated likelihood, the conditional
coefficient posteriors and the AIC profile (with a flat prior).  One
variance point is a block of one row.

Every kernel works in one whitened eigenbasis of X^T X: whitened by the
prior covariance through its Cholesky factor ``spec.prior_chol``, which
the spec computes once, or for a flat prior by the data over the range
of X^T X.  There the single-level precision is diagonal; SimpleMultilevel
subtracts a rank-r correction ``V^T V`` with one row per group (r = J),
and GeneralMultilevel a dense sum of per-group corrections.  The kernel keeps
the SimpleMultilevel correction low-rank only while r < d, so the solves
follow from the shapes of the system alone: diagonal rows cost O(d); with
the low-rank term the matrix determinant lemma and the Woodbury identity
need only an r x r Cholesky factor per row; otherwise the d x d precision
is factored densely.

Low-rank and dense rows alike factor a bordered matrix ``[[M, b], [b^T,
c]]``, whose factor gives log|M| and c - b^T M^-1 b at once, assembled
for a block as one product of per-row weights with a design built once
per kernel (:class:`_Assembly`): stacked per-group outer products for a
dense system (:func:`_dense_assembly`), and for the low-rank one its
Woodbury factor in scaled form, free of the per-row scales
(:class:`LowRank`).  A group's
block and weight depend on the group only through Z_j^T Z_j, so a dense
kernel keeps one group block per distinct Z_j^T Z_j
(:func:`_gram_classes`): its design sums the outer products of the groups
that share one, and the per-group log-determinants become a sum weighted
by the groups per class.  The GeneralMultilevel group blocks take lme4's
relative covariance factor Lambda = chol(Sigma_eta) (:func:`group_blocks`),
so Sigma_eta is never inverted, and their m x m blocks are factored and
inverted one column at a time over all rows and blocks at once, with no
LAPACK call per block.
No evaluator runs an LU solve on a triangular factor: residual quadratic
forms come from a bordered Cholesky factor, other solves from forward
substitution (:func:`solve_lower`).  Large inputs reach a kernel in the
equal blocks of one rule (:func:`row_blocks`), set by the kernel's
per-row size, in the integrated likelihood and in the coefficient
posteriors of a particle cloud alike.

The conjugate family's rows cost O(1): each is its sigma2 = 1 row
rescaled, so :func:`batch_log_integrated` evaluates that row once and
then only ``n log sigma2`` and ``r0 / sigma2`` per row.  The conditional
coefficient posteriors stay in the eigenbasis (:class:`Conditional`), so
that a mixture of them is reduced there before the one basis product.

None of them is a reference for the others.  The references are
independent of the kernel: the quadrature oracle
(:func:`mlevidence.analytic_evidence.quadrature_log_integrated`), the
frozen oracle constants in the tests, and the tests against dense n x n
Gaussian marginals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from mlevidence.model_spec import assemble_sigma_eta

LOG_2PI = float(np.log(2.0 * np.pi))


class _Recent:
    """The values built for the last ``size`` keys, a key being a tuple of objects compared by identity.

    An entry holds its key's objects, so no id in a cached key can be
    reused by a new object.  A hit makes its entry the newest; a miss
    builds the value, first dropping the oldest entry when ``size`` are held.
    """

    def __init__(self, size):
        self.size = size
        self.entries = {}   # ids -> (key objects, value), oldest first

    def get(self, key, build):
        ids = tuple(map(id, key))
        entry = self.entries.pop(ids, None)
        if entry is None:
            entry = (key, build())
            if len(self.entries) == self.size:
                del self.entries[next(iter(self.entries))]
        self.entries[ids] = entry
        return entry[1]


# Kernels by (stats, spec, flat).  A kernel is the whole fixed cost of a
# likelihood (an eigendecomposition and, for a dense system, a design of up
# to a few MB), and a sampler run, its posterior recovery and the next runs
# on the same data all ask for it.  Two entries cover an evidence estimate
# and its posterior, or two models used in turn, while keeping at most two
# designs and their buffers alive.
_KERNEL_CACHE = _Recent(2)


@dataclass(frozen=True)
class SufficientStats:
    """Data-only sums required by the integrated likelihoods.

    Per-group arrays are indexed 0..J-1 for groups labeled 1..J.
    """

    n: int
    J: int
    d: int
    m: int
    sum_yy: float
    sum_xy: np.ndarray          # (d,)
    gram_xx: np.ndarray         # (d, d)
    group_sum_y: np.ndarray     # (J,)
    group_sum_x: np.ndarray     # (J, d)
    group_gram_zz: np.ndarray   # (J, m, m)
    group_sum_zy: np.ndarray    # (J, m)
    group_cross_xz: np.ndarray  # (J, d, m)
    n_per_group: np.ndarray     # (J,)

    def __post_init__(self):
        for name in (
            "sum_xy", "gram_xx", "group_sum_y", "group_sum_x",
            "group_gram_zz", "group_sum_zy", "group_cross_xz", "n_per_group",
        ):
            getattr(self, name).setflags(write=False)


@dataclass(frozen=True)
class ThetaPoint:
    """A point in variance space.

    ``sigma2_y`` is the observation noise variance (plain ``sigma2`` for
    single-level families).  ``sigma2_eta`` applies to SimpleMultilevel;
    ``nu = (variances, rho)`` applies to GeneralMultilevel.
    """

    sigma2_y: float
    sigma2_eta: float | None = None
    nu: tuple | None = None

    def __post_init__(self):
        if not 0 < self.sigma2_y < np.inf:
            raise ValueError("sigma2_y must be strictly positive and finite")
        if self.sigma2_eta is not None and not 0 <= self.sigma2_eta < np.inf:
            raise ValueError("sigma2_eta must be nonnegative and finite")
        if self.nu is not None:
            variances, rho = self.nu
            # A copy, so that freezing it leaves the caller's array as it was.
            variances = np.array(variances, dtype=float)
            if not np.all((variances > 0) & (variances < np.inf)):
                raise ValueError("nu variances must be strictly positive and finite")
            if not -1.0 < rho < 1.0:
                raise ValueError("rho must lie in (-1, 1)")
            variances.setflags(write=False)
            object.__setattr__(self, "nu", (variances, float(rho)))


def _canonical_order(data):
    """Row order sorted by (group, y, x, z): a function of the set of rows alone.

    Each row is one record of float fields, compared field by field, so a
    comparison stops at the first field that differs.  This is the order of
    ``np.lexsort`` over all columns, without its one full sort per column.
    """
    keys = np.column_stack([data.group_of, data.y, data.x, data.z])
    rows = keys.view(np.dtype([(f"f{i}", "f8") for i in range(keys.shape[1])]))
    return np.argsort(rows.ravel(), kind="stable")


def precompute(data):
    """One pass over the data, accumulating all sums in a canonical order.

    The rows are sorted once by (group, y, x, z), so each group is one
    contiguous segment; every per-group sum is a segmented sum over the
    sorted rows and the global sums are products of them.  Any permutation
    of the input rows yields bit-identical statistics.
    """
    n, d, m, J = data.n, data.d, data.m, data.J
    order = _canonical_order(data)
    y, x, z = data.y[order], data.x[order], data.z[order]
    starts = np.cumsum(data.n_per_group) - data.n_per_group

    def group_sums(a):
        return np.add.reduceat(a, starts, axis=0)

    group_cross_xz = np.empty((J, d, m))
    for k in range(m):      # one (n, d) product per z column, not an (n, d, m) one
        group_cross_xz[:, :, k] = group_sums(x * z[:, k, None])
    return SufficientStats(
        n=n, J=J, d=d, m=m,
        sum_yy=float(y @ y), sum_xy=x.T @ y, gram_xx=x.T @ x,
        group_sum_y=group_sums(y), group_sum_x=group_sums(x),
        group_gram_zz=group_sums((z[:, :, None] * z[:, None, :]).reshape(n, m * m)).reshape(J, m, m),
        group_sum_zy=group_sums(z * y[:, None]),
        group_cross_xz=group_cross_xz,
        n_per_group=data.n_per_group.astype(np.int64).copy(),
    )


@lru_cache
def _tril_mirror(k):
    """``(ti, tj, mirror)``: the (i, j) of the k x k lower triangle, entry by
    entry, and for each entry of a flattened k x k matrix the index of its
    lower-triangle entry.  Built once per k, as read-only arrays."""
    ti, tj = np.tril_indices(k)
    mirror = np.empty((k, k), dtype=np.intp)
    mirror[ti, tj] = mirror[tj, ti] = np.arange(ti.size)
    mirror = mirror.ravel()
    for a in (ti, tj, mirror):
        a.setflags(write=False)
    return ti, tj, mirror


class _Assembly:
    """Bordered matrices ``[[M, b], [b^T, c]]`` (P, k+1, k+1), each row one product ``weights @ design``.

    ``design`` (q, T), zero until its kernel fills it once, has one column
    per lower-triangle entry in ``np.tril_indices`` order (``tri``);
    ``diag``, ``border`` and ``corner`` are those of M's diagonal, b and c.
    The caller fills ``weights(P)`` and calls the assembly on them.  The
    weights, the product and its mirror are views of buffers grown to the
    largest block seen, so a result is valid until the next call.
    """

    def __init__(self, k, q):
        self.order = k + 1
        ti, tj, self.mirror = _tril_mirror(k + 1)
        self.tri = ti, tj
        at = self.mirror.reshape(k + 1, k + 1)
        self.diag, self.border, self.corner = at[range(k), range(k)], at[k, :k], at[k, k]
        self.design = np.zeros((q, ti.size))
        self.buffers = [np.empty((0, w)) for w in (q, ti.size, (k + 1) ** 2)]

    def weights(self, P):
        if P > self.buffers[0].shape[0]:
            self.buffers = [np.empty((P, a.shape[1])) for a in self.buffers]
        return self.buffers[0][:P]

    def __call__(self, weights):
        P = weights.shape[0]
        _, lower, full = self.buffers
        lower = np.matmul(weights, self.design, out=lower[:P])
        k = self.order
        return np.take(lower, self.mirror, axis=1, out=full[:P], mode="clip").reshape(P, k, k)


class LowRank(NamedTuple):
    """A rank-r correction ``V = S X`` (P, r, d'): per-row scales S = diag(s) of fixed rows X.

    Its Woodbury factor is taken in scaled form, ``K' = S^-2 - X D^-1 X^T``
    (see :func:`logdet_resid`), one product of per-row weights with the
    fixed design of the kernel's ``assembly``.
    """

    inv_s2: np.ndarray          # (P, r)
    X: np.ndarray               # (r, d')
    assembly: _Assembly         # weights [x, x y, c, 1/s^2], d' + d' + 1 + r of them

    @staticmethod
    def assembly_of(X):
        """The assembly of :meth:`bordered`, built once per kernel: -X[i] X[j], X^T, 1 and I rows."""
        r, d = X.shape
        assembly = _Assembly(r, 2 * d + 1 + r)
        design = assembly.design
        ti, tj = assembly.tri
        inner = ti < r
        design[:d, inner] = -(X[ti[inner]] * X[tj[inner]]).T
        design[d:2 * d, assembly.border] = X.T
        design[2 * d, assembly.corner] = 1.0
        design[2 * d + 1 + np.arange(r), assembly.diag] = 1.0
        return assembly

    def bordered(self, x, y, c):
        """``[[S^-2 - X diag(x) X^T, X (x y)], [(X (x y))^T, c]]`` of every row, (P, r+1, r+1).

        x and y are (P, d'), c is (P,).  With x = 1/A and y = rhs this is
        K' bordered by X D^-1 rhs (see :func:`logdet_resid`), in the
        assembly's buffers.
        """
        P, d = x.shape
        weights = self.assembly.weights(P)
        weights[:, :d] = x
        np.multiply(x, y, out=weights[:, d:2 * d])
        weights[:, 2 * d] = c
        weights[:, 2 * d + 1:] = self.inv_s2
        return self.assembly(weights)


class System(NamedTuple):
    """Posterior-precision system of a block of P variance rows.

    The integrated log likelihood of a row is
    ``-0.5 * (n log 2pi + log|A| + logdet + datafit - rhs^T A^-1 rhs)`` and
    the conditional coefficient posterior is ``N(A^-1 rhs, A^-1)``.

    The system is in the coordinates g of ``beta = basis @ g`` (the
    :func:`_eigenbasis`, of width d' <= d), and ``logdet`` carries the
    change of basis.  ``A`` is either dense, or diagonal and stored as
    (P, d'); a diagonal ``A`` may come with a :class:`LowRank` term ``V``
    of rank r < d', and the precision is ``diag(A) - V^T V``.  A dense
    system also carries its rows' bordered matrices
    ``[[A, rhs], [rhs^T, datafit]]``, of which ``A``, ``rhs`` and
    ``datafit`` are views.

    A dense system's arrays, and the bordered matrices of a low-rank
    term's :meth:`LowRank.bordered`, are views of its kernel's
    :class:`_Assembly` buffers, valid until the kernel's next call of the
    same kind: a caller that keeps them longer copies them.
    """

    A: np.ndarray           # (P, d', d') dense, or (P, d') diagonal
    rhs: np.ndarray         # (P, d')
    logdet: np.ndarray      # (P,) log-determinant terms besides log|A|
    datafit: np.ndarray     # (P,) quadratic terms besides rhs^T A^-1 rhs
    ok: np.ndarray          # (P,) False where the row has zero density
    basis: np.ndarray       # (d, d')
    V: LowRank | None = None      # precision diag(A) - V^T V
    bordered: np.ndarray | None = None   # (P, d'+1, d'+1) when A is dense


def theta_row(theta):
    """The (1, k) natural row of a ThetaPoint; the correlation is always included."""
    row = [theta.sigma2_y]
    if theta.sigma2_eta is not None:
        row.append(theta.sigma2_eta)
    if theta.nu is not None:
        row += [*theta.nu[0], theta.nu[1]]
    return np.array([row], dtype=float)


# ---------------------------------------------------------------------------
# One kernel per family: natural variance rows -> System.
# ---------------------------------------------------------------------------

def _eigenbasis(stats, spec, flat):
    """The whitened eigenbasis of X^T X: ``(basis, lam, p, a, b)``.

    The coordinates g of ``beta = basis @ g`` have prior precision ``p I``,
    ``X^T X = diag(lam)``, prior precision times prior mean ``a`` and
    ``X^T y = b``.  A proper prior whitens by its covariance ``L L^T``,
    L = ``spec.prior_chol``: ``basis = L Q``, where Q diagonalizes
    ``L^T X^T X L``, and p = 1.  A flat prior whitens by the data:
    ``basis = Q lam^-1/2`` over the range of X^T X (eigenvalues above
    1e-10 times the largest, or times 1), so lam = 1, p = 0 and a = 0.
    The null directions of a rank-deficient design drop out; no likelihood
    depends on them.
    """
    if flat:
        lam, Q = np.linalg.eigh(stats.gram_xx)
        keep = lam > max(lam.max(), 1.0) * 1e-10
        basis = Q[:, keep] / np.sqrt(lam[keep])
        r = basis.shape[1]
        return basis, np.ones(r), 0.0, np.zeros(r), basis.T @ stats.sum_xy
    L = spec.prior_chol
    lam, Q = np.linalg.eigh(L.T @ stats.gram_xx @ L)
    a = Q.T @ solve_lower(L, spec.prior_mean[:, None])[:, 0]
    return L @ Q, np.clip(lam, 0.0, None), 1.0, a, Q.T @ (L.T @ stats.sum_xy)


def _single_level_kernel(stats, spec, flat):
    """LinearModel and LinearModelNIG, diagonal in the :func:`_eigenbasis`.

    One eigendecomposition, then O(d) per row.  The conjugate family's
    prior covariance ``gamma * sigma2 * L L^T`` scales the prior terms by
    ``c = 1 / (gamma * sigma2)``; a flat prior (p = 0) has none.
    """
    basis, lam, p, a, b = _eigenbasis(stats, spec, flat)
    quad = a @ a    # mu^T cov^-1 mu

    def system(nat):
        s2 = nat[:, 0]
        c = np.ones(s2.shape) if spec.gamma is None else 1.0 / (spec.gamma * s2)
        return System(
            A=p * c[:, None] + lam[None, :] / s2[:, None],
            rhs=c[:, None] * a[None, :] + b[None, :] / s2[:, None],
            # log|L L^T| itself cancels against |det basis|^2.
            logdet=stats.n * np.log(s2) - p * lam.size * np.log(c),
            datafit=c * quad + stats.sum_yy / s2,
            ok=np.ones(s2.shape, dtype=bool),
            basis=basis,
        )

    system.row_entries = lam.size
    # With a proper prior (p = 1) each conjugate row is the sigma2 = 1 row
    # scaled: A, rhs and the residual by 1 / sigma2, and log|A| + logdet by
    # n log sigma2, the prior's d' log sigma2 cancelling that of log|A|.
    system.scaled_rows = spec.gamma is not None and p == 1.0
    return system


def _sm_kernel(stats, spec, flat):
    """SimpleMultilevel: group intercepts integrated out in closed form.

    Group j removes ``w_j x_j x_j^T / sigma2_y`` from the single-level
    precision, with shrinkage weight
    ``w_j = sigma2_eta / (sigma2_y + n_j sigma2_eta)`` and x_j the group's
    column sums.  In the :func:`_eigenbasis` that is the diagonal
    single-level precision minus ``V^T V``, where row j of V is
    ``sqrt(w_j / sigma2_y) basis^T x_j``: a rank-J correction.  Here
    Z_j^T Z_j = n_j, so the weights and the ``log(1 + n_j sigma2_eta /
    sigma2_y)`` terms are computed once per distinct group size
    (:func:`_gram_classes`).

    This is where the form of the solves is chosen, from shapes alone.
    While J < d the system keeps V = S X (:class:`LowRank`, s_j^2 =
    w_j / sigma2_y), so that the solves need only a J x J Woodbury factor
    per row.  Otherwise the system is dense: the m = 1
    case of the GeneralMultilevel assembly (:func:`_dense_assembly`), with
    group weight ``w_j / sigma2_y`` on the outer product of
    ``R_j = [basis^T x_j  Y_j]``, Y_j the group's response sum, so that it
    holds one group block per distinct n_j.
    """
    eig = basis, lam, p, a, b = _eigenbasis(stats, spec, flat)
    d = lam.size
    quad = a @ a
    grams, inverse, counts = classes = _gram_classes(stats.n_per_group.astype(float)[:, None, None])
    sizes = grams[:, 0, 0]
    Yj = stats.group_sum_y
    Xb = stats.group_sum_x @ basis          # (J, d): rows basis^T x_j
    low_rank = stats.J < d
    if low_rank:
        yXb = Yj[:, None] * Xb
        yy = Yj ** 2
        woodbury = LowRank.assembly_of(Xb)
    else:
        dense = _dense_assembly(stats, eig, np.concatenate([Xb, Yj[:, None]], axis=1)[:, None], classes)

    def system(nat):
        s2y, s2e = nat[:, 0], nat[:, 1]
        w = s2e[:, None] / (s2y[:, None] + sizes[None, :] * s2e[:, None])    # (P, U)
        # log|L L^T| itself cancels against |det basis|^2.
        logdet = stats.n * np.log(s2y) + np.log1p(sizes * s2e[:, None] / s2y[:, None]) @ counts
        ok = np.ones(s2y.shape, dtype=bool)
        if not low_rank:
            return dense(s2y, (w / s2y[:, None])[:, None, None, :], logdet, ok)
        w = w[:, inverse]
        # s_j^2 = w_j / sigma2_y, floored so that sigma2_eta = 0 keeps a finite 1 / s_j^2.
        s2 = np.maximum(w / s2y[:, None], np.finfo(float).tiny)
        return System(
            A=p + lam[None, :] / s2y[:, None],
            rhs=p * a[None, :] + (b[None, :] - w @ yXb) / s2y[:, None],
            logdet=logdet,
            datafit=quad + (stats.sum_yy - w @ yy) / s2y,
            ok=ok,
            basis=basis,
            V=LowRank(1.0 / s2, Xb, woodbury),
        )

    # A block size, not a footprint: the low-rank count is set by timing
    # sim:M1's 16-run batches at several block sizes (200-row blocks beat
    # 400-row ones), while the dense count stays (d+1)^2 because halving
    # sim:M2's blocks was slower.
    system.row_entries = 2 * (stats.J + 1) ** 2 + 2 * d if low_rank else max((d + 1) ** 2, counts.size)
    system.scaled_rows = False
    return system


def _gm_kernel(stats, spec, flat):
    """GeneralMultilevel: per-group m x m blocks integrated out, in the :func:`_eigenbasis`.

    Group j's effects have posterior precision
    ``M_j = Sigma_eta^-1 + G_j / sigma2_y``, G_j = Z_j^T Z_j.  The kernel
    never forms Sigma_eta^-1: :func:`group_blocks` works with the relative
    covariance factor Lambda = chol(Sigma_eta), as lme4 does, and returns
    ``M_j^-1 = Lambda K_j^-1 Lambda^T`` and
    ``log|Sigma_eta| + log|M_j| = log|K_j|``.  Both depend on a group
    only through G_j, so they are computed once per distinct G_j
    (:func:`_gram_classes`), and ``sum_j log|K_j|`` is their sum weighted
    by the groups per class.

    Each row's bordered matrix ``[[A, rhs], [rhs^T, datafit]]`` is then one
    product (:func:`_dense_assembly`), with class weights
    ``M_j^-1 / sigma2_y^2`` on the summed outer products of the rows of
    ``R_j = [C_j^T basis  s_j]``, C_j = X_j^T Z_j and s_j = Z_j^T y_j.

    Rows whose group-level covariance fails the positive-definiteness gate
    are computed on a stand-in matrix and masked.
    """
    eig = _eigenbasis(stats, spec, flat)
    layout = spec.layout
    R = np.concatenate(
        [stats.group_cross_xz.transpose(0, 2, 1) @ eig[0], stats.group_sum_zy[:, :, None]], axis=2
    )                                                         # (J, m, d+1)
    grams, _, counts = classes = _gram_classes(stats.group_gram_zz)
    dense = _dense_assembly(stats, eig, R, classes)

    def system(nat):
        s2y = nat[:, 0]
        chol, ok = layout.sigma_eta(nat)
        m_inv, logdet_k = group_blocks(chol, grams, s2y)
        logdet_k = logdet_k @ counts
        # Rounding can drive a sweep pivot below zero (exactly it is >= 1) at
        # variance ratios near 1e16 with a singular Z_j^T Z_j: mask the row.
        ok = ok & np.isfinite(logdet_k)
        # log|L L^T| itself cancels against |det basis|^2.
        logdet = stats.n * np.log(s2y) + logdet_k
        return dense(s2y, m_inv / (s2y ** 2)[:, None, None, None], logdet, ok)

    # group_blocks and the weights hold about six (m, m) blocks per distinct G_j per row at once.
    system.row_entries = max((eig[1].size + 1) ** 2, 6 * grams.size)
    system.scaled_rows = False
    return system


_KERNELS = {
    "LinearModel": _single_level_kernel,
    "LinearModelNIG": _single_level_kernel,
    "SimpleMultilevel": _sm_kernel,
    "GeneralMultilevel": _gm_kernel,
}


def posterior_system(stats, spec, flat=False):
    """The family's kernel: a function mapping (P, k) natural variance rows to a :class:`System`.

    Natural rows are laid out as ``spec.layout`` says; a GeneralMultilevel
    row may carry its correlation even when the spec fixes it.  The kernel
    whitens by the spec's prior factor ``spec.prior_chol``, or with
    ``flat=True`` (the AIC profile) has a flat coefficient prior; every
    family's kernel takes either.  The function's ``row_entries`` sets
    the block sizes of :func:`row_blocks`, in which the integrated
    likelihood and the conditional posteriors of a coefficient mixture
    take large inputs.
    It is the size of a row's largest array (the bordered matrix of a
    dense system, the blocks of the distinct Z_j^T Z_j, or the d' diagonal),
    except for a low-rank SimpleMultilevel system, whose count
    ``2 (J+1)^2 + 2 d'`` was chosen by timing block sizes rather than by
    counting the row's memory.
    Its ``scaled_rows`` is True when every row is the sigma2 = 1 row
    rescaled (the conjugate family with a proper prior), so that
    :func:`batch_log_integrated` needs that one row only.

    A kernel is built once per ``(stats, spec, flat)`` and returned again
    for the same objects while it is one of the last two asked for
    (``_KERNEL_CACHE``).  A dense kernel writes each
    :class:`System`, and a low-rank one its bordered Woodbury matrices,
    into its :class:`_Assembly` buffers, so a result is valid until the
    kernel's next call, from any caller; every caller in the package
    consumes it first.
    A kernel is therefore not to be called from two threads at once.
    """
    return _KERNEL_CACHE.get((stats, spec, flat), lambda: _KERNELS[spec.family](stats, spec, flat))


def _gram_classes(grams):
    """Groups by their Gram matrix Z_j^T Z_j (J, m, m): ``(distinct, inverse, counts)``.

    ``distinct`` (U, m, m) holds the U distinct matrices in ``np.unique``'s
    order, ``inverse`` (J,) the class of each group and ``counts`` (U,),
    as floats, the groups per class.  A group's block, its weight and its
    log-determinant depend on the group only through its Gram matrix, so
    a kernel computes them once per class.
    """
    J, m = grams.shape[:2]
    distinct, inverse, counts = np.unique(
        grams.reshape(J, m * m), axis=0, return_inverse=True, return_counts=True
    )
    return distinct.reshape(-1, m, m), inverse.reshape(J), counts.astype(float)


def group_blocks(chol_eta, Gz, s2y):
    """Group blocks in lme4's relative-factor form: ``M_j^-1`` and ``log|K_j|``.

    ``chol_eta`` (P, m, m) is Lambda = chol(Sigma_eta) of each row, ``Gz``
    (J, m, m) the groups' Z_j^T Z_j and ``s2y`` (P,) the noise variances.
    With ``K_j = I + Lambda^T G_j Lambda / sigma2_y``, the precision
    ``M_j = Sigma_eta^-1 + G_j / sigma2_y`` is ``Lambda^-T K_j Lambda^-1``,
    so ``M_j^-1 = Lambda K_j^-1 Lambda^T`` and
    ``log|Sigma_eta| + log|M_j| = log|K_j|``: Sigma_eta is never inverted.
    The blocks depend on a group only through G_j, so the kernels pass one
    G_j per distinct Gram matrix (:func:`_gram_classes`).

    Lambda^T G_j Lambda of all groups is one product of the Kronecker form
    of Lambda against the (m^2, J) Gram stack, and Lambda K_j^-1 Lambda^T
    one product of its transpose.  K_j is factored and inverted together
    by symmetric Gauss-Jordan sweeps on its lower triangle, one column per
    step, each step a few operations on one contiguous (P, J) plane per
    entry.  The sweep's pivots are the squared diagonal of the Cholesky
    factor of K_j, Schur complements of a matrix >= I, so each is >= 1 and
    needs no guard even where Sigma_eta is nearly singular; log|K_j| is
    the sum of their logs.  Returns ``M_j^-1`` as (P, m, m, J) and the
    log-determinants as (P, J).
    """
    P, m = chol_eta.shape[:2]
    J = Gz.shape[0]
    ti, tj, mirror = _tril_mirror(m)
    at = mirror.reshape(m, m)       # at[a, b]: the plane of entry (a, b)
    kron = np.einsum("pka,plb->pabkl", chol_eta, chol_eta).reshape(P, m * m, m * m)
    K = np.empty((ti.size, P, J))
    LGL = kron[:, ti * m + tj].reshape(-1, m * m) @ Gz.reshape(J, m * m).T    # one product
    np.divide(LGL.reshape(P, ti.size, J).transpose(1, 0, 2), s2y[:, None], out=K)
    K[at[range(m), range(m)]] += 1.0
    logdet = np.zeros((P, J))
    # A pivot that rounding drove to zero or below gives a non-finite log-determinant.
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(m):
            d = K[at[k, k]]
            logdet += np.log(d)
            col = {i: K[at[i, k]] / d for i in range(m) if i != k}
            for i, j in zip(ti, tj):
                if i != k and j != k:
                    K[at[i, j]] -= col[i] * K[at[j, k]]
            for i, c in col.items():
                K[at[i, k]] = c
            np.divide(-1.0, d, out=d)
        # The sweeps leave -K_j^-1 in K.
        m_inv = kron.transpose(0, 2, 1) @ K[mirror].transpose(1, 0, 2)
        return np.negative(m_inv, out=m_inv).reshape(P, m, m, J), logdet


def _dense_assembly(stats, eig, R, classes):
    """Dense :class:`System` rows, each bordered matrix ``[[A, rhs], [rhs^T, datafit]]`` a product.

    ``eig`` is the :func:`_eigenbasis`, ``R`` (J, m, k) the groups'
    stacks, k = d' + 1, and ``classes`` the :func:`_gram_classes` of the
    groups.  A row's bordered matrix is
    ``B_0 + B_1 / sigma2_y - sum_j R_j^T W_j R_j``, with the base matrices
    ``B_0 = [[p I, a], [a^T, a^T a]]`` (prior) and
    ``B_1 = [[diag(lam), b], [b^T, y^T y]]`` (data) and symmetric m x m
    group weights W_j.  A weight depends on its group only through
    Z_j^T Z_j, so groups of one class share it, and their terms are one
    weight times the sum of their products.  All of it is one
    :class:`_Assembly` product of the rows' weights
    ``[1, 1 / sigma2_y, -(W_u)_ab for a >= b]``, one per class u.  A
    class's design rows hold the sums over its groups of the lower
    triangles of ``R_j[a]^T R_j[b] + R_j[b]^T R_j[a]`` (once for a = b),
    built pair by pair, so the largest temporary is (J, k(k+1)/2).

    Returns ``dense(s2y, W, logdet, ok)``, W of shape (P, m, m, U) for the
    U classes; the system it returns is valid until its next call.
    """
    basis, lam, p, a, b = eig
    _, inverse, counts = classes
    d = lam.size
    ga, gb = np.tril_indices(R.shape[1])
    U = counts.size
    assembly = _Assembly(d, 2 + ga.size * U)
    design = assembly.design
    design[:2, assembly.diag] = np.full(d, p), lam
    design[:2, assembly.border] = a, b
    design[:2, assembly.corner] = a @ a, stats.sum_yy
    ti, tj = assembly.tri
    for n, (i, j) in enumerate(zip(ga, gb)):
        pair = R[:, i, ti] * R[:, j, tj]
        if i != j:
            pair += R[:, j, ti] * R[:, i, tj]
        np.add.at(design[2 + n * U:2 + (n + 1) * U], inverse, pair)

    def dense(s2y, W, logdet, ok):
        P = s2y.shape[0]
        weights = assembly.weights(P)
        weights[:, 0] = 1.0
        np.divide(1.0, s2y, out=weights[:, 1])
        np.negative(W[:, ga, gb].reshape(P, -1), out=weights[:, 2:])
        full = assembly(weights)
        return System(
            A=full[:, :d, :d], rhs=full[:, :d, d], logdet=logdet, datafit=full[:, d, d], ok=ok,
            basis=basis, bordered=full,
        )

    return dense


def solve_lower(L, B):
    """``L^-1 B`` for lower-triangular ``L`` (..., k, k) and ``B`` (..., k, c), by forward substitution.

    Leading dimensions broadcast.  The loop runs over k, one row of X per
    step: cheap for the batched small orders of the kernels (group widths
    and the rank of a correction), and for the single d x d factors that
    :func:`chol_inverse` inverts (the coefficient prior of full mode and of
    the closed-form conjugate evidence) it costs a few ms at d = 134.
    """
    X = np.empty(np.broadcast_shapes(L.shape[:-2], B.shape[:-2]) + B.shape[-2:])
    for i in range(L.shape[-1]):
        X[..., i, :] = (
            B[..., i, :] - np.einsum("...k,...kc->...c", L[..., i, :i], X[..., :i, :])
        ) / L[..., i, i, None]
    return X


def chol_inverse(M):
    """``(L, L^-1, log|M|)`` of a positive-definite ``M = L L^T``; raises ``LinAlgError`` otherwise."""
    L = np.linalg.cholesky(M)
    return L, solve_lower(L, np.eye(M.shape[-1])), 2.0 * float(np.sum(np.log(np.diag(L))))


def _bordered(full):
    """``log|M|`` and ``c - b^T M^-1 b`` of every row of ``full = [[M, b], [b^T, c]]``.

    ``full`` is (P, k+1, k+1) with M positive-definite.  Both values come
    from one Cholesky factor of it, whose last diagonal entry is
    ``sqrt(c - b^T M^-1 b)``.  Where that fails for some row, the block is
    redone one row at a time, so the other rows keep their values.  A
    failing row falls back to a factor of M and forward substitution,
    which gives an exact zero residual (y = 0) its finite value.  Where
    rounding swamps the row, so that M has no factor either or the
    residual comes out negative, its residual is +inf: its likelihood is
    -inf, as for a row outside the support.
    """
    k = full.shape[1] - 1
    try:
        diag = np.einsum("pii->pi", np.linalg.cholesky(full))
        return 2.0 * np.sum(np.log(diag[:, :k]), axis=1), diag[:, k] ** 2
    except np.linalg.LinAlgError:
        pass
    if full.shape[0] > 1:
        rows = [_bordered(full[i:i + 1]) for i in range(full.shape[0])]
        return tuple(np.concatenate(part) for part in zip(*rows))
    try:
        L = np.linalg.cholesky(full[:, :k, :k])
    except np.linalg.LinAlgError:
        return np.zeros(1), np.full(1, np.inf)
    t = solve_lower(L, full[:, :k, k:])[:, :, 0]
    resid = full[:, k, k] - np.sum(t * t, axis=1)
    logdet = 2.0 * np.sum(np.log(np.einsum("pii->pi", L)), axis=1)
    return logdet, np.where(resid < 0.0, np.inf, resid)


def logdet_resid(s):
    """``log|A|`` and ``datafit - rhs^T A^-1 rhs`` of every row of a system.

    A low-rank row uses ``|D - V^T V| = |D| |K|`` (matrix determinant
    lemma) and ``(D - V^T V)^-1 = D^-1 + (V D^-1)^T K^-1 (V D^-1)``
    (Woodbury), ``K = I - V D^-1 V^T`` and ``D = diag(A)``.  With V = S X,
    ``K = S K' S`` for ``K' = S^-2 - X D^-1 X^T``: the residual is that of
    K' bordered by X D^-1 rhs (one r x r factor), and
    ``log|K| = log|K'| + 2 sum_j log s_j``, a term of log|A| that stays out
    of ``System.logdet`` (the AIC profile reads that without log|A|).
    """
    if s.A.ndim == 3:
        return _bordered(s.bordered)
    logdet = np.sum(np.log(s.A), axis=1)
    resid = s.datafit - np.sum(s.rhs * s.rhs / s.A, axis=1)
    if s.V is None:
        return logdet, resid
    logdet_k, resid = _bordered(s.V.bordered(1.0 / s.A, s.rhs, resid))
    return logdet + logdet_k - np.sum(np.log(s.V.inv_s2), axis=1), resid


# Rows per kernel call: a block's largest temporaries stay near 2^17
# entries (1 MB), so the allocator reuses them instead of returning them to
# the system and faulting them in again on the next call.  On sim:M1 and
# sim:M2 rows (d = 46) larger blocks cost up to 1.5x more per row.
_BLOCK_ENTRIES = 2 ** 17


def row_blocks(rows, row_entries):
    """The (P, k) ``rows`` in equal blocks of at most ``2^17 / row_entries`` rows.

    ``row_entries`` is a kernel's (see :func:`posterior_system`).  This is
    the one block rule of every caller that takes a kernel's rows in blocks.
    """
    P = rows.shape[0]
    most = max(1, _BLOCK_ENTRIES // row_entries)
    if P <= most:
        return [rows]
    blocks = -(-P // most)   # ceil(P / most) blocks of equal size
    step = -(-P // blocks)
    return [rows[i:i + step] for i in range(0, P, step)]


def batch_log_integrated(stats, spec):
    """Build a vectorized integrated-likelihood evaluator.

    The returned function maps a (P, k) array of natural-scale variance
    parameters to (P,) log likelihood values, with k = 1 for the
    single-level families, 2 for SimpleMultilevel, and 1 + m (+1 when the
    correlation is sampled) for GeneralMultilevel.  Rows whose group-level
    covariance is not positive-definite get ``-inf``.  Large inputs are
    evaluated in the equal blocks of :func:`row_blocks`.

    A kernel with ``scaled_rows`` costs O(1) per row: the log likelihood
    is ``-0.5 (c0 + n log sigma2 + r0 / sigma2)``, with c0 and r0 the
    constant and residual of the kernel's own sigma2 = 1 row.
    """
    system = posterior_system(stats, spec)
    n = stats.n
    scaled = system.scaled_rows and n > 0   # no data: the generic rows give exactly 0
    if scaled:
        one = system(np.ones((1, 1)))
        logdet_a, resid = logdet_resid(one)
        c0, r0 = n * LOG_2PI + logdet_a[0] + one.logdet[0], resid[0]

    def block_loglik(theta):
        if scaled:
            s2 = theta[:, 0]
            return -0.5 * (c0 + n * np.log(s2) + r0 / s2)
        s = system(theta)
        if n == 0:
            return np.where(s.ok, 0.0, -np.inf)
        logdet_a, resid = logdet_resid(s)
        val = -0.5 * (n * LOG_2PI + logdet_a + s.logdet + resid)
        return np.where(s.ok, val, -np.inf)

    def loglik(theta):
        return np.concatenate([block_loglik(block) for block in row_blocks(theta, system.row_entries)])

    return loglik


# ---------------------------------------------------------------------------
# Full likelihood over (coefficients, group effects).
# ---------------------------------------------------------------------------

def group_design(stats, z_effects):
    """Per-group sums (Z^T Z, Z^T y, X^T Z) of the group-effect design z.

    Shapes (J, k, k), (J, k) and (J, d, k).  ``z_effects`` selects the
    data's z columns, otherwise the design is one group intercept (z = 1);
    None means no group effects.
    """
    if z_effects is None:
        return None
    if z_effects:
        return stats.group_gram_zz, stats.group_sum_zy, stats.group_cross_xz
    return (
        stats.n_per_group.astype(float)[:, None, None],
        stats.group_sum_y[:, None],
        stats.group_sum_x[:, :, None],
    )


def batch_log_full(stats, spec):
    """Vectorized exact Gaussian log-density of y given coefficients and group effects.

    The returned function takes ``(beta, eta, sigma2_y)`` with shapes
    (P, d), (P, J) or (P, J, m) or None, and (P,).  Priors are not
    included (the sampler adds them).
    """
    z_effects = spec.layout.z_effects

    def log_full(beta, eta, sigma2_y):
        rss = (
            stats.sum_yy
            - 2.0 * beta @ stats.sum_xy
            + np.einsum("pa,ab,pb->p", beta, stats.gram_xx, beta, optimize=True)
        )
        if z_effects is not None:
            Gz, Szy, Cxz = group_design(stats, z_effects)
            eta = eta.reshape(beta.shape[0], stats.J, -1)
            rss = rss + (
                np.einsum("pja,jab,pjb->p", eta, Gz, eta, optimize=True)
                - 2.0 * np.einsum("pja,ja->p", eta, Szy, optimize=True)
                + 2.0 * np.einsum("pa,jab,pjb->p", beta, Cxz, eta, optimize=True)
            )
        return -0.5 * (stats.n * (LOG_2PI + np.log(sigma2_y)) + rss / sigma2_y)

    return log_full


# ---------------------------------------------------------------------------
# Conditional coefficient posteriors.
# ---------------------------------------------------------------------------

class Conditional(NamedTuple):
    """Conditional coefficient posteriors of P variance rows, in the coordinates g of ``beta = basis @ g``.

    Row p is ``N(mean[p], C_p)``.  A dense system gives ``C_p = dense[p]``;
    a diagonal one ``C_p = diag(diag[p])``, plus ``W[p]^T W[p]`` when it has
    a low-rank term, W the Woodbury factor ``L'^-1 X D^-1`` with
    ``L' L'^T = S^-2 - X D^-1 X^T`` (see :func:`logdet_resid`).
    """

    mean: np.ndarray                    # (P, d')
    basis: np.ndarray                   # (d, d')
    diag: np.ndarray | None = None      # (P, d')
    W: np.ndarray | None = None         # (P, r, d')
    dense: np.ndarray | None = None     # (P, d', d')

    def cov_sum(self):
        """``sum_p C_p`` (d', d'), with no per-row d' x d' matrix unless the system is dense."""
        if self.dense is not None:
            return self.dense.sum(axis=0)
        cov = np.diag(self.diag.sum(axis=0))
        if self.W is not None:
            W = self.W.reshape(-1, self.W.shape[2])
            cov += W.T @ W
        return cov

    def in_beta(self):
        """Means (P, d) and covariances ``basis C_p basis^T`` (P, d, d) of the coefficients."""
        B = self.basis
        if self.dense is not None:
            return self.mean @ B.T, B @ self.dense @ B.T
        cov = (B * self.diag[:, None, :]) @ B.T
        if self.W is not None:
            WB = self.W @ B.T
            cov += WB.transpose(0, 2, 1) @ WB
        return self.mean @ B.T, cov


def batch_conditional_beta(stats, spec):
    """Vectorized :func:`conditional_beta_posterior`, in the kernel's coordinates.

    The returned function maps (P, k) natural variance rows to a
    :class:`Conditional`, whose ``in_beta`` gives the coefficients' means
    and covariances, a low-rank row's through the scaled Woodbury factor
    ``L'^-1 X D^-1``, with no per-row scale.  Its ``row_entries`` is the
    kernel's (see :func:`posterior_system`).
    """
    system = posterior_system(stats, spec)

    def conditional(theta):
        s = system(theta)
        if s.A.ndim == 3:
            cov = np.linalg.inv(s.A)
            cov = 0.5 * (cov + cov.transpose(0, 2, 1))
            return Conditional(np.einsum("pab,pb->pa", cov, s.rhs), s.basis, dense=cov)
        diag = 1.0 / s.A
        mean = s.rhs * diag
        if s.V is None:
            return Conditional(mean, s.basis, diag=diag)
        r = s.V.X.shape[0]
        K = s.V.bordered(diag, s.rhs, s.datafit)[:, :r, :r]    # S^-2 - X D^-1 X^T
        W = solve_lower(np.linalg.cholesky(K), s.V.X * diag[:, None, :])   # K'^-1 = L'^-T L'^-1
        mean += np.einsum("prd,pr->pd", W, np.einsum("prd,pd->pr", W, s.rhs))
        return Conditional(mean, s.basis, diag=diag, W=W)

    conditional.row_entries = system.row_entries
    return conditional


def conditional_beta_posterior(stats, spec, theta):
    """Conditional Gaussian posterior of the coefficients at fixed variances.

    Returns (mean, cov) at one ThetaPoint.  Raises
    NotPositiveDefiniteError when its group-level covariance is not
    positive-definite.
    """
    if theta.nu is not None:
        assemble_sigma_eta(spec.eta_structure, *theta.nu)
    means, covs = batch_conditional_beta(stats, spec)(theta_row(theta)).in_beta()
    return means[0], covs[0]

"""Seeded operands for the host-time benchmark.

The power-law operands come from a configuration model with a *fixed*
degree sequence: the row sizes are the quantiles of a Pareto law with
exponent ``alpha``, scaled to a target mean, and the in-degrees follow
the row sizes blended with a uniform floor (``hub_bias``), as in
:func:`repro.scalefree.generators.powerlaw_matrix`.  The seed only
relabels the nodes and pairs row stubs with column stubs.  So a new seed
gives a new matrix with the same amount of work: the intermediate-product
count of ``A @ A`` moves by well under 1% between seeds, where sampling
the row sizes (as the library generators do) moves it by a factor of
three at ``alpha = 2.1``.  Work that varied with the seed would read as
run-to-run noise, because every benchmark run gets its own seed.  The
serving pairs multiply two different matrices, whose hubs line up
differently under each pairing, so they keep one structure for every
seed instead: the seed relabels each pair with one permutation and
draws its values, which leaves the product work exactly the same.
"""

from __future__ import annotations

import numpy as np

from repro.formats.csr import CSRMatrix
from repro.formats.validation import ensure_canonical
from repro.scalefree.generators import rmat_matrix, uniform_matrix


def pareto_sizes(n: int, alpha: float, mean_nnz: float, cap: int) -> np.ndarray:
    """Row sizes at the ``n`` mid-quantiles of a Pareto(``alpha``) law,
    scaled so their mean is ``mean_nnz`` and clipped to ``[1, cap]``."""
    q = (np.arange(n) + 0.5) / n
    base = (1.0 - q) ** (-1.0 / (alpha - 1.0))
    lo, hi = 1e-6, float(mean_nnz)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if np.clip(np.rint(mid * base), 1, cap).mean() < mean_nnz:
            lo = mid
        else:
            hi = mid
    return np.clip(np.rint(lo * base), 1, cap).astype(np.int64)


def scale_free_matrix(
    n: int, *, alpha: float, mean_nnz: float, hub_bias: float, rng: np.random.Generator
) -> CSRMatrix:
    """Square scale-free matrix with a seed-independent degree sequence.

    Column ``j`` is drawn about ``hub_bias * size_j / mean + (1 - hub_bias)``
    times in proportion, so references concentrate on the hub rows.
    Repeated ``(row, column)`` pairs collapse to one entry.
    """
    sizes = pareto_sizes(n, alpha, mean_nnz, n // 2)[rng.permutation(n)]
    total = int(sizes.sum())
    weight = hub_bias * sizes / sizes.mean() + (1.0 - hub_bias)
    share = weight * total / weight.sum()
    indeg = np.floor(share).astype(np.int64)
    # largest-remainder rounding: the stubs add up to exactly ``total``
    indeg[np.argsort(indeg - share, kind="stable")[: total - int(indeg.sum())]] += 1
    cols = rng.permutation(np.repeat(np.arange(n, dtype=np.int64), indeg))
    rows = np.repeat(np.arange(n, dtype=np.int64), sizes)
    keys = np.unique(rows * n + cols)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return CSRMatrix(
        (n, n), indptr, keys % n, rng.random(keys.size) + 0.5, validate=False
    )


#: the multiply workloads' operand recipes (A @ A)
SELF_PRODUCTS = {
    "hub-expand": dict(n=4_000, alpha=2.1, mean_nnz=9.0, hub_bias=0.5),
    "powerlaw-long": dict(n=100_000, alpha=3.0, mean_nnz=4.0, hub_bias=0.1),
}


def self_product_operand(workload: str, seed: int) -> CSRMatrix:
    """The canonical ``A`` of a multiply workload (``C = A @ A``)."""
    rng = np.random.default_rng(seed)
    a = scale_free_matrix(rng=rng, **SELF_PRODUCTS[workload])
    return ensure_canonical(a, name="a")


#: the seed of the serving pairs' shared structure (not the run's seed)
SERVING_STRUCTURE_SEED = 12


def relabeled(m: CSRMatrix, perm: np.ndarray, rng: np.random.Generator) -> CSRMatrix:
    """``P m P^T`` with fresh values: rows and columns renamed by ``perm``.

    Relabelling both operands of a product with one ``perm`` relabels the
    product (``P A P^T P B P^T = P AB P^T``), so the work is unchanged.
    """
    s = m.to_scipy()[perm][:, perm].tocsr()
    s.sort_indices()
    s.data = rng.random(s.nnz) + 0.5
    return CSRMatrix.from_scipy(s)


def serving_pairs(seed: int) -> list[tuple[CSRMatrix, CSRMatrix]]:
    """Three small ``(A, B)`` pairs, one per serving tenant: power-law,
    R-MAT (scale 10) and near-uniform, so per-call fixed costs dominate.

    The pairs' structure comes from :data:`SERVING_STRUCTURE_SEED`; the
    run's seed relabels each pair and draws its values, so every seed
    gives new operands whose products take exactly the same work.
    """
    rngs = [
        np.random.default_rng(s)
        for s in np.random.SeedSequence(SERVING_STRUCTURE_SEED).spawn(6)
    ]
    bases = [
        scale_free_matrix(1_500, alpha=2.3, mean_nnz=6.0, hub_bias=0.3, rng=rngs[0]),
        scale_free_matrix(1_500, alpha=2.3, mean_nnz=6.0, hub_bias=0.3, rng=rngs[1]),
        rmat_matrix(10, 8, rng=rngs[2]),
        rmat_matrix(10, 8, rng=rngs[3]),
        uniform_matrix(2_000, mean_nnz=6.0, rng=rngs[4]),
        uniform_matrix(2_000, mean_nnz=6.0, rng=rngs[5]),
    ]
    rng = np.random.default_rng(seed)
    pairs = []
    for a, b in zip(bases[::2], bases[1::2]):
        perm = rng.permutation(a.shape[0])
        pairs.append(tuple(
            ensure_canonical(relabeled(m, perm, rng), name="operand") for m in (a, b)
        ))
    return pairs

"""Pointwise algebraic inequality chains behind the two stability criteria.

At a point with Jacobian stretches lambda_i, any vertical variation enters
the second-variation integrand only through the pairings
C_ij = <d V along the i-th principal direction, j-th target frame vector>.
Writing mu_i = 1 + lambda_i^2, the distance-decreasing chain is

    E1 = sum_i (sum_j C_ij^2)/mu_i
         - 1/2 sum_ij (lambda_j C_ij + lambda_i C_ji)^2 / (mu_i mu_j)
    E2 = sum_ij C_ij^2/mu_i
         - sum_ij (lambda_j^2 C_ij^2 + lambda_i^2 C_ji^2) / (mu_i mu_j)
    E3 = sum_ij (C_ij^2/mu_i) (1 - lambda_j^2)/mu_j

with E1 >= E2 always, E2 = E3 as an unconditional identity, and E3 >= 0
whenever all stretches are at most one. The rank chain keeps the square of
the trace term:

    F0       = sum_ij C_ij^2/mu_i + (sum_i lambda_i C_ii/mu_i)^2
               - 1/2 sum_ij (lambda_j C_ij + lambda_i C_ji)^2/(mu_i mu_j)
    F_diag   = sum_i C_ii^2/mu_i^2
               + sum_{i!=j} lambda_i lambda_j C_ii C_jj/(mu_i mu_j)
    F_offdiag= sum_{i!=j} [C_ij^2 - 2 lambda_i lambda_j C_ij C_ji + C_ji^2]
               / (2 mu_i mu_j)
    F_lower  = 1/(p-1) sum_{i<j, both stretches nonzero}
               (|C_ii|/mu_i - |C_jj|/mu_j)^2

with F0 = F_diag + F_offdiag identically and, under
lambda_i lambda_j <= 1/(p-1) for i != j with at most p nonzero stretches,
F_offdiag >= 0 and F_diag >= F_lower >= 0, hence F0 >= 0.

Everything here is plain algebra on sampled (lambda, C) pairs; the module
certifies the inequalities by randomized campaigns and hunts for
counterexamples outside the hypotheses by random search. ``SearchRegime``
owns the sampling box: it draws points, scores them by the chain's margin and
says whether the whole box lies inside the hypotheses, for campaigns and
searches alike. Both draw ``SAMPLE_CHUNK`` samples at a time, score each drawn
chunk ``SCORE_BLOCK`` samples at a time, and judge margins against one
tolerance ``tol``, which the CLI takes from ``oracle.tol``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .report import Summarized

__all__ = [
    "SpectrumSample",
    "ChainEvaluation",
    "SearchRegime",
    "SearchReport",
    "CampaignReport",
    "eval_dd_chain",
    "eval_rank_chain",
    "dd_chain_terms",
    "rank_chain_terms",
    "chain_scale",
    "run_dd_campaign",
    "run_rank_campaign",
    "counterexample_search",
]

CHAIN_DD = "distance_decreasing"
CHAIN_RANK = "rank"
SAMPLE_CHUNK = 50_000  # samples a campaign or search draws at a time
SCORE_BLOCK = 8192  # samples scored at a time, so that the kernels' temporaries stay in cache


@dataclass(frozen=True)
class SpectrumSample:
    """A spectrum of stretches, optionally with a rank budget p."""

    lam: np.ndarray
    p: int | None = None

    def __post_init__(self):
        lam = np.atleast_1d(np.asarray(self.lam, dtype=float))
        if lam.ndim != 1 or lam.size < 2:
            raise ValueError("need a 1-d spectrum with n >= 2")
        if np.any(lam < 0) or not np.all(np.isfinite(lam)):
            raise ValueError("stretches must be finite and nonnegative")
        if self.p is not None and int(np.count_nonzero(lam)) > self.p:
            raise ValueError("more nonzero stretches than the rank budget p")
        object.__setattr__(self, "lam", lam)

    @property
    def n(self) -> int:
        return self.lam.size


@dataclass(frozen=True)
class ChainEvaluation:
    """Values of every expression in one chain at a single sample."""

    E1: float | None = None
    E2: float | None = None
    E3: float | None = None
    F0: float | None = None
    F_diag: float | None = None
    F_offdiag: float | None = None
    F_lower: float | None = None
    scale: float = 1.0
    in_hypothesis: bool = True

    def asdict(self) -> dict:
        return {
            k: v
            for k, v in self.__dict__.items()
            if v is not None
        }


def chain_scale(C: np.ndarray) -> np.ndarray:
    """Tolerance scale sum C_ij^2 + 1; keeps zero samples non-vacuous."""
    C = np.asarray(C, dtype=float)
    return np.einsum("...ij,...ij->...", C, C) + 1.0  # no (N, n, n) square is made


def _entries(lam, C):
    """Stretches (n, ...) and pairings (n, n, ...): matrix axes first, each entry contiguous.

    The kernels sum over entries one at a time and square by multiplying, so
    that one sample takes the same operations as a batch. Spectra (..., n)
    need pairings (..., n, n) of the same batch shape, or ValueError.
    """
    lam, C = np.asarray(lam, dtype=float), np.asarray(C, dtype=float)
    if C.shape != lam.shape + lam.shape[-1:]:
        raise ValueError(f"pairings of shape {C.shape} do not match spectra of shape {lam.shape}")
    lam = np.ascontiguousarray(np.moveaxis(lam, -1, 0))
    C = np.ascontiguousarray(np.moveaxis(C, (-2, -1), (0, 1)))
    return lam, C, 1.0 + lam * lam


def dd_chain_terms(lam: np.ndarray, C: np.ndarray):
    """(E1, E2, E3) for batched spectra (..., n) and pairings (..., n, n).

    E1 instantiates the squared derivative norms at their lower bound
    sum_j C_ij^2; any surplus over that bound only enlarges E1.
    """
    lam, C, mu = _entries(lam, C)
    n = len(lam)
    lam2 = lam * lam
    shrink = (1.0 - lam2) / mu
    first = cross = stretched = E3 = 0.0
    for i, j in np.ndindex(n, n):
        c, d, denom = C[i, j], C[j, i], mu[i] * mu[j]
        c2, e = c * c, lam[j] * c + lam[i] * d
        weighted = c2 / mu[i]
        first += weighted
        cross += e * e / denom
        stretched += (lam2[j] * c2 + lam2[i] * (d * d)) / denom
        E3 += weighted * shrink[j]
    return first - 0.5 * cross, first - stretched, E3


def rank_chain_terms(lam: np.ndarray, C: np.ndarray, p: int):
    """(F0, F_diag, F_offdiag, F_lower) for batched inputs at rank budget p."""
    if p < 2:
        raise ValueError("rank chain requires p >= 2")
    lam, C, mu = _entries(lam, C)
    n = len(lam)
    nz = (lam > 0.0).astype(float)
    first = cross = F_offdiag = trace_term = t_sq = diag_sq = count = a_sum = a_sq = 0.0
    for i, j in np.ndindex(n, n):
        c, d, denom = C[i, j], C[j, i], mu[i] * mu[j]
        e = lam[j] * c + lam[i] * d
        first += c * c / mu[i]
        cross += e * e / denom
        if i != j:
            F_offdiag += (c * c + d * d - 2.0 * (lam[i] * lam[j]) * c * d) / (2.0 * denom)
            continue
        t, a = lam[i] * c / mu[i], nz[i] * np.abs(c) / mu[i]
        trace_term += t
        t_sq += t * t
        diag_sq += c * c / denom
        count += nz[i]
        a_sum += a
        a_sq += a * a
    F0 = first + trace_term * trace_term - 0.5 * cross
    F_diag = diag_sq + (trace_term * trace_term - t_sq)
    F_lower = (count * a_sq - a_sum * a_sum) / (p - 1)
    return F0, F_diag, F_offdiag, F_lower


def _pairings(C) -> np.ndarray:
    """C as a finite float array, or ValueError; the kernels check its shape."""
    C = np.asarray(C, dtype=float)
    if not np.all(np.isfinite(C)):
        raise ValueError("pairing matrix entries must be finite")
    return C


def eval_dd_chain(sample: SpectrumSample, C: np.ndarray) -> ChainEvaluation:
    """Distance-decreasing chain at one sample."""
    C = _pairings(C)
    E1, E2, E3 = dd_chain_terms(sample.lam, C)
    return ChainEvaluation(
        E1=float(E1),
        E2=float(E2),
        E3=float(E3),
        scale=float(chain_scale(C)),
        in_hypothesis=bool(np.all(sample.lam <= 1.0)),
    )


def eval_rank_chain(sample: SpectrumSample, C: np.ndarray, p: int) -> ChainEvaluation:
    """Rank chain at one sample with rank budget p >= 2."""
    C = _pairings(C)
    if p < 2:
        raise ValueError("rank chain requires p >= 2")
    if int(np.count_nonzero(sample.lam)) > p:
        raise ValueError("sample has more nonzero stretches than p")
    F0, F_diag, F_offdiag, F_lower = rank_chain_terms(sample.lam, C, p)
    prods = np.multiply.outer(sample.lam, sample.lam)
    np.fill_diagonal(prods, 0.0)
    return ChainEvaluation(
        F0=float(F0),
        F_diag=float(F_diag),
        F_offdiag=float(F_offdiag),
        F_lower=float(F_lower),
        scale=float(chain_scale(C)),
        in_hypothesis=bool(prods.max() <= 1.0 / (p - 1) + 1e-15),
    )


# -- sampling regime ---------------------------------------------------------


@dataclass(frozen=True)
class SearchRegime:
    """Sampling box of one chain: stretches in [lam_low, lam_high], pairings in [-1, 1].

    The rank chain also keeps at most p nonzero stretches and, with
    ``cap_products``, scales each spectrum so that pairwise products stay at
    most 1/(p-1). ``lam_high`` above one (distance-decreasing chain) or
    ``cap_products=False`` (rank chain) step outside the hypotheses; inside
    them a search is expected to come back empty.
    """

    chain: str
    n: int
    lam_low: float = 0.0
    lam_high: float = 1.0
    p: int | None = None
    cap_products: bool = True

    def __post_init__(self):
        if self.chain not in (CHAIN_DD, CHAIN_RANK):
            raise ValueError(f"unknown chain {self.chain!r}")
        if self.chain == CHAIN_RANK and (self.p is None or self.p < 2):
            raise ValueError("rank regime needs p >= 2")
        if self.chain == CHAIN_DD and self.p is not None:
            raise ValueError("p applies to the rank chain only")
        if self.n < 2:
            raise ValueError("need n >= 2")
        if not 0 <= self.lam_low <= self.lam_high < np.inf:
            raise ValueError("need 0 <= lam_low <= lam_high < inf")

    @property
    def in_hypothesis(self) -> bool:
        """Whether every point of the box satisfies the chain's hypotheses."""
        return self.lam_high <= 1.0 if self.chain == CHAIN_DD else self.cap_products

    def _capped(self, lam: np.ndarray) -> np.ndarray:
        """Spectra (last axis) scaled so pairwise products stay at most 1/(p-1), if capped."""
        if self.chain == CHAIN_DD or not self.cap_products:
            return lam
        bound = 1.0 / (self.p - 1)
        # the two largest stretches of each spectrum, by a running top two
        first, second, *rest = np.moveaxis(lam, -1, 0)
        top, runner_up = np.maximum(first, second), np.minimum(first, second)
        for col in rest:
            runner_up = np.maximum(runner_up, np.minimum(top, col))
            top = np.maximum(top, col)
        prod = top * runner_up
        # an exact 1.0 leaves spectra under the cap bit-identical
        factor = np.where(prod > bound, np.sqrt(bound / np.maximum(prod, 1e-300)), 1.0)
        return lam * factor[..., None]

    def sample(self, rng: np.random.Generator, count: int):
        """``count`` uniform points: spectra (count, n) and pairings (count, n, n)."""
        lam = rng.uniform(self.lam_low, self.lam_high, size=(count, self.n))
        if self.chain == CHAIN_RANK and self.p < self.n:
            # a random choice of p stretches stays nonzero: those whose key ranks below p in
            # its row, ties going to the earlier column as in a stable sort
            keys = rng.random((count, self.n)).T
            for j, key in enumerate(keys):
                rank = sum(keys[k] <= key if k < j else keys[k] < key for k in range(self.n) if k != j)
                lam[:, j][rank >= self.p] = 0.0
        lam = self._capped(lam)
        C = rng.uniform(-1.0, 1.0, size=(count, self.n, self.n))
        return lam, C

    def margin(self, lam, C):
        """Worst chain inequality relative to the sample scale; negative means violated."""
        if self.chain == CHAIN_DD:
            return dd_chain_terms(lam, C)[2] / chain_scale(C)
        F0, Fd, Fo, Fl = rank_chain_terms(lam, C, self.p)
        return np.minimum(np.minimum(F0, Fo), Fd - Fl) / chain_scale(C)


@dataclass(frozen=True)
class CampaignReport(Summarized):
    chain: str
    n: int
    p: int | None
    samples: int
    seed: int
    worst_margins: dict
    identity_max_defect: float
    passed: bool


def _blocks(lam, C):
    """The samples of a drawn chunk, ``SCORE_BLOCK`` at a time."""
    for start in range(0, len(lam), SCORE_BLOCK):
        yield lam[start : start + SCORE_BLOCK], C[start : start + SCORE_BLOCK]


def _columns(regime: SearchRegime, lam, C) -> tuple:
    """The worst cases of one block, one float per result slot of ``regime``'s campaign.

    Distance-decreasing: min E1 - E2, max |E2 - E3|, min E3. Rank: max |F0 - F_diag -
    F_offdiag|, then the mins of F0, F0 - F_diag - F_offdiag, F_diag - F_lower,
    F_offdiag and F_lower. Every slot is relative to the sample scale.
    """
    scale = chain_scale(C)
    if regime.chain == CHAIN_DD:
        E1, E2, E3 = dd_chain_terms(lam, C)
        return (
            float(((E1 - E2) / scale).min()),
            float((np.abs(E2 - E3) / scale).max()),
            float((E3 / scale).min()),
        )
    F0, Fd, Fo, Fl = rank_chain_terms(lam, C, regime.p)
    split = (F0 - Fd - Fo) / scale
    return (
        float(np.abs(split).max()),
        float((F0 / scale).min()),
        float(split.min()),
        float(((Fd - Fl) / scale).min()),
        float((Fo / scale).min()),
        float((Fl / scale).min()),
    )


def _score_chunk(regime: SearchRegime, size: int, seed_sequence) -> list[tuple]:
    """The ``_columns`` of every block of ``size`` points drawn from ``seed_sequence``.

    Module-level, as is ``_columns``, so that a process pool pickles it by reference.
    """
    lam, C = regime.sample(np.random.default_rng(seed_sequence), size)
    return [_columns(regime, *block) for block in _blocks(lam, C)]


def _campaign_columns(regime: SearchRegime, samples: int, seed: int, tol: float, map=map) -> list[tuple]:
    """``_columns`` of every block of ``samples`` points, transposed: one tuple per result slot.

    The points are drawn from ``regime`` in ``SAMPLE_CHUNK``-sized chunks, each
    from its own child of ``SeedSequence(seed)``, and ``map(_score_chunk, ...)``
    scores the chunks: a process pool's ``map`` gives the builtin's columns. Checks
    the arguments both campaigns share, ``samples`` and ``tol``.
    """
    if samples < 1:
        raise ValueError("need samples >= 1")
    if not tol > 0:  # NaN too
        raise ValueError("tol must be positive")
    sizes = [min(SAMPLE_CHUNK, samples - start) for start in range(0, samples, SAMPLE_CHUNK)]
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    rows = [row for chunk in map(_score_chunk, [regime] * len(sizes), sizes, children) for row in chunk]
    return list(zip(*rows))


def run_dd_campaign(
    n: int,
    samples: int,
    seed: int,
    lam_high: float = 1.0,
    tol: float = 1e-12,
    map=map,
) -> CampaignReport:
    """Randomized verification of the distance-decreasing chain.

    Checks E1 >= E2 and the identity E2 = E3 unconditionally; E3 >= 0 is
    asserted only when the sampling box keeps every stretch at most one.
    Margins are worst cases relative to the per-sample scale. ``map`` scores
    the chunks (see ``_campaign_columns``); the report does not depend on it.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    regime = SearchRegime(CHAIN_DD, n, lam_high=lam_high)
    e1_e2, identity, e3 = _campaign_columns(regime, samples, seed, tol, map)
    min_e1_e2 = min(e1_e2)
    max_identity = max(identity)
    min_e3 = min(e3)
    passed = min_e1_e2 >= -tol and max_identity <= tol
    if regime.in_hypothesis:
        passed = passed and min_e3 >= -tol
    return CampaignReport(
        chain=CHAIN_DD,
        n=n,
        p=None,
        samples=samples,
        seed=seed,
        worst_margins={
            "min_E1_minus_E2": min_e1_e2,
            "min_E3": min_e3,
            "lam_high": lam_high,
        },
        identity_max_defect=max_identity,
        passed=passed,
    )


def run_rank_campaign(
    n: int,
    p: int,
    samples: int,
    seed: int,
    tol: float = 1e-12,
    map=map,
) -> CampaignReport:
    """Randomized verification of the rank chain inside its hypotheses.

    Checks the identity F0 = F_diag + F_offdiag to ``tol`` in absolute value.
    ``map`` scores the chunks, as in ``run_dd_campaign``.
    """
    if min(n, p) < 2:
        raise ValueError("need n >= 2 and p >= 2")
    regime = SearchRegime(CHAIN_RANK, n, p=p)
    names = ("min_F0", "min_F0_minus_split", "min_Fdiag_minus_Flower", "min_Foffdiag", "min_Flower")
    identity, *columns = _campaign_columns(regime, samples, seed, tol, map)
    margins = {name: min(col) for name, col in zip(names, columns)}
    max_identity = max(identity)
    passed = all(v >= -tol for v in margins.values()) and max_identity <= tol
    return CampaignReport(
        chain=CHAIN_RANK,
        n=n,
        p=p,
        samples=samples,
        seed=seed,
        worst_margins=margins,
        identity_max_defect=max_identity,
        passed=passed,
    )


# -- counterexample search ----------------------------------------------------


@dataclass(frozen=True)
class SearchReport:
    regime: SearchRegime
    found: bool
    best_margin: float
    best_lambda: tuple[float, ...] | None
    best_C: tuple[tuple[float, ...], ...] | None
    best_values: ChainEvaluation | None
    samples_evaluated: int
    seed: int

    def summary(self) -> dict:
        out = {
            "chain": self.regime.chain,
            "n": self.regime.n,
            "p": self.regime.p,
            "lam_low": self.regime.lam_low,
            "lam_high": self.regime.lam_high,
            "cap_products": self.regime.cap_products,
            "found": self.found,
            "best_margin": self.best_margin,
            "samples_evaluated": self.samples_evaluated,
            "seed": self.seed,
        }
        if self.found:
            out["best_lambda"] = list(self.best_lambda)
            out["best_C"] = [list(r) for r in self.best_C]
            out["best_values"] = self.best_values.asdict()
        return out


def _analytic_seeds(regime: SearchRegime):
    """Hand-built candidates tried before random search: spectra (k, n), pairings (k, n, n).

    They lie in the box: one when the box leaves the hypotheses, none inside them.
    """
    n = regime.n
    lam = np.zeros((1, n))
    C = np.zeros((1, n, n))
    if regime.in_hypothesis:
        return lam[:0], C[:0]
    if regime.chain == CHAIN_DD:
        lam[0, 0] = 2.0
        lam = np.clip(lam, regime.lam_low, regime.lam_high)
        C[0, 1, 0] = 1.0  # pairs the zero-stretch direction against the large one
    else:
        lam[0, : regime.p] = np.clip(0.9, regime.lam_low, regime.lam_high)
        C[0] = np.diag([(-1.0) ** i for i in range(n)])
    return lam, C


def counterexample_search(
    regime: SearchRegime,
    budget: int,
    seed: int = 0,
    tol: float = 1e-12,
) -> SearchReport:
    """Random search for chain violations in a regime.

    Scores the analytic seeds, then ``budget`` points drawn from
    ``default_rng(seed)`` ``SAMPLE_CHUNK`` at a time and scored ``SCORE_BLOCK``
    at a time, and reports the first one with the most negative margin.
    Absence of a counterexample inside the hypotheses is reported as such,
    not claimed as a proof.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if not tol > 0:  # NaN too
        raise ValueError("tol must be positive")
    rng = np.random.default_rng(seed)
    seeds = _analytic_seeds(regime)

    def batches():
        yield seeds
        for start in range(0, budget, SAMPLE_CHUNK):
            yield from _blocks(*regime.sample(rng, min(SAMPLE_CHUNK, budget - start)))

    best_margin, best = np.inf, None
    for lam, C in batches():
        margins = regime.margin(lam, C)
        if margins.size == 0:
            continue
        k = int(np.argmin(margins))
        if margins[k] < best_margin:
            best_margin = float(margins[k])
            best = (lam[k].copy(), C[k].copy())

    found = best_margin < -tol
    blam, bC = best
    values = None
    if found:
        if regime.chain == CHAIN_DD:
            values = eval_dd_chain(SpectrumSample(lam=blam), bC)
        else:
            values = eval_rank_chain(SpectrumSample(lam=blam), bC, regime.p)
    return SearchReport(
        regime=regime,
        found=found,
        best_margin=float(best_margin),
        best_lambda=tuple(float(v) for v in blam) if found else None,
        best_C=tuple(tuple(float(v) for v in row) for row in bC) if found else None,
        best_values=values,
        samples_evaluated=len(seeds[0]) + budget,
        seed=seed,
    )

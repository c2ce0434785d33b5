import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from minsurf import (
    SearchRegime,
    SpectrumSample,
    counterexample_search,
    eval_dd_chain,
    eval_rank_chain,
    run_dd_campaign,
    run_rank_campaign,
)
from minsurf.chains import chain_scale, dd_chain_terms, rank_chain_terms


def test_dd_chain_zero_pairings():
    out = eval_dd_chain(SpectrumSample(lam=[0.3, 0.7]), np.zeros((2, 2)))
    assert out.E1 == out.E2 == out.E3 == 0.0


def test_dd_chain_unit_stretches_make_E3_vanish(rng):
    C = rng.uniform(-1, 1, (2, 2))
    out = eval_dd_chain(SpectrumSample(lam=[1.0, 1.0]), C)
    assert out.E3 == pytest.approx(0.0, abs=1e-15)


def test_dd_chain_analytic_witness():
    # stretches (2, 0) with the only pairing against the stretched direction:
    # E3 = (1/mu_2) * (1 - lambda_1^2)/mu_1 = -3/5
    C = np.zeros((2, 2))
    C[1, 0] = 1.0
    out = eval_dd_chain(SpectrumSample(lam=[2.0, 0.0]), C)
    assert out.E3 == pytest.approx(-0.6, rel=1e-14)
    assert not out.in_hypothesis


def test_rank_chain_trivial_arithmetic():
    out = eval_rank_chain(SpectrumSample(lam=[1.0, 1.0]), np.eye(2), p=2)
    assert out.F0 == pytest.approx(1.0, rel=1e-14)
    assert out.F_diag == pytest.approx(1.0, rel=1e-14)
    assert out.F_offdiag == pytest.approx(0.0, abs=1e-15)
    assert out.F_lower == pytest.approx(0.0, abs=1e-15)


def test_rank_chain_rejects_small_p():
    with pytest.raises(ValueError):
        eval_rank_chain(SpectrumSample(lam=[0.5, 0.5]), np.eye(2), p=1)


def test_spectrum_sample_validation():
    with pytest.raises(ValueError):
        SpectrumSample(lam=[-0.1, 0.5])
    with pytest.raises(ValueError):
        SpectrumSample(lam=[0.5, 0.5, 0.5], p=2)


@given(
    lam=hnp.arrays(np.float64, 3, elements=st.floats(0, 5)),
    C=hnp.arrays(np.float64, (3, 3), elements=st.floats(-3, 3)),
)
@settings(max_examples=300, deadline=None)
def test_identity_E2_equals_E3_unconditionally(lam, C):
    # pure algebra: must hold for every input, not only under hypotheses
    E1, E2, E3 = dd_chain_terms(lam, C)
    scale = chain_scale(C) + float(np.sum(lam**2))
    assert abs(E2 - E3) <= 1e-12 * scale
    assert E1 - E2 >= -1e-12 * scale


@given(
    lam=hnp.arrays(np.float64, 4, elements=st.floats(0, 1)),
    C=hnp.arrays(np.float64, (4, 4), elements=st.floats(-1, 1)),
)
@settings(max_examples=300, deadline=None)
def test_E3_nonnegative_inside_hypotheses(lam, C):
    _, _, E3 = dd_chain_terms(lam, C)
    assert E3 >= -1e-12 * chain_scale(C)


@given(
    lam=hnp.arrays(np.float64, 3, elements=st.floats(0, 2)),
    C=hnp.arrays(np.float64, (3, 3), elements=st.floats(-2, 2)),
    perm=st.permutations(range(3)),
)
@settings(max_examples=200, deadline=None)
def test_chain_values_permutation_invariant(lam, C, perm):
    perm = list(perm)
    E = dd_chain_terms(lam, C)
    Ep = dd_chain_terms(lam[perm], C[np.ix_(perm, perm)])
    scale = chain_scale(C) + float(np.sum(lam**2))
    for a, b in zip(E, Ep):
        assert abs(a - b) <= 1e-11 * scale


def test_eval_chain_rejects_nonfinite_pairings():
    C = np.full((2, 2), np.nan)
    with pytest.raises(ValueError):
        eval_dd_chain(SpectrumSample(lam=[0.5, 0.5]), C)


def test_rank_chain_split_is_identity(rng):
    # F0 decomposes exactly into diagonal plus off-diagonal parts
    for _ in range(200):
        n = rng.integers(2, 5)
        p = int(rng.integers(2, n + 1))
        lam = rng.uniform(0, 2, n)
        C = rng.uniform(-1, 1, (n, n))
        F0, Fd, Fo, _ = rank_chain_terms(lam, C, p)
        assert abs(F0 - Fd - Fo) <= 1e-12 * chain_scale(C)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dd_campaign_inside_hypotheses(n):
    rep = run_dd_campaign(n, 30_000, seed=123)
    assert rep.passed
    assert rep.identity_max_defect <= 1e-12
    assert rep.worst_margins["min_E1_minus_E2"] >= -1e-12
    assert rep.worst_margins["min_E3"] >= -1e-12


@pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (3, 3), (4, 4)])
def test_rank_campaign_inside_hypotheses(n, p):
    rep = run_rank_campaign(n, p, 30_000, seed=77)
    assert rep.passed
    assert all(v >= -1e-12 for v in rep.worst_margins.values())


@pytest.mark.parametrize(
    "campaign",
    [
        lambda: run_dd_campaign(1, 10, seed=1),
        lambda: run_dd_campaign(0, 10, seed=1),
        lambda: run_rank_campaign(3, 1, 10, seed=1),
        lambda: run_rank_campaign(1, 2, 10, seed=1),
    ],
    ids=["dd-n-1", "dd-n-0", "rank-p-1", "rank-n-1"],
)
def test_campaigns_reject_degenerate_sizes(campaign):
    with pytest.raises(ValueError, match=r"need n >= 2"):
        campaign()


def test_campaigns_deterministic_and_thread_invariant():
    a = run_dd_campaign(3, 40_000, seed=5, threads=1)
    b = run_dd_campaign(3, 40_000, seed=5, threads=4)
    assert a.worst_margins == b.worst_margins
    assert a.identity_max_defect == b.identity_max_defect


def test_search_finds_E3_violation_outside_hypotheses():
    regime = SearchRegime(chain="distance_decreasing", n=2, lam_high=2.0)
    rep = counterexample_search(regime, budget=5_000, seed=3)
    assert rep.found
    # the analytic witness value is -3/5 at scale 2
    assert rep.best_margin <= -0.29
    assert rep.best_values.E3 < 0


def test_search_empty_inside_hypotheses():
    regime = SearchRegime(chain="distance_decreasing", n=3, lam_high=1.0)
    rep = counterexample_search(regime, budget=50_000, seed=4)
    assert not rep.found
    assert rep.best_margin >= -1e-12


def test_search_finds_rank_violation_beyond_product_cap():
    regime = SearchRegime(chain="rank", n=3, p=3, lam_high=1.0, cap_products=False)
    rep = counterexample_search(regime, budget=30_000, seed=9)
    assert rep.found
    vals = rep.best_values
    assert min(vals.F0, vals.F_offdiag, vals.F_diag - vals.F_lower) < 0


def test_search_empty_inside_rank_hypotheses():
    regime = SearchRegime(chain="rank", n=3, p=2, lam_high=1.0, cap_products=True)
    rep = counterexample_search(regime, budget=50_000, seed=10)
    assert not rep.found


def test_search_regime_validation():
    with pytest.raises(ValueError):
        SearchRegime(chain="unknown", n=2)
    with pytest.raises(ValueError):
        SearchRegime(chain="rank", n=3)  # missing p
    with pytest.raises(ValueError):
        counterexample_search(SearchRegime(chain="distance_decreasing", n=2), budget=0)


def test_distance_decreasing_regime_rejects_p():
    with pytest.raises(ValueError, match="p applies to the rank chain only"):
        SearchRegime(chain="distance_decreasing", n=2, p=5)


def test_campaigns_do_not_depend_on_threads():
    for threads in (1, 2):
        dd = run_dd_campaign(3, 120_000, seed=5, lam_high=1.5, threads=threads)
        rank = run_rank_campaign(4, 3, 120_000, seed=6, threads=threads)
        if threads == 1:
            reference = (dd.summary(), rank.summary())
        else:
            assert (dd.summary(), rank.summary()) == reference


def test_cli_import_leaves_optimizer_unloaded():
    import subprocess
    import sys
    from pathlib import Path

    import minsurf

    src = str(Path(minsurf.__file__).resolve().parent.parent)
    code = "import sys, minsurf.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": src, "PATH": ""},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


@st.composite
def search_regimes(draw):
    chain = draw(st.sampled_from(["distance_decreasing", "rank"]))
    lam_low, lam_high = sorted(draw(st.floats(0, 2)) for _ in range(2))
    return SearchRegime(
        chain=chain,
        n=draw(st.integers(2, 4)),
        lam_low=lam_low,
        lam_high=lam_high,
        p=draw(st.integers(2, 4)) if chain == "rank" else None,
        cap_products=draw(st.booleans()),
    )


def _assert_in_box(regime, lam, C):
    n = regime.n
    assert lam.shape[-1] == n and C.shape == lam.shape + (n,)
    assert np.all(np.abs(C) <= 1.0)
    assert np.all((lam >= 0.0) & (lam <= regime.lam_high))
    if regime.chain == "rank":
        assert np.all(np.count_nonzero(lam, axis=-1) <= regime.p)
    if regime.in_hypothesis:
        for row, pairings in zip(lam.reshape(-1, n), C.reshape(-1, n, n)):
            sample = SpectrumSample(lam=row)
            if regime.chain == "rank":
                assert eval_rank_chain(sample, pairings, regime.p).in_hypothesis
            else:
                assert eval_dd_chain(sample, pairings).in_hypothesis


@given(regime=search_regimes(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_regime_samples_stay_in_the_box(regime, seed):
    lam, C = regime.sample(np.random.default_rng(seed), 64)
    assert lam.shape == (64, regime.n)
    _assert_in_box(regime, lam, C)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(
    regime=search_regimes(),
    lam=hnp.arrays(np.float64, (3, 4), elements=_FINITE),
    C=hnp.arrays(np.float64, (3, 4, 4), elements=_FINITE),
)
@settings(max_examples=200, deadline=None)
def test_regime_projection_lands_in_the_box_row_by_row(regime, lam, C):
    n = regime.n
    lam, C = lam[:, :n], C[:, :n, :n]
    batch = regime.project(lam, C)
    _assert_in_box(regime, *batch)
    for k in range(len(lam)):
        lam_k, C_k = regime.project(lam[k], C[k])
        assert np.array_equal(lam_k, batch[0][k]) and np.array_equal(C_k, batch[1][k])


_DD = "distance_decreasing"


@given(regime=search_regimes())
@example(regime=SearchRegime(chain=_DD, n=2, lam_high=1.0))
@example(regime=SearchRegime(chain=_DD, n=3, lam_low=0.5, lam_high=0.5))
@example(regime=SearchRegime(chain=_DD, n=2, lam_high=float(np.nextafter(1.0, 2.0))))
@example(regime=SearchRegime(chain=_DD, n=2, lam_high=2.0, cap_products=False))
@example(regime=SearchRegime(chain="rank", n=3, p=2, lam_high=2.0))
@example(regime=SearchRegime(chain="rank", n=3, p=3, lam_high=0.5, cap_products=False))
@settings(max_examples=100, deadline=None)
def test_regime_in_hypothesis_is_the_theorem_box(regime):
    if regime.chain == "rank":
        assert regime.in_hypothesis is regime.cap_products
    else:
        assert regime.in_hypothesis is (regime.lam_high <= 1.0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_regime_margin_of_projected_dd_seed(n):
    regime = SearchRegime(chain="distance_decreasing", n=n, lam_high=2.0)
    lam = np.zeros(n)
    lam[0] = 2.0
    C = np.zeros((n, n))
    C[1, 0] = 1.0
    assert abs(regime.margin(*regime.project(lam, C)) + 0.3) <= 1e-15


@pytest.mark.parametrize(
    "campaign, message",
    [
        (lambda: run_rank_campaign(3, 2, 0, seed=1), "need samples >= 1"),
        (lambda: run_dd_campaign(2, 0, seed=1), "need samples >= 1"),
    ],
    ids=["rank-no-samples", "dd-no-samples"],
)
def test_campaigns_reject_empty_work(campaign, message):
    with pytest.raises(ValueError, match=message):
        campaign()


@pytest.mark.parametrize(
    "make",
    [
        lambda: SearchRegime(chain=_DD, n=2, lam_high=np.inf),
        lambda: SearchRegime(chain="rank", n=3, p=2, lam_low=np.inf, lam_high=np.inf),
        lambda: run_dd_campaign(2, 10, seed=1, lam_high=np.inf),
    ],
    ids=["dd-regime", "rank-regime", "dd-campaign"],
)
def test_regime_bounds_must_be_finite(make):
    with pytest.raises(ValueError, match="lam_high < inf"):
        make()


def _dense_chains(lam, C, p):
    """Every chain expression at one sample, term by term as the module docstring writes it."""
    n = len(lam)
    mu = 1.0 + lam**2
    denom = np.outer(mu, mu)
    off = ~np.eye(n, dtype=bool)
    diag = np.diag(C)
    first = np.sum(C**2 / mu[:, None])
    cross = np.sum((lam[None, :] * C + lam[:, None] * C.T) ** 2 / denom)
    t = lam * diag / mu
    a = np.abs(diag) / mu
    nonzero = np.flatnonzero(lam > 0.0)
    return {
        "E1": first - 0.5 * cross,
        "E2": first - np.sum((lam[None, :] ** 2 * C**2 + lam[:, None] ** 2 * C.T**2) / denom),
        "E3": np.sum(C**2 / mu[:, None] * ((1.0 - lam**2) / mu)[None, :]),
        "F0": first + np.sum(t) ** 2 - 0.5 * cross,
        "F_diag": np.sum(diag**2 / mu**2) + np.sum(np.outer(t, t)[off]),
        "F_offdiag": np.sum(
            ((C**2 + C.T**2 - 2.0 * np.outer(lam, lam) * C * C.T) / (2.0 * denom))[off]
        ),
        "F_lower": sum(
            (a[i] - a[j]) ** 2 for i in nonzero for j in nonzero if i < j
        ) / (p - 1),
    }


@st.composite
def chain_batches(draw):
    n = draw(st.integers(2, 4))
    p = draw(st.integers(2, n))
    k = draw(st.integers(1, 3))
    lead = draw(st.sampled_from([(), (k,), (k, 2)]))
    stretch = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
    lam = draw(hnp.arrays(np.float64, lead + (n,), elements=stretch))
    C = draw(hnp.arrays(np.float64, lead + (n, n), elements=st.floats(-1.0, 1.0)))
    return lam, C, p


_DD_NAMES = ("E1", "E2", "E3")
_RANK_NAMES = ("F0", "F_diag", "F_offdiag", "F_lower")


@given(batch=chain_batches())
@settings(max_examples=200, deadline=None)
def test_chain_kernels_match_the_dense_formulas(batch):
    lam, C, p = batch
    terms = dict(zip(_DD_NAMES, dd_chain_terms(lam, C)))
    terms.update(zip(_RANK_NAMES, rank_chain_terms(lam, C, p)))
    scale = chain_scale(C)
    for name, value in terms.items():
        assert np.shape(value) == lam.shape[:-1], name
    assert np.all(np.abs(terms["E2"] - terms["E3"]) <= 1e-13 * scale)
    split = terms["F0"] - terms["F_diag"] - terms["F_offdiag"]
    assert np.all(np.abs(split) <= 1e-13 * scale)
    for idx in np.ndindex(lam.shape[:-1]):
        dense = _dense_chains(lam[idx], C[idx], p)
        single = dict(zip(_DD_NAMES, dd_chain_terms(lam[idx], C[idx])))
        single.update(zip(_RANK_NAMES, rank_chain_terms(lam[idx], C[idx], p)))
        for name, value in terms.items():
            assert abs(value[idx] - dense[name]) <= 1e-14 * scale[idx], name
            # one sample alone takes the same operations in the same order
            assert np.array_equal(single[name], value[idx]), name

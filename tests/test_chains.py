import os

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
from minsurf.chains import (
    SAMPLE_CHUNK,
    SCORE_BLOCK,
    _analytic_seeds,
    chain_scale,
    dd_chain_terms,
    rank_chain_terms,
)


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


@pytest.mark.parametrize(
    "lam_shape, C_shape",
    [((5, 2), (5, 3, 3)), ((5, 3), (5, 3, 2)), ((5, 2), (4, 2, 2)), ((2,), (5, 2, 2)), ((5, 2), (2, 2))],
)
@pytest.mark.parametrize("chain", ["distance_decreasing", "rank"])
def test_chain_kernels_reject_mismatched_shapes(chain, lam_shape, C_shape):
    lam, C = np.full(lam_shape, 0.5), np.ones(C_shape)
    with pytest.raises(ValueError, match="do not match"):
        dd_chain_terms(lam, C) if chain == "distance_decreasing" else rank_chain_terms(lam, C, 2)


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
    assert rep.identity_max_defect <= 1e-12
    assert all(v >= -1e-12 for v in rep.worst_margins.values())


def test_rank_campaign_fails_on_a_positive_identity_defect(monkeypatch):
    import minsurf.chains

    original = minsurf.chains.rank_chain_terms

    def skewed(lam, C, p):
        F0, Fd, Fo, Fl = original(lam, C, p)
        return F0 + 1e-6 * chain_scale(C), Fd, Fo, Fl

    monkeypatch.setattr(minsurf.chains, "rank_chain_terms", skewed)
    rep = run_rank_campaign(3, 2, 10_000, seed=77)
    assert rep.identity_max_defect == pytest.approx(1e-6, rel=1e-6)
    assert not rep.passed


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


def test_campaigns_deterministic():
    a = run_dd_campaign(3, 40_000, seed=5)
    b = run_dd_campaign(3, 40_000, seed=5)
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


def _chunk_draws(regime, seed, samples):
    """The samples of a campaign, drawn chunk by chunk from the children of SeedSequence(seed)."""
    sizes = [SAMPLE_CHUNK, SAMPLE_CHUNK, samples - 2 * SAMPLE_CHUNK]
    children = np.random.SeedSequence(seed).spawn(3)
    return [regime.sample(np.random.default_rng(ss), size) for ss, size in zip(children, sizes)]


def test_campaigns_draw_one_seed_sequence_child_per_chunk():
    samples = 120_000
    dd_rows, rank_rows = [], []
    for lam, C in _chunk_draws(SearchRegime("distance_decreasing", 3, lam_high=1.5), 5, samples):
        E1, E2, E3 = dd_chain_terms(lam, C)
        scale = chain_scale(C)
        dd_rows.append(((E1 - E2) / scale, E3 / scale, np.abs(E2 - E3) / scale))
    for lam, C in _chunk_draws(SearchRegime("rank", 4, p=3), 6, samples):
        F0, Fd, Fo, Fl = rank_chain_terms(lam, C, 3)
        scale = chain_scale(C)
        split = (F0 - Fd - Fo) / scale
        rank_rows.append((F0 / scale, split, (Fd - Fl) / scale, Fo / scale, Fl / scale, np.abs(split)))
    low = [min(float(col.min()) for col in cols) for cols in zip(*dd_rows)]
    dd = run_dd_campaign(3, samples, seed=5, lam_high=1.5)
    assert dd.worst_margins == {"min_E1_minus_E2": low[0], "min_E3": low[1], "lam_high": 1.5}
    assert dd.identity_max_defect == max(float(row[2].max()) for row in dd_rows)
    names = ("min_F0", "min_F0_minus_split", "min_Fdiag_minus_Flower", "min_Foffdiag", "min_Flower")
    rank = run_rank_campaign(4, 3, samples, seed=6)
    assert rank.worst_margins == {
        name: min(float(row[i].min()) for row in rank_rows) for i, name in enumerate(names)
    }
    assert rank.identity_max_defect == max(float(row[5].max()) for row in rank_rows)


def _loaded_after(code, *packages):
    """Whether running ``code`` in a fresh interpreter imports one of ``packages`` or one of their modules."""
    import subprocess
    import sys
    from pathlib import Path

    import minsurf

    src = str(Path(minsurf.__file__).resolve().parent.parent)
    probe = f"import sys; print(any(m == p or m.startswith(p + '.') for m in sys.modules for p in {packages!r}))"
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\n{probe}"],
        env={"PYTHONPATH": src, "PATH": ""},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.split()[-1] == "True"


def test_cli_import_leaves_optimizer_unloaded():
    assert not _loaded_after("import minsurf.cli", "scipy.optimize")


@pytest.mark.parametrize("module", ["minsurf", "minsurf.cli"])
def test_import_leaves_scipy_unloaded(module):
    assert not _loaded_after(f"import {module}", "scipy")


def _run_code(tmp_path, doc, fmt="json"):
    """Code that runs ``minsurf run`` on ``doc``, written as ``fmt`` (json or yaml), in-process and checks that it exits 0."""
    import json

    import yaml

    path = tmp_path / f"config.{fmt}"
    dump = json.dumps if fmt == "json" else yaml.safe_dump
    path.write_text(dump({**doc, "output_dir": str(tmp_path / "out")}))
    return f"import minsurf.cli\nassert minsurf.cli.main(['run', {str(path)!r}]) == 0"


def test_oracle_run_leaves_scipy_unloaded(tmp_path):
    search = {"chain": "rank", "n": 3, "p": 2, "lam_high": 1.5, "cap_products": False, "budget": 2_000}
    oracle = {"samples": 2_000, "n_values": [2, 3], "p_values": [2], "searches": [search]}
    assert not _loaded_after(_run_code(tmp_path, {"command": "oracle", "oracle": oracle}), "scipy")


def test_loaded_after_sees_a_scipy_import():
    # positive control: the probe does see scipy once something imports it
    assert _loaded_after("import minsurf.cli\nimport scipy.sparse", "scipy")


HOLOMORPHIC = {"family": "holomorphic_power", "amplitude": 0.3, "power": 3}
SQUARE = {"extents": [[0.0, 1.0], [0.0, 1.0]], "counts": [9, 9]}


@pytest.mark.parametrize("fmt,loaded", [("json", False), ("yaml", True)])
def test_only_a_yaml_config_loads_yaml(tmp_path, fmt, loaded):
    # the YAML config is the positive control: the probe sees the parser once a config needs it
    doc = {"command": "solve", "grid": SQUARE, "boundary": HOLOMORPHIC}
    assert _loaded_after(_run_code(tmp_path, doc, fmt), "yaml") is loaded


_PDE_RUNS = pytest.mark.parametrize(
    "doc",
    [
        {"command": "solve", "grid": SQUARE, "boundary": HOLOMORPHIC, "stability": {"enabled": True}},
        # a map that is not corner-convex: its Morse index is read off the pivots
        {
            "command": "analyze",
            "grid": SQUARE,
            "boundary": {**HOLOMORPHIC, "amplitude": 6.0},
            "stability": {"enabled": True},
        },
        {
            "command": "homotopy",
            "seed": 3,
            "grid": SQUARE,
            "homotopy": {
                "f0": {**HOLOMORPHIC, "solve": True},
                "f1": {**HOLOMORPHIC, "solve": True, "bump_amplitude": 0.05},
                "t_count": 5,
                "uniqueness_inits": 2,
            },
        },
        {"command": "sweep", "grid": SQUARE, "sweep": {**HOLOMORPHIC, "s_values": [0.1, 0.3]}},
        {"command": "validate", "validate": {"counts": [5, 5], "oracle_samples": 200}},
    ],
    ids=["solve", "analyze", "homotopy", "sweep", "validate"],
)


@_PDE_RUNS
def test_pde_runs_leave_scipy_unloaded(tmp_path, doc):
    assert not _loaded_after(_run_code(tmp_path, doc), "scipy")


_POOL = ("concurrent.futures", "multiprocessing")


def test_cli_import_leaves_the_process_pool_unloaded():
    assert not _loaded_after("import minsurf.cli", *_POOL)


@_PDE_RUNS
def test_pde_runs_leave_the_process_pool_unloaded(tmp_path, doc):
    assert not _loaded_after(_run_code(tmp_path, doc), *_POOL)


@pytest.mark.parametrize("package", _POOL)
def test_oracle_run_loads_the_process_pool_on_two_or_more_cpus(tmp_path, package):
    # positive control: the probe sees the pool's imports where the oracle opens one
    oracle = {"samples": 2_000, "n_values": [2], "p_values": [2], "searches": []}
    pool = len(os.sched_getaffinity(0)) > 1
    assert _loaded_after(_run_code(tmp_path, {"command": "oracle", "oracle": oracle}), package) is pool


def test_found_search_leaves_optimizer_unloaded():
    code = (
        "from minsurf.chains import SearchRegime, counterexample_search\n"
        "regime = SearchRegime(chain='distance_decreasing', n=2, lam_high=2.0)\n"
        "assert counterexample_search(regime, budget=1_000, seed=3).found"
    )
    assert not _loaded_after(code, "scipy.optimize")


@pytest.mark.parametrize(
    "regime, seed",
    [
        (SearchRegime(chain="rank", n=3, p=2, lam_high=1.5, cap_products=False), 29),
        (SearchRegime(chain="distance_decreasing", n=3, lam_low=0.5, lam_high=1.2), 5),
    ],
    ids=["rank", "distance_decreasing"],
)
def test_found_search_reports_its_best_seeded_or_sampled_point(regime, seed):
    budget = SAMPLE_CHUNK + 1_000
    rep = counterexample_search(regime, budget=budget, seed=seed)
    assert rep.found
    rng = np.random.default_rng(seed)
    batches = [_analytic_seeds(regime)]
    batches += [regime.sample(rng, size) for size in (SAMPLE_CHUNK, 1_000)]
    lam, C = (np.concatenate(parts) for parts in zip(*batches))
    margins = regime.margin(lam, C)
    k = int(np.argmin(margins))
    assert rep.best_margin == margins[k]
    assert rep.best_lambda == tuple(lam[k]) and rep.best_C == tuple(map(tuple, C[k]))
    assert rep.samples_evaluated == len(batches[0][0]) + budget


@pytest.mark.parametrize(
    "regime",
    [SearchRegime(chain="rank", n=4, p=3, cap_products=False), SearchRegime(chain="distance_decreasing", n=3)],
    ids=["rank", "distance_decreasing"],
)
def test_blocked_search_keeps_the_best_point_of_the_whole_chunk(regime):
    lam, C = regime.sample(np.random.default_rng(0), SAMPLE_CHUNK)
    margins = regime.margin(lam, C)
    k = int(np.argmin(margins))
    assert k >= SCORE_BLOCK  # past the first scoring block
    rep = counterexample_search(regime, budget=SAMPLE_CHUNK, seed=0)
    assert rep.best_margin == margins[k]
    assert rep.found == (not regime.in_hypothesis)
    if rep.found:
        assert rep.best_lambda == tuple(lam[k]) and rep.best_C == tuple(map(tuple, C[k]))


def _sorting_sample(regime, rng, count):
    """``SearchRegime.sample`` of a rank regime by sorting: argsort of the keys, a full row sort for the cap."""
    n, p = regime.n, regime.p
    lam = rng.uniform(regime.lam_low, regime.lam_high, size=(count, n))
    if p < n:
        order = np.argsort(rng.random((count, n)), axis=-1)
        np.put_along_axis(lam, order[:, p:], 0.0, axis=-1)
    if regime.cap_products:
        bound = 1.0 / (p - 1)
        top = np.sort(lam, axis=-1)
        prod = top[..., -1] * top[..., -2]
        lam = lam * np.where(prod > bound, np.sqrt(bound / np.maximum(prod, 1e-300)), 1.0)[..., None]
    return lam, rng.uniform(-1.0, 1.0, size=(count, n, n))


@st.composite
def rank_regimes(draw):
    n = draw(st.integers(2, 5))
    lam_low, lam_high = sorted(draw(st.floats(0, 2)) for _ in range(2))
    return SearchRegime(
        chain="rank",
        n=n,
        lam_low=lam_low,
        lam_high=lam_high,
        p=draw(st.integers(2, n)),
        cap_products=draw(st.booleans()),
    )


@given(regime=rank_regimes(), seed=st.integers(0, 2**32 - 1), count=st.integers(1, 300))
@settings(max_examples=200, deadline=None)
def test_rank_sampler_equals_the_sorting_formulas(regime, seed, count):
    lam, C = regime.sample(np.random.default_rng(seed), count)
    ref_lam, ref_C = _sorting_sample(regime, np.random.default_rng(seed), count)
    assert np.array_equal(lam, ref_lam) and np.array_equal(C, ref_C)


class _TiedDraws:
    """Stand-in generator for ``SearchRegime.sample``: stretches 0.5 and tied rank keys."""

    keys = np.array([[0.5, 0.5, 0.5, 0.5], [0.2, 0.7, 0.2, 0.7]])

    def uniform(self, low, high, size):
        return np.full(size, 0.5)

    def random(self, size):
        return self.keys.copy()


def test_rank_sampler_breaks_key_ties_like_a_stable_sort():
    lam, _ = SearchRegime(chain="rank", n=4, p=2, cap_products=False).sample(_TiedDraws(), 2)
    assert np.array_equal(lam, [[0.5, 0.5, 0.0, 0.0], [0.5, 0.0, 0.5, 0.0]])


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


@given(regime=search_regimes())
@example(regime=SearchRegime(chain="rank", n=4, p=2, lam_low=0.95, lam_high=1.5, cap_products=False))
@example(regime=SearchRegime(chain="distance_decreasing", n=3, lam_low=2.5, lam_high=3.0))
@settings(max_examples=200, deadline=None)
def test_analytic_seeds_lie_in_the_box(regime):
    lam, C = _analytic_seeds(regime)
    assert len(lam) == (0 if regime.in_hypothesis else 1)
    _assert_in_box(regime, lam, C)
    if regime.chain == "distance_decreasing":
        assert np.all(lam >= regime.lam_low)


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
    # the seed (2, 0, ...) already lies in the box, so it needs no projection
    regime = SearchRegime(chain="distance_decreasing", n=n, lam_high=2.0)
    lam, C = _analytic_seeds(regime)
    expected_lam = np.zeros((1, n))
    expected_lam[0, 0] = 2.0
    assert np.array_equal(lam, expected_lam)
    assert abs(regime.margin(lam, C)[0] + 0.3) <= 1e-15


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

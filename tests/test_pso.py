import dataclasses
import sys
import threading

import numpy as np
import pytest

from qfda.blockdct import BlockLayout, SpectrumSet
from qfda.discriminant import criterion, quantized_scatters, solve_subspace
from qfda.errors import DataError, NumericError, OptimizationError
from qfda.pso import (
    CostBreakdown,
    CostContext,
    PsoConfig,
    evaluate_cost,
    run_pso,
)
from qfda.quantizer import (
    BoundVector,
    LevelVector,
    QuantizerSpec,
    estimate_bounds,
    project_levels,
    quantize,
)
from qfda.rate import fit_density, rate

from helpers import gaussian_class_spectra


def make_ctx():
    x, labels = gaussian_class_spectra(n_per_class=20, separation=4.0, seed=1)
    spectra = SpectrumSet(coeffs=x * 5.0, layout=BlockLayout.for_image(8, 8),
                          labels=labels)
    bounds = estimate_bounds(spectra, s=15, seed=0)
    density = fit_density(spectra, s=15, seed=0)
    return CostContext(spectra=spectra, bounds=bounds, density=density,
                       epsilon=1e-7, subspace_dim=5)


@pytest.fixture(scope="module")
def ctx():
    return make_ctx()


class TestEvaluateCost:
    def test_breakdown_consistent_with_parts(self, ctx):
        m = np.minimum(ctx.bounds.ell, 3)
        out = evaluate_cost(m, ctx, gamma=0.5, lam=0.5)
        spec = QuantizerSpec(bounds=ctx.bounds, levels=LevelVector(m=m))
        quantized = quantize(ctx.spectra, spec)
        pair = quantized_scatters(ctx.spectra, quantized, 0.5)
        sub = solve_subspace(pair, ctx.subspace_dim, ctx.epsilon)
        assert out.criterion == pytest.approx(criterion(pair, sub), rel=1e-12)
        assert out.rate == pytest.approx(
            rate(ctx.density, spec).average, rel=1e-12)
        assert out.total == pytest.approx(
            -out.criterion + 0.5 * out.rate, rel=1e-12)

    def test_gamma_scales_rate_term(self, ctx):
        m = np.minimum(ctx.bounds.ell, 4)
        lo = evaluate_cost(m, ctx, gamma=0.0, lam=0.5)
        hi = evaluate_cost(m, ctx, gamma=2.0, lam=0.5)
        assert hi.total - lo.total == pytest.approx(2.0 * lo.rate, rel=1e-9)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PsoConfig(gamma=1.0, lam=0.5, particles=0)
        with pytest.raises(ValueError):
            PsoConfig(gamma=1.0, lam=0.5, iterations=0)


def counting_cost(record):
    def fake(m, ctx, gamma, lam):
        record.append(m.copy())
        return CostBreakdown(criterion=0.0, rate=0.0, total=float(m.sum()))
    return fake


class TestRunPso:
    def test_deterministic_across_runs(self, ctx):
        config = PsoConfig(gamma=0.1, lam=0.5, particles=3, iterations=3,
                           seed=7)
        a = run_pso(ctx, config)
        b = run_pso(ctx, config)
        np.testing.assert_array_equal(a.best.m, b.best.m)
        np.testing.assert_array_equal(a.history, b.history)
        assert a.trace == b.trace
        assert a.breakdown == b.breakdown

    def test_threading_does_not_change_result(self, ctx):
        config = PsoConfig(gamma=0.1, lam=0.5, particles=3, iterations=2,
                           seed=3)
        a = run_pso(ctx, config, threads=1)
        b = run_pso(ctx, config, threads=4)
        np.testing.assert_array_equal(a.best.m, b.best.m)
        np.testing.assert_array_equal(a.history, b.history)

    def test_history_never_increases(self, ctx):
        config = PsoConfig(gamma=1.0, lam=2.0, particles=4, iterations=6,
                           seed=11)
        result = run_pso(ctx, config)
        assert (np.diff(result.history) <= 0).all()
        best_seen = np.inf
        for _, _, cost, best in result.trace:
            best_seen = min(best_seen, cost)
            assert best == best_seen

    def test_single_round_reports_best_initial_particle(self, ctx, monkeypatch):
        record = []
        monkeypatch.setattr("qfda.pso.evaluate_cost", counting_cost(record))
        config = PsoConfig(gamma=0.1, lam=0.5, particles=5, iterations=1,
                           seed=21)
        result = run_pso(ctx, config)

        rng = np.random.default_rng(21)
        ell = ctx.bounds.ell.astype(np.float64)
        positions = rng.uniform(2.0, ell, size=(5, ell.size))
        snapped = [project_levels(x, ctx.bounds).m for x in positions]
        sums = [m.sum() for m in snapped]
        expected = snapped[int(np.argmin(sums))]
        np.testing.assert_array_equal(result.best.m, expected)
        assert result.history.shape == (1,)
        assert result.history[0] == min(sums)

    def test_snapped_positions_stay_admissible(self, ctx, monkeypatch):
        record = []
        monkeypatch.setattr("qfda.pso.evaluate_cost", counting_cost(record))
        config = PsoConfig(gamma=0.1, lam=0.5, particles=4, iterations=8,
                           seed=2)
        run_pso(ctx, config)
        for m in record:
            assert m.dtype == np.int64
            assert (m >= 2).all()
            assert (m <= ctx.bounds.ell).all()

    def test_cache_skips_repeat_vectors(self, ctx, monkeypatch):
        record = []
        monkeypatch.setattr("qfda.pso.evaluate_cost", counting_cost(record))
        config = PsoConfig(gamma=0.1, lam=0.5, particles=5, iterations=10,
                           seed=0)
        result = run_pso(ctx, config)
        assert len(record) == result.evaluations
        assert result.evaluations <= config.particles * config.iterations
        seen = {m.tobytes() for m in record}
        assert len(seen) == len(record)

    def test_constant_cost_ties_go_to_first_particle(self, ctx, monkeypatch):
        monkeypatch.setattr(
            "qfda.pso.evaluate_cost",
            lambda m, c, g, l: CostBreakdown(criterion=0.0, rate=0.0,
                                             total=1.0))
        config = PsoConfig(gamma=0.1, lam=0.5, particles=4, iterations=1,
                           seed=5)
        result = run_pso(ctx, config)
        rng = np.random.default_rng(5)
        ell = ctx.bounds.ell.astype(np.float64)
        first = rng.uniform(2.0, ell, size=(4, ell.size))[0]
        np.testing.assert_array_equal(result.best.m,
                                      project_levels(first, ctx.bounds).m)

    def test_failed_evaluations_are_skipped(self, ctx, monkeypatch):
        def spiky(m, c, g, l):
            if m.sum() % 2 == 0:
                return CostBreakdown(criterion=np.nan, rate=np.nan,
                                     total=np.inf)
            return CostBreakdown(criterion=0.0, rate=0.0, total=float(m.sum()))
        monkeypatch.setattr("qfda.pso.evaluate_cost", spiky)
        config = PsoConfig(gamma=0.1, lam=0.5, particles=5, iterations=4,
                           seed=9)
        result = run_pso(ctx, config)
        assert np.isfinite(result.breakdown.total)
        assert result.best.m.sum() % 2 == 1

    def test_all_failures_raise(self, ctx, monkeypatch):
        monkeypatch.setattr(
            "qfda.pso.evaluate_cost",
            lambda m, c, g, l: CostBreakdown(criterion=np.nan, rate=np.nan,
                                             total=np.inf))
        config = PsoConfig(gamma=0.1, lam=0.5, particles=3, iterations=2,
                           seed=1)
        with pytest.raises(OptimizationError):
            run_pso(ctx, config)

    def test_trace_rows_cover_every_particle_round(self, ctx):
        config = PsoConfig(gamma=0.1, lam=0.5, particles=3, iterations=4,
                           seed=13)
        result = run_pso(ctx, config)
        assert [(r, p) for r, p, _, _ in result.trace] == [
            (r, p) for r in range(1, 5) for p in range(3)]


class TestSharedRateTable:
    # fresh contexts: the module fixture's context carries a warm solve memo
    @pytest.mark.parametrize("threads", [2, 4])
    def test_pool_shares_table_without_changing_results(self, threads):
        config = PsoConfig(gamma=0.3, lam=0.5, particles=6, iterations=3, seed=4)
        serial_ctx, pool_ctx = make_ctx(), make_ctx()
        a = run_pso(serial_ctx, config, threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            b = run_pso(pool_ctx, config, threads=threads)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(a.best.m, b.best.m)
        np.testing.assert_array_equal(a.history, b.history)
        assert a.trace == b.trace
        assert a.breakdown == b.breakdown


def recording_cost(record, lock):
    """A fake evaluate_cost that notes (level vector, thread) under a lock."""
    def fake(m, ctx, gamma, lam):
        with lock:
            record.append((m.tobytes(), threading.get_ident()))
        return CostBreakdown(criterion=0.0, rate=0.0, total=float(m.sum()))
    return fake


class TestSingleRoundPath:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_repeat_within_round_evaluated_once(self, ctx, monkeypatch, threads):
        # ell = 3 at k = 0 and 2 elsewhere: six particles snap to at most two
        # vectors, so the one round repeats a vector
        narrow = dataclasses.replace(
            ctx, bounds=BoundVector(ell=np.r_[3, np.full(63, 2)]))
        record, lock = [], threading.Lock()
        monkeypatch.setattr("qfda.pso.evaluate_cost", recording_cost(record, lock))
        config = PsoConfig(gamma=0.1, lam=0.5, particles=6, iterations=1, seed=8)
        result = run_pso(narrow, config, threads=threads)

        rng = np.random.default_rng(8)
        positions = rng.uniform(2.0, narrow.bounds.ell.astype(np.float64), size=(6, 64))
        keys = [project_levels(x, narrow.bounds).m.tobytes() for x in positions]
        assert len(set(keys)) < len(keys)
        assert sorted(key for key, _ in record) == sorted(set(keys))
        assert result.evaluations == len(set(keys))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_evaluation_error_keeps_its_type(self, ctx, monkeypatch, threads):
        def failing(m, c, g, l):
            raise DataError("degenerate data")
        monkeypatch.setattr("qfda.pso.evaluate_cost", failing)
        config = PsoConfig(gamma=0.1, lam=0.5, particles=3, iterations=2, seed=1)
        with pytest.raises(DataError, match="degenerate data"):
            run_pso(ctx, config, threads=threads)

    def test_one_thread_evaluates_on_calling_thread(self, ctx, monkeypatch):
        record, lock = [], threading.Lock()
        monkeypatch.setattr("qfda.pso.evaluate_cost", recording_cost(record, lock))
        config = PsoConfig(gamma=0.1, lam=0.5, particles=4, iterations=3, seed=2)
        result = run_pso(ctx, config, threads=1)
        assert len(record) == result.evaluations > 1
        assert {thread for _, thread in record} == {threading.get_ident()}


class TestCostMemo:
    def test_second_gamma_reuses_the_solve(self, monkeypatch):
        ctx = make_ctx()
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return solve_subspace(*args, **kwargs)

        monkeypatch.setattr("qfda.pso.solve_subspace", counted)
        m = np.minimum(ctx.bounds.ell, 3)
        lo = evaluate_cost(m, ctx, gamma=0.1, lam=0.5)
        hi = evaluate_cost(m, ctx, gamma=1.0, lam=0.5)
        assert len(calls) == 1
        assert hi.subspace is lo.subspace
        assert hi.criterion == lo.criterion and hi.rate == lo.rate
        assert hi.total == -hi.criterion + 1.0 * hi.rate
        evaluate_cost(m, ctx, gamma=1.0, lam=2.0)
        assert len(calls) == 2  # lambda is part of the key
        fresh = evaluate_cost(m, make_ctx(), gamma=1.0, lam=0.5)
        assert np.float64(fresh.total).tobytes() == np.float64(hi.total).tobytes()
        assert fresh.subspace.u.tobytes() == hi.subspace.u.tobytes()

    def test_failed_solve_is_tried_once(self, monkeypatch):
        ctx = make_ctx()
        calls = []

        def breaking(*args, **kwargs):
            calls.append(1)
            raise NumericError("eigensolve failed")

        monkeypatch.setattr("qfda.pso.solve_subspace", breaking)
        m = np.minimum(ctx.bounds.ell, 3)
        first = evaluate_cost(m, ctx, gamma=0.1, lam=0.5)
        second = evaluate_cost(m, ctx, gamma=1.0, lam=0.5)
        assert len(calls) == 1
        assert first.total == second.total == np.inf
        assert np.isnan(second.criterion) and second.subspace is None

    def test_replace_starts_an_empty_memo(self):
        ctx = make_ctx()
        evaluate_cost(np.minimum(ctx.bounds.ell, 3), ctx, gamma=0.1, lam=0.5)
        assert len(ctx.memo) == 1
        assert dataclasses.replace(ctx, epsilon=1e-5).memo == {}
        assert len(ctx.memo) == 1

    def test_pool_shares_memo_across_gammas_without_changing_results(self):
        configs = [PsoConfig(gamma=gamma, lam=0.5, particles=6, iterations=3, seed=4)
                   for gamma in (0.3, 3.0)]
        serial_ctx, pool_ctx = make_ctx(), make_ctx()
        serial = [run_pso(serial_ctx, config, threads=1) for config in configs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = [run_pso(pool_ctx, config, threads=4) for config in configs]
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, pooled):
            np.testing.assert_array_equal(a.best.m, b.best.m)
            assert a.trace == b.trace
            assert a.breakdown == b.breakdown
            assert a.evaluations == b.evaluations
        assert serial_ctx.memo.keys() == pool_ctx.memo.keys()
        for key, (f_q, rbar, sub) in serial_ctx.memo.items():
            other_f_q, other_rbar, other_sub = pool_ctx.memo[key]
            assert np.float64(f_q).tobytes() == np.float64(other_f_q).tobytes()
            assert np.float64(rbar).tobytes() == np.float64(other_rbar).tobytes()
            assert sub.u.tobytes() == other_sub.u.tobytes()

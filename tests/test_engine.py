"""Tests for the simulated execution engine."""

from __future__ import annotations

import pytest

from repro.model.stochastic_lm import PREFETCH_MIN_BATCH
from repro.serving.request import RequestState
from repro.workloads import batcharrivals
from repro.workloads.generator import WorkloadGenerator
from tests.conftest import make_request


def queued(rid=0, prompt=32, out=16, **kw):
    return make_request(rid=rid, prompt_len=prompt, max_new_tokens=out, **kw)


def running(engine, rid=0, prompt=32, out=16, **kw):
    req = queued(rid, prompt, out, **kw)
    engine.prefill([(req, req.prompt_len)], now=0.0)
    return req


class TestPrefill:
    def test_empty_batch_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.prefill([], 0.0)

    def test_full_prefill_starts_decode(self, engine):
        req = queued()
        latency = engine.prefill([(req, 32)], now=1.0)
        assert latency > 0
        assert req.state == RequestState.RUNNING
        assert req.decode_start == pytest.approx(1.0 + latency)
        assert req.ctx == engine.root_ctx(req)

    def test_chunked_prefill_stays_incomplete(self, engine):
        req = queued(prompt=100)
        engine.prefill([(req, 60)], now=0.0)
        assert req.state == RequestState.PREFILLING
        assert req.decode_start is None

    def test_longer_prompts_cost_more(self, engine):
        short = engine.prefill([(queued(0, prompt=64), 64)], 0.0)
        long = engine.prefill([(queued(1, prompt=2048), 2048)], 0.0)
        assert long > short

    def test_phase_accounting(self, engine):
        engine.prefill([(queued(), 32)], 0.0)
        assert engine.phase_times.prefill_s > 0
        assert engine.phase_times.decode_s == 0


class TestDecode:
    def test_decode_commits_one_token_each(self, engine):
        reqs = [running(engine, rid=i) for i in range(3)]
        latency = engine.decode(reqs, now=2.0)
        for r in reqs:
            assert r.n_generated == 1
            assert r.last_token_time == pytest.approx(2.0 + latency)

    def test_decode_deterministic_tokens(self, engine):
        r1 = running(engine, rid=7)
        ctx_before = r1.ctx
        engine.decode([r1], 0.0)
        expected = engine.pair.target_sample(ctx_before, r1.predictability)
        assert r1.ctx == engine.pair.extend(ctx_before, expected)

    def test_empty_decode_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.decode([], 0.0)

    def test_decode_latency_grows_with_batch(self, engine):
        # Far past saturation, bigger batches take longer.
        a = [running(engine, rid=i) for i in range(2)]
        lat_small = engine.decode(a, 0.0)
        b = [running(engine, rid=100 + i) for i in range(150)]
        lat_big = engine.decode(b, 0.0)
        assert lat_big > lat_small


class TestMixedStep:
    def test_mixed_commits_both(self, engine):
        dec = running(engine, rid=1)
        pre = queued(rid=2, prompt=100)
        latency = engine.mixed_step([dec], [(pre, 40)], now=1.0)
        assert dec.n_generated == 1
        assert pre.prefilled == 40
        assert latency > 0

    def test_mixed_completes_prefill(self, engine):
        pre = queued(rid=2, prompt=50)
        engine.mixed_step([], [(pre, 50)], now=0.0)
        assert pre.state == RequestState.RUNNING

    def test_empty_mixed_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.mixed_step([], [], 0.0)

    def test_phase_split(self, engine):
        dec = running(engine, rid=1)
        engine.phase_times.prefill_s = 0.0  # reset after setup prefill
        pre = queued(rid=2, prompt=100)
        engine.mixed_step([dec], [(pre, 40)], now=0.0)
        assert engine.phase_times.prefill_s > 0
        assert engine.phase_times.decode_s > 0


class TestSpecCosts:
    def test_draft_cost_positive(self, engine):
        cost = engine.draft_cost((4, 8, 8))
        assert cost > 0
        assert engine.phase_times.speculation_s == pytest.approx(cost)

    def test_draft_graph_reuse_cheaper(self, engine):
        # Two identical beams: the second replays captured graphs.
        first = engine.draft_cost((4, 8, 8))
        second = engine.draft_cost((4, 8, 8))
        assert second < first

    def test_sequence_draft_cost_steps(self, engine):
        one = engine.sequence_draft_cost(1, 8)
        four = engine.sequence_draft_cost(4, 8)
        assert four > 3 * one * 0.9

    def test_verify_cost_grows_with_tokens(self, engine):
        small = engine.verify_cost(10)
        large = engine.verify_cost(500)
        assert large > small

    def test_verify_prefill_split(self, engine):
        engine.verify_cost(50, extra_prefill_tokens=50)
        assert engine.phase_times.prefill_s > 0
        assert engine.phase_times.verification_s > 0

    def test_scheduling_accounting(self, engine):
        engine.account_scheduling(0.001)
        assert engine.phase_times.scheduling_s == pytest.approx(0.001)

    def test_breakdown_sums_to_one(self, engine):
        engine.verify_cost(50)
        engine.draft_cost((4,))
        engine.account_scheduling(1e-4)
        bd = engine.phase_times.breakdown()
        assert sum(bd.values()) == pytest.approx(1.0)


class TestLifecycle:
    def test_finish_frees_kv(self, engine):
        req = running(engine, rid=3, out=1)
        engine.kv.ensure(req.rid, req.kv_tokens)
        engine.decode([req], 0.0)
        assert req.is_finished
        engine.finish(req)
        assert not engine.kv.holds(req.rid)

    def test_finish_unfinished_rejected(self, engine):
        req = running(engine, rid=4)
        with pytest.raises(ValueError):
            engine.finish(req)

    def test_preempt_drop_kv(self, engine):
        req = running(engine, rid=5)
        engine.kv.ensure(req.rid, req.kv_tokens)
        engine.preempt(req, drop_kv=True)
        assert not engine.kv.holds(req.rid)
        assert req.prefilled == 0


def sampled_chain(pair, ctx, predictability, steps):
    """Context after ``steps`` eagerly sampled target tokens."""
    for _ in range(steps):
        ctx = pair.extend(ctx, pair.target_sample(ctx, predictability))
    return ctx


class CountingPair:
    """Delegates to a real pair, counting the token samples it serves."""

    def __init__(self, pair):
        self.pair = pair
        self.samples = 0
        self.extend = pair.extend

    def target_sample(self, ctx, center=None):
        self.samples += 1
        return self.pair.target_sample(ctx, center)


class TestContentFreeDecode:
    """Plain decode commits tokens unsampled; ``ctx`` folds them on read."""

    def test_decode_ctx_exact_across_preemption(self, engine):
        read_early = running(engine, rid=21, out=20)
        read_late = running(engine, rid=22, out=20)
        roots = {r.rid: engine.root_ctx(r) for r in (read_early, read_late)}
        batch = [read_early, read_late]
        for step in range(3):
            engine.decode(batch, float(step))
        assert read_early.ctx == sampled_chain(
            engine.pair, roots[21], read_early.predictability, 3
        )
        for req in batch:
            engine.preempt(req, drop_kv=False)
            req.resume()
        for step in range(3, 6):
            engine.decode(batch, float(step))
        for req in batch:
            assert req.n_generated == 6
            assert req.ctx == sampled_chain(
                engine.pair, roots[req.rid], req.predictability, 6
            )

    def test_mixed_step_ctx_exact_across_preemption(self, engine):
        read_early = running(engine, rid=23, out=20)
        read_late = running(engine, rid=24, out=20)
        roots = {r.rid: engine.root_ctx(r) for r in (read_early, read_late)}
        batch = [read_early, read_late]
        long_prompt = queued(rid=25, prompt=1000)
        for step in range(6):
            if step == 3:
                for req in batch:
                    engine.preempt(req, drop_kv=False)
                    req.resume()
            engine.mixed_step(batch, [(long_prompt, 50)], float(step))
            if step == 1:
                assert read_early.ctx == sampled_chain(
                    engine.pair, roots[23], read_early.predictability, 2
                )
        assert long_prompt.prefilled == 300
        for req in batch:
            assert req.ctx == sampled_chain(
                engine.pair, roots[req.rid], req.predictability, 6
            )

    def test_plain_steps_leave_target_memo_untouched(self, engine):
        # Fresh contexts: sampling them would grow the shared memo.
        batch = [running(engine, rid=70_000 + i) for i in range(PREFETCH_MIN_BATCH)]
        prompt = queued(rid=71_000, prompt=1000)
        cache = engine.pair.target._cache
        before = len(cache)
        engine.decode(batch, 0.0)
        engine.mixed_step(batch, [(prompt, 64)], 1.0)
        assert len(cache) == before

    def test_fresh_copy_drops_unfolded_tokens(self, engine):
        req = running(engine, rid=26)
        counting = CountingPair(engine.pair)
        req.commit_plain_token(counting, 1.0)
        req.commit_plain_token(counting, 2.0)
        clone = req.fresh_copy()
        assert clone.ctx == 0
        assert counting.samples == 0
        assert req.ctx == sampled_chain(engine.pair, engine.root_ctx(req), req.predictability, 2)
        assert counting.samples == 2

    def test_fail_over_discards_unfolded_tokens(self, engine):
        req = running(engine, rid=27)
        counting = CountingPair(engine.pair)
        req.commit_plain_token(counting, 1.0)
        req.fail_over()
        assert req.ctx == 0
        assert counting.samples == 0

    def test_batcharrivals_request_decodes_exactly(self, target_roofline, engine):
        if not batcharrivals.AVAILABLE:
            pytest.skip("numpy unavailable; substrate disabled")
        saved = batcharrivals.DISABLED
        batcharrivals.DISABLED = False
        try:
            reqs = WorkloadGenerator(target_roofline, seed=0).steady(60.0, 4.0)
        finally:
            batcharrivals.DISABLED = saved
        assert len(reqs) >= batcharrivals.MIN_BATCH  # built by the columnar path
        req = reqs[0]
        assert req.ctx == 0
        engine.prefill([(req, req.prompt_len)], 0.0)
        for step in range(min(3, req.max_new_tokens)):
            engine.decode([req], float(step))
        assert req.ctx == sampled_chain(
            engine.pair, engine.root_ctx(req), req.predictability, req.n_generated
        )

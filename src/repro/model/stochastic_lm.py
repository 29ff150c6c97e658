"""Synthetic target language model.

The paper's algorithms never look inside the LLM: they consume (a) a draft
model's next-token probabilities and (b) accept/reject outcomes when the
target model verifies speculated tokens.  ``StochasticLM`` supplies the
target side of that contract as a seeded stochastic process:

- For every *context* (a 64-bit rolling hash of the token sequence) the
  model exposes a truncated next-token distribution over ``branching``
  candidate tokens whose probabilities sum to exactly 1.  Truncation models
  the fact that, conditioned on a prefix, only a handful of continuations
  carry mass; it also makes sibling acceptance probabilities sum to 1,
  matching Appendix A of the paper.
- ``sample(ctx)`` returns the token the target model emits at that context.
  It is a deterministic function of the context, exactly like greedy/seeded
  decoding on a real model: re-verifying the same prefix always yields the
  same token, which is what makes tree verification sound.

The *predictability* knob controls how peaked distributions are, standing
in for how guessable a domain's text is (code >> free-form prose).  Higher
predictability yields higher top-1 mass and therefore higher speculative
acceptance rates.
"""

from __future__ import annotations

from repro._rng import (
    MASK64,
    _COMBINE,
    _GOLDEN,
    _INV_2_53,
    _MIX1,
    _MIX2,
    hash_seed,
    mix,
    salted,
    uniforms,
)
from repro.model.vocab import Vocabulary

# Salt namespaces; keep distinct so the same context hash yields independent
# randomness for each purpose.
_SALT_SHAPE = 0x51
_SALT_TOKENS = 0x52
_SALT_SAMPLE = 0x53

# Precomputed XOR masks (see repro._rng.salted): the per-draw multiply
# in `uniform(ctx, salt)` / the token-id draws is hoisted here, which is
# exact — the draws are unchanged bit for bit.
_SHAPE_MASK = salted(_SALT_SHAPE)
_SAMPLE_MASK = salted(_SALT_SAMPLE)
_TOKEN_MASKS: list[int] = [salted(_SALT_TOKENS + i) for i in range(64)]


def _token_mask(i: int) -> int:
    """XOR mask for the ``i``-th token-id draw (list grown on demand)."""
    while i >= len(_TOKEN_MASKS):
        _TOKEN_MASKS.append(salted(_SALT_TOKENS + len(_TOKEN_MASKS)))
    return _TOKEN_MASKS[i]


#: Below this many pending queries, batch prefetching cannot beat the
#: scalar generators (numpy dispatch overhead; see repro.model.batchgen)
#: — callers should not even build the items list.
PREFETCH_MIN_BATCH = 16

#: Distribution memos shared across model instances, keyed by the
#: parameter signature that fully determines the ctx -> distribution
#: mapping.  A model's distributions do not depend on its seed (the seed
#: only shapes which *contexts* arise), so every engine built with the
#: same model parameters — sweep points, fleet replicas, repeated runs
#: in one process — draws from one memo instead of regenerating the
#: same pure function per instance.
_SHARED_CACHES: dict[tuple, dict] = {}

#: Distinct parameter signatures memoized at once.  A long-lived process
#: sweeping many model parameterizations (property tests, mixed
#: benchmark sessions) must not accumulate distributions without bound:
#: past the cap every memo is emptied (live models keep working — they
#: simply refill on demand).
_MAX_SIGNATURES = 64


def shared_distribution_cache(signature: tuple) -> dict:
    """The process-wide distribution memo for a parameter signature."""
    cache = _SHARED_CACHES.get(signature)
    if cache is None:
        if len(_SHARED_CACHES) >= _MAX_SIGNATURES:
            for stale in _SHARED_CACHES.values():
                stale.clear()
            _SHARED_CACHES.clear()
        cache = _SHARED_CACHES[signature] = {}
    return cache

#: Default number of candidate continuations carrying mass at each context.
DEFAULT_BRANCHING = 8

#: Bounds on the top-1 probability regardless of predictability, so that no
#: context is perfectly predictable or perfectly flat.
_TOP1_FLOOR = 0.05
_TOP1_CEIL = 0.98


class TokenDistribution:
    """A truncated next-token distribution (treat as immutable).

    ``token_ids[i]`` occurs with probability ``probs[i]``; probabilities are
    sorted in descending order and sum to 1 (the lumped tail outside the
    truncation is folded into the listed candidates).

    A plain ``__slots__`` class rather than a frozen dataclass: millions
    are constructed per run, and the frozen-dataclass ``__init__`` (one
    ``object.__setattr__`` per field) was a measurable share of every
    distribution generation.
    """

    __slots__ = ("token_ids", "probs")

    def __init__(self, token_ids: tuple[int, ...], probs: tuple[float, ...]) -> None:
        if len(token_ids) != len(probs):
            raise ValueError("token_ids and probs length mismatch")
        self.token_ids = token_ids
        self.probs = probs

    def prob_of(self, token_id: int) -> float:
        """Probability of ``token_id`` (0.0 if outside the truncation)."""
        for tid, p in zip(self.token_ids, self.probs):
            if tid == token_id:
                return p
        return 0.0

    def top_token(self) -> int:
        """The most likely continuation."""
        return self.token_ids[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TokenDistribution):
            return NotImplemented
        return self.token_ids == other.token_ids and self.probs == other.probs

    def __hash__(self) -> int:
        return hash((self.token_ids, self.probs))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TokenDistribution(token_ids={self.token_ids!r}, probs={self.probs!r})"


class StochasticLM:
    """Seeded synthetic target model over a vocabulary.

    Parameters
    ----------
    vocab:
        Token id space.
    seed:
        Global model seed; two models with the same seed are identical.
    branching:
        Number of candidate continuations per context.
    predictability:
        Mean top-1 probability in (0, 1).  Per-context top-1 mass is drawn
        uniformly from ``predictability ± spread`` (clipped).
    spread:
        Half-width of the per-context top-1 jitter.
    decay:
        Geometric ratio splitting the non-top-1 mass across the remaining
        candidates.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        seed: int = 0,
        branching: int = DEFAULT_BRANCHING,
        predictability: float = 0.7,
        spread: float = 0.15,
        decay: float = 0.6,
    ) -> None:
        if branching < 2:
            raise ValueError("branching must be >= 2")
        if not 0.0 < predictability < 1.0:
            raise ValueError("predictability must be in (0, 1)")
        if not 0.0 < decay < 1.0:
            raise ValueError("decay must be in (0, 1)")
        self.vocab = vocab
        self.seed = seed
        self.branching = branching
        self.predictability = predictability
        self.spread = spread
        self.decay = decay
        self._root = hash_seed(seed, 0x4C4D)  # ASCII "LM"
        self._n_regular = vocab.num_regular  # property hoisted off the hot path
        # Geometric weights for the non-top slots, precomputed and normalized.
        weights = [decay**i for i in range(branching - 1)]
        total = 0.0
        for w in weights:  # left to right: sum() is compensated since 3.12
            total += w
        self._tail_weights = [w / total for w in weights]
        # ctx -> distribution is a pure function of these parameters
        # (not the seed), so the memo is shared across instances.
        self._cache: dict[int, TokenDistribution] = shared_distribution_cache(
            ("target", vocab.num_regular, branching, predictability, spread, decay)
        )
        self._cache_cap = 200_000

    # ------------------------------------------------------------------
    # Context handling
    # ------------------------------------------------------------------
    def context_of(self, tokens: list[int] | tuple[int, ...]) -> int:
        """Fold a token sequence into a context hash."""
        h = self._root
        for t in tokens:
            h = mix(h, t)
        return h

    def extend(self, ctx: int, token_id: int) -> int:
        """Context hash after appending one token.

        Inlined ``mix`` (tree construction extends a context per node).
        """
        x = (((ctx ^ (token_id * _COMBINE)) & MASK64) + _GOLDEN) & MASK64
        x = ((x ^ (x >> 30)) * _MIX1) & MASK64
        x = ((x ^ (x >> 27)) * _MIX2) & MASK64
        return x ^ (x >> 31)

    # ------------------------------------------------------------------
    # Distributions and sampling
    # ------------------------------------------------------------------
    def distribution(self, ctx: int, center: float | None = None) -> TokenDistribution:
        """Next-token distribution at a context (cached).

        ``center`` overrides the model-level predictability for this
        context; workloads use it to make, e.g., code more guessable than
        prose for the same underlying model.
        """
        key = ctx if center is None else mix(ctx, int(center * 1e6))
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        dist = self._generate(ctx, self.predictability if center is None else center)
        if len(self._cache) >= self._cache_cap:
            self._cache.clear()
        self._cache[key] = dist
        return dist

    def _generate(self, ctx: int, center: float) -> TokenDistribution:
        # This is the simulator's innermost hot function (millions of
        # fresh contexts per run), so the splitmix64 finalizer is inlined
        # and the per-draw salts are precomputed — every draw is
        # bit-identical to uniform()/splitmix64() on the original salts.
        k = self.branching
        x = ((ctx ^ _SHAPE_MASK) + _GOLDEN) & MASK64
        x = ((x ^ (x >> 30)) * _MIX1) & MASK64
        x = ((x ^ (x >> 27)) * _MIX2) & MASK64
        u = ((x ^ (x >> 31)) >> 11) * _INV_2_53
        top1 = center + self.spread * (2.0 * u - 1.0)
        if top1 < _TOP1_FLOOR:
            top1 = _TOP1_FLOOR
        elif top1 > _TOP1_CEIL:
            top1 = _TOP1_CEIL
        tail_mass = 1.0 - top1
        probs = (top1, *[tail_mass * w for w in self._tail_weights])
        return TokenDistribution(tuple(self._draw_token_ids(ctx)), probs)

    def _draw_token_ids(self, ctx: int) -> list[int]:
        """Draw k distinct regular token ids for a context.

        Fast path: the first k draws are almost always distinct
        (collision odds ~ k^2 / vocab); when they are not, replay the
        exact skip-duplicates loop.  Also used by the vectorized batch
        generator (:mod:`repro.model.batchgen`) to repair collided rows.
        """
        k = self.branching
        n_regular = self._n_regular
        masks = _TOKEN_MASKS
        if k > len(masks):
            _token_mask(k - 1)
        ids: list[int] = []
        for i in range(k):
            y = ((ctx ^ masks[i]) + _GOLDEN) & MASK64
            y = ((y ^ (y >> 30)) * _MIX1) & MASK64
            y = ((y ^ (y >> 27)) * _MIX2) & MASK64
            ids.append((y ^ (y >> 31)) % n_regular)
        if len(set(ids)) != k:
            ids = []
            seen: set[int] = set()
            i = 0
            while len(ids) < k:
                y = ((ctx ^ _token_mask(i)) + _GOLDEN) & MASK64
                y = ((y ^ (y >> 30)) * _MIX1) & MASK64
                y = ((y ^ (y >> 27)) * _MIX2) & MASK64
                tid = (y ^ (y >> 31)) % n_regular
                if tid not in seen:
                    seen.add(tid)
                    ids.append(tid)
                i += 1
        return ids

    def sample(self, ctx: int, center: float | None = None) -> int:
        """The token the target emits at this context (deterministic)."""
        # Inline the memo probe: decode loops sample right after a batch
        # prefetch, so the hit path should not pay the distribution()
        # frame + key recomputation.
        if center is None:
            key = ctx
        else:
            x = (((ctx ^ (int(center * 1e6) * _COMBINE)) & MASK64) + _GOLDEN) & MASK64
            x = ((x ^ (x >> 30)) * _MIX1) & MASK64
            x = ((x ^ (x >> 27)) * _MIX2) & MASK64
            key = x ^ (x >> 31)
        dist = self._cache.get(key)
        if dist is None:
            dist = self.distribution(ctx, center)
        x = ((ctx ^ _SAMPLE_MASK) + _GOLDEN) & MASK64
        x = ((x ^ (x >> 30)) * _MIX1) & MASK64
        x = ((x ^ (x >> 27)) * _MIX2) & MASK64
        u = ((x ^ (x >> 31)) >> 11) * _INV_2_53
        acc = 0.0
        for tid, p in zip(dist.token_ids, dist.probs):
            acc += p
            if u < acc:
                return tid
        return dist.token_ids[-1]

    def prefetch(self, items) -> None:
        """Warm the distribution memo for many ``(ctx, center)`` queries.

        Vectorized batch generation (see :mod:`repro.model.batchgen`);
        bit-identical to generating on demand, and a no-op when numpy is
        unavailable or the batch is too small to amortize.
        """
        from repro.model import batchgen

        batchgen.prefetch_target(self, items)

    def greedy(self, ctx: int, center: float | None = None) -> int:
        """The argmax continuation at this context."""
        return self.distribution(ctx, center).top_token()

    def clear_cache(self) -> None:
        """Drop memoized distributions (for memory-bounded long runs)."""
        self._cache.clear()


def uniforms_for_noise(ctx: int, salt: int, n: int) -> list[float]:
    """Expose the raw uniform stream for draft-noise construction."""
    return uniforms(ctx, salt, n)

"""Vectorized batch generation of synthetic-model distributions.

The scalar generators in :mod:`repro.model.stochastic_lm` /
:mod:`repro.model.draft` produce one distribution per call from ~18
splitmix64 chains plus a handful of float operations.  When a caller
knows *many* contexts it is about to query — a beam-search level across
a whole batch, a chain drafter's lockstep steps — those chains can be
evaluated for every context at once with ``numpy`` uint64/float64
matrices (contexts x draws), collapsing thousands of interpreter
operations into a few dozen array dispatches.

**Bit-identity is the contract.**  Every vector statement here maps 1:1
onto a scalar statement of the reference implementation:

- uint64 adds/multiplies wrap modulo 2**64 exactly like the masked
  Python-int arithmetic;
- each float64 element is produced by the same IEEE operation sequence
  (multiply, divide, add in the same order) as the scalar path;
- running sums use ``cumsum`` (sequential, left-associated by
  definition), never ``np.sum`` (whose pairwise summation would differ);
  the scalar side accumulates left to right by hand, because ``sum()``
  over floats is compensated from Python 3.12 on;
- descending stable ``argsort`` of the negated probabilities matches
  ``sorted(..., reverse=True)`` tie-breaking.

Two kinds of entry point share those kernels:

- :func:`draft_rows` returns draft rows as arrays, creating no
  ``TokenDistribution`` and writing no memo.  Beam speculation
  (:func:`repro.core.speculation.speculate_batch`) is its array path.
- :func:`prefetch_draft` warms the memos for callers that then query
  scalar-style (the chain drafters' ``draft_chains``);
  :func:`prefetch_target` is its target-only twin behind
  ``StochasticLM.prefetch``.  No simulator path calls it since plain
  decode stopped sampling (see ``Request.commit_plain_token``).

The scalar methods (``StochasticLM.distribution``,
``DraftLM.distribution``) are the reference oracle.  The golden-equivalence
suite (tests/test_golden_equivalence.py), ``tests/test_batchgen.py`` and
``tests/test_speculation.py`` pin this.  ``numpy`` is optional: when it is
unavailable the ``prefetch`` entry points are no-ops and callers fall
back to on-demand scalar generation.
"""

from __future__ import annotations

try:  # gated dependency: the scalar path is always available
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via AVAILABLE flag
    _np = None

from repro._rng import MASK64, _COMBINE, _GOLDEN, _INV_2_53, _MIX1, _MIX2
from repro.model.stochastic_lm import (
    _SHAPE_MASK,
    _TOKEN_MASKS,
    _TOP1_CEIL,
    _TOP1_FLOOR,
    PREFETCH_MIN_BATCH,
    TokenDistribution,
    _token_mask,
)

#: Whether the vectorized path can run at all.
AVAILABLE = _np is not None

#: Below this many pending generations the numpy fixed dispatch overhead
#: loses to the scalar loop (measured on small arrays).  Shared with the
#: call sites via repro.model.stochastic_lm.PREFETCH_MIN_BATCH so they
#: can skip building the items list entirely.
MIN_BATCH = PREFETCH_MIN_BATCH

if AVAILABLE:
    _U64 = _np.uint64
    _G = _U64(_GOLDEN)
    _M1 = _U64(_MIX1)
    _M2 = _U64(_MIX2)
    _S30 = _U64(30)
    _S27 = _U64(27)
    _S31 = _U64(31)
    _S11 = _U64(11)

#: Per-center XOR salts for the cache-key mix (few distinct centers).
_CENTER_SALTS: dict[float, int] = {}

#: Constant arrays reused across calls (token masks / tail weights /
#: noise steps are rebuilt thousands of times per run otherwise).
_MASKS_ARRAYS: dict[int, object] = {}
_STEPS_ARRAYS: dict[int, object] = {}
_WEIGHTS_ARRAYS: dict[tuple, object] = {}


def _center_salt(center: float) -> int:
    salt = _CENTER_SALTS.get(center)
    if salt is None:
        salt = _CENTER_SALTS[center] = (int(center * 1e6) * _COMBINE) & MASK64
    return salt


def _masks_array(k: int):
    arr = _MASKS_ARRAYS.get(k)
    if arr is None:
        if k > len(_TOKEN_MASKS):
            _token_mask(k - 1)
        arr = _MASKS_ARRAYS[k] = _np.array(_TOKEN_MASKS[:k], dtype=_np.uint64)
    return arr


def _steps_array(k: int):
    arr = _STEPS_ARRAYS.get(k)
    if arr is None:
        arr = _STEPS_ARRAYS[k] = _np.array(
            [(_GOLDEN * (j + 1)) & MASK64 for j in range(k)], dtype=_np.uint64
        )
    return arr


def _weights_array(weights: list[float]):
    key = tuple(weights)
    arr = _WEIGHTS_ARRAYS.get(key)
    if arr is None:
        arr = _WEIGHTS_ARRAYS[key] = _np.array(weights, dtype=_np.float64)
    return arr


def _splitmix(x):
    """Vector splitmix64 finalizer (matches repro._rng.splitmix64)."""
    x = x + _G
    x = (x ^ (x >> _S30)) * _M1
    x = (x ^ (x >> _S27)) * _M2
    return x ^ (x >> _S31)


def _fin3(x):
    """The finalizer minus the golden-ratio add (uniforms() inner loop)."""
    x = (x ^ (x >> _S30)) * _M1
    x = (x ^ (x >> _S27)) * _M2
    return x ^ (x >> _S31)


def _keys(C, items):
    """Cache keys for (ctx, center) items (scalar-path key derivation)."""
    has_none = False
    has_center = False
    salts_list = []
    for _, center in items:
        if center is None:
            has_none = True
            salts_list.append(0)
        else:
            has_center = True
            salts_list.append(_center_salt(center))
    if not has_center:
        return C
    salts = _np.array(salts_list, dtype=_np.uint64)
    with _np.errstate(over="ignore"):
        K = _splitmix(C ^ salts)
    if not has_none:
        return K
    none_mask = _np.array([center is None for _, center in items], dtype=bool)
    return _np.where(none_mask, C, K)


def _generate_rows(lm, C, centers):
    """Vectorized ``StochasticLM._generate`` over contexts ``C``.

    ``centers`` is a float64 array (per-element predictability).  Returns
    ``(P, ids_mat, dup)``: per-row probabilities and token ids, plus a mask of
    rows whose fast-path draws collided (the caller re-draws those ids
    with the scalar skip-duplicates loop — probabilities are unaffected).
    """
    k = lm.branching
    with _np.errstate(over="ignore"):
        u = (_splitmix(C ^ _U64(_SHAPE_MASK)) >> _S11) * _INV_2_53
        top1 = centers + lm.spread * (2.0 * u - 1.0)
        top1 = _np.where(top1 < _TOP1_FLOOR, _TOP1_FLOOR, top1)
        top1 = _np.where(top1 > _TOP1_CEIL, _TOP1_CEIL, top1)
        tail_mass = 1.0 - top1
        weights = _weights_array(lm._tail_weights)
        P = _np.empty((C.shape[0], k), dtype=_np.float64)
        P[:, 0] = top1
        P[:, 1:] = tail_mass[:, None] * weights[None, :]
        masks = _masks_array(k)
        ids_mat = _splitmix(C[:, None] ^ masks[None, :]) % _U64(lm._n_regular)
        ordered = _np.sort(ids_mat, axis=1)
        dup = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    return P, ids_mat, dup


def _noise_rows(C, k):
    """Vectorized ``uniforms(ctx, _SALT_NOISE, k)`` over contexts ``C``.

    The scalar loop's chain is ``x_j = base + (j+1) * GOLDEN`` (mod 2**64)
    finalized without the extra golden add, which vectorizes as one outer
    add.
    """
    from repro.model.draft import _NOISE_MASK

    with _np.errstate(over="ignore"):
        base = _splitmix(C ^ _U64(_NOISE_MASK))
        return (_fin3(base[:, None] + _steps_array(k)[None, :]) >> _S11) * _INV_2_53


def _effective_centers(lm, items):
    """Per-item predictability (model default where center is None)."""
    default = lm.predictability
    return _np.array(
        [default if center is None else center for _, center in items],
        dtype=_np.float64,
    )


def _select_missing(cache, keys_list):
    """Indices of keys absent from ``cache``."""
    return [i for i, key in enumerate(keys_list) if key not in cache]


def _target_rows(lm, C, centers):
    """Exact target rows ``(P, ids_mat)`` for contexts ``C``.

    ``_generate_rows`` plus the scalar skip-duplicates repair of every
    row whose fast-path token draws collided.
    """
    P, ids_mat, dup = _generate_rows(lm, C, centers)
    if dup.any():
        for row in _np.nonzero(dup)[0]:
            ids_mat[row] = lm._draw_token_ids(int(C[row]))
    return P, ids_mat


def _mix_draft(P, ids_mat, C, a):
    """Draft rows from target rows: ``DraftLM.distribution``'s ``a < 1`` branch.

    Mixes each target row with its context's noise stream, renormalizes
    and re-sorts descending (stable), returning ``(ids, probs)``.
    """
    N = _noise_rows(C, P.shape[1])
    noise_total = N.cumsum(axis=1)[:, -1]
    mixed = a * P + (1.0 - a) * (N / noise_total[:, None])
    total = mixed.cumsum(axis=1)[:, -1]
    norm = mixed / total[:, None]
    order = _np.argsort(-norm, axis=1, kind="stable")
    rows = _np.arange(order.shape[0])[:, None]
    return ids_mat[rows, order], norm[rows, order]


def draft_rows(draft, C, centers):
    """Draft next-token rows for contexts ``C`` (no memo, no objects).

    ``centers`` is the per-context effective predictability (float64).
    Returns ``(ids, probs)`` as ``(len(C), branching)`` uint64/float64
    arrays, row ``r`` bit-identical to
    ``draft.distribution(C[r], center)``'s ``(token_ids, probs)``.  At
    ``alignment >= 1`` the draft row is the target row, unsorted.
    """
    P, ids_mat = _target_rows(draft.target, C, centers)
    if draft.alignment >= 1.0:
        return ids_mat, P
    return _mix_draft(P, ids_mat, C, draft.alignment)


def extend_rows(C, tokens):
    """Vector ``StochasticLM.extend``: child context hashes, elementwise."""
    with _np.errstate(over="ignore"):
        return _splitmix(C ^ (tokens * _U64(_COMBINE)))


def _memoize(cache, cap, keys, ids_rows, probs_rows) -> list:
    """Store rows as ``TokenDistribution``s under ``keys``.

    Returns each key's memo entry; an entry already present (a duplicate
    ctx within the batch, or an earlier query) is kept, not replaced.
    """
    new = TokenDistribution.__new__
    dists = []
    for key, ids, probs in zip(keys, ids_rows, probs_rows):
        dist = cache.get(key)
        if dist is None:
            if len(cache) >= cap:
                cache.clear()
            dist = new(TokenDistribution)
            dist.token_ids = tuple(ids)
            dist.probs = tuple(probs)
            cache[key] = dist
        dists.append(dist)
    return dists


def prefetch_target(lm, items) -> None:
    """Warm ``lm``'s memo for many ``(ctx, center)`` queries (exact)."""
    if _np is None or len(items) < MIN_BATCH:
        return
    cache = lm._cache
    C = _np.array([ctx for ctx, _ in items], dtype=_np.uint64)
    keys_list = _keys(C, items).tolist()
    missing = _select_missing(cache, keys_list)
    if len(missing) < MIN_BATCH:
        return
    sub_items = [items[i] for i in missing]
    P, ids_mat = _target_rows(
        lm, C[_np.array(missing, dtype=_np.intp)], _effective_centers(lm, sub_items)
    )
    _memoize(
        cache, lm._cache_cap, [keys_list[i] for i in missing], ids_mat.tolist(), P.tolist()
    )


def prefetch_draft(draft, items) -> None:
    """Warm the draft's (and target's) memos for many queries (exact).

    Used by the chain drafters (``repro.core.speculation.draft_chains``);
    beam speculation reads :func:`draft_rows` directly instead.
    """
    if _np is None or len(items) < MIN_BATCH:
        return
    lm = draft.target
    C = _np.array([ctx for ctx, _ in items], dtype=_np.uint64)
    keys_list = _keys(C, items).tolist()
    missing = _select_missing(draft._cache, keys_list)
    if len(missing) < MIN_BATCH:
        return
    sub = C[_np.array(missing, dtype=_np.intp)]
    sub_items = [items[i] for i in missing]
    keys = [keys_list[i] for i in missing]
    P, ids_mat = _target_rows(lm, sub, _effective_centers(lm, sub_items))
    # Memoize the target rows too: verification samples the target at
    # exactly these contexts later.
    tgt_dists = _memoize(lm._cache, lm._cache_cap, keys, ids_mat.tolist(), P.tolist())
    dcache = draft._cache
    if draft.alignment >= 1.0:
        # The draft row *is* the target row: share the target's objects.
        for key, dist in zip(keys, tgt_dists):
            if key not in dcache:
                if len(dcache) >= draft._cache_cap:
                    dcache.clear()
                dcache[key] = dist
        return
    ids, probs = _mix_draft(P, ids_mat, sub, draft.alignment)
    _memoize(dcache, draft._cache_cap, keys, ids.tolist(), probs.tolist())

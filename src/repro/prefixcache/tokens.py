"""Deterministic token identity for prefix matching.

The simulator never materializes text, but prefix caching needs *content
identity*: two prompts share cached KV exactly when they share leading
tokens.  Every request therefore describes its prompt as a sequence of
``(namespace, length)`` **segments** over deterministic token streams
(:attr:`~repro.serving.request.Request.prompt_segments`):

- a shared system prompt is one namespace common to every session of a
  workload, so even unrelated sessions reuse its KV;
- a session's conversation history is one namespace per session whose
  stream covers user turns *and* model answers — turn ``k+1``'s history
  is a strict prefix extension of turn ``k``'s prompt + output, which is
  what makes multi-turn reuse work;
- a request without segments owns a private per-rid stream (no sharing).

Token ``j`` of a segment is ``mix(namespace, j)``; generated tokens
extend the final segment (the model's answer continues the conversation
stream).  Block keys chain block content hashes, so a block's key
commits to its entire prefix — matching is a flat dict walk, exactly the
hash-chained block table of vLLM's automatic prefix caching.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro._rng import hash_seed, mix

#: Namespace tag for requests without explicit segments (one-shot prompts).
_COLD_TAG = 0x434F4C44  # "COLD"

#: Root of every block-key hash chain.
_CHAIN_ROOT = 0x50464358  # "PFCX"

#: Memoized token streams, one list per namespace: token ``j`` of a
#: namespace is the pure function ``mix(namespace, j)``, and session
#: workloads re-walk the same shared streams (system prompt, per-session
#: history) once per turn — the memo turns those re-walks into list
#: reads.  Bounded: cleared wholesale if an extreme workload accumulates
#: too many namespaces.
_STREAM_CACHE: dict[int, list[int]] = {}
_STREAM_CACHE_CAP = 65_536


def _stream(namespace: int) -> list[int]:
    """The (growable) memoized token stream for a namespace."""
    stream = _STREAM_CACHE.get(namespace)
    if stream is None:
        if len(_STREAM_CACHE) >= _STREAM_CACHE_CAP:
            _STREAM_CACHE.clear()
        stream = _STREAM_CACHE[namespace] = []
    return stream


def request_segments(req) -> tuple[tuple[int, int], ...]:
    """The request's prompt segments (private per-rid stream if unset)."""
    if req.prompt_segments:
        return req.prompt_segments
    return ((hash_seed(_COLD_TAG, req.rid), req.prompt_len),)


def token_ids(req, n_tokens: int) -> list[int]:
    """The first ``n_tokens`` token ids of the request's prompt + output.

    Positions beyond the prompt (generated tokens) continue the final
    segment's stream, so a finished turn's full context is itself a
    well-defined stream prefix for the next turn to match.
    """
    if n_tokens < 0:
        raise ValueError("n_tokens must be non-negative")
    segments = request_segments(req)
    out: list[int] = []
    for i, (namespace, length) in enumerate(segments):
        last = i == len(segments) - 1
        span = n_tokens - len(out) if last else min(length, n_tokens - len(out))
        for j in range(span):
            out.append(mix(namespace, j))
        if len(out) >= n_tokens:
            break
    return out


def block_keys(ids: Sequence[int], block_size: int) -> list[int]:
    """Hash-chained keys of the *full* blocks covering ``ids``.

    Key ``b`` digests tokens ``[0, (b+1) * block_size)``, so equal keys
    imply equal full prefixes; the trailing partial block has no key
    (only whole blocks are shareable).
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    keys: list[int] = []
    h = _CHAIN_ROOT
    for i, token in enumerate(ids):
        h = mix(h, token)
        if (i + 1) % block_size == 0:
            keys.append(h)
    return keys


#: Memoized block-key chains, keyed by the stream identity they digest:
#: the fixed (namespace, length) segments plus the extending final
#: namespace and the block size.  Two requests with the same key walk the
#: *same* infinite token stream (streams are pure functions of their
#: namespaces), so a session's turn k+1 — whose prompt strictly extends
#: turn k's prompt + answer — resumes the chain where the previous turn
#: left off instead of re-hashing the whole shared prefix every turn.
_CHAIN_CACHE: dict[tuple, list] = {}
_CHAIN_CACHE_CAP = 65_536


def request_block_keys(req, n_tokens: int, block_size: int) -> list[int]:
    """Block keys for the request's first ``n_tokens``, chained incrementally.

    Keys are queried repeatedly over a request's lifetime (admission
    match, prefill-complete commit, finish commit) at monotonically
    growing lengths, and re-queried by every later turn of the same
    session over the shared stream; the hash chain is resumed from the
    memoized state (see :data:`_CHAIN_CACHE`) instead of re-mixed from
    position 0 each time.
    """
    segments = request_segments(req)
    chain_key = (block_size, segments[:-1], segments[-1][0])
    state = _CHAIN_CACHE.get(chain_key)
    if state is None:
        if len(_CHAIN_CACHE) >= _CHAIN_CACHE_CAP:
            _CHAIN_CACHE.clear()
        state = _CHAIN_CACHE[chain_key] = [0, _CHAIN_ROOT, []]
    consumed, h, keys = state
    if n_tokens > consumed:
        # Walk segment by segment (instead of a per-position segment
        # scan), reading token ids from the per-namespace stream memo.
        n_seg = len(segments)
        pos = consumed
        offset = 0
        append_key = keys.append
        for i, (namespace, length) in enumerate(segments):
            end = n_tokens if i == n_seg - 1 else min(offset + length, n_tokens)
            if pos < end:
                stream = _stream(namespace)
                upto = end - offset
                while len(stream) < upto:
                    stream.append(mix(namespace, len(stream)))
                for j in range(pos - offset, upto):
                    h = mix(h, stream[j])
                    pos += 1
                    if pos % block_size == 0:
                        append_key(h)
            offset += length
            if pos >= n_tokens:
                break
        state[0] = n_tokens
        state[1] = h
    return keys[: n_tokens // block_size]


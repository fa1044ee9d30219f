"""Sort-count voting against the paper's dense score-array oracle.

Algorithm 4 votes with ``atomicAdd`` into a dense ``score[n]`` array.  The
oracle below is that design in numpy — int64 ``%`` arithmetic, a per-loop
dedupe and an ``np.add.at`` scatter — and the library's sort-count voting
must reproduce its ``(hits, votes)`` exactly, dtypes included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    random_permutation,
    recover_locations,
    recover_locations_stack,
)


def _loop_candidates(sel, perm, B):
    """Distinct candidate frequencies of one loop, by int64 ``%``."""
    n = perm.n
    n_div_b = n // B
    J = np.unique(np.asarray(sel, dtype=np.int64))
    low = J * n_div_b - n_div_b // 2
    permuted = (low[:, None] + np.arange(n_div_b, dtype=np.int64)) % n
    return np.unique((permuted * perm.sigma_inv) % n)


def _dense_oracle(selected_per_loop, perms, B, threshold, mask=None):
    score = np.zeros(perms[0].n, dtype=np.int64)
    for sel, perm in zip(selected_per_loop, perms):
        cands = _loop_candidates(sel, perm, B)
        if mask is not None:
            cands = cands[mask[cands % mask.size]]
        np.add.at(score, cands, 1)
    hits = np.flatnonzero(score >= threshold).astype(np.int64)
    return hits, score[hits]


def _assert_same(got, want):
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        assert w.dtype == np.int64
        np.testing.assert_array_equal(g, w)


@st.composite
def voting_cases(draw):
    """A stack of per-loop bucket sets (duplicates and empty loops allowed),
    a threshold in ``[1, L]`` and optional residue masks of any width."""
    log_n = draw(st.integers(min_value=4, max_value=14))
    n = 1 << log_n
    B = 1 << draw(st.integers(min_value=0, max_value=log_n))
    loops = draw(st.integers(min_value=1, max_value=6))
    S = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    perms = [random_permutation(n, rng) for _ in range(loops)]
    # Few distinct buckets, so frequencies collide across loops and
    # thresholds above 1 still leave hits to compare.
    pool = draw(st.lists(st.integers(min_value=0, max_value=B - 1),
                         min_size=1, max_size=8))
    bucket_sets = st.lists(st.sampled_from(pool), max_size=12).map(
        lambda xs: np.asarray(xs, dtype=np.int64)
    )
    selected = [[draw(bucket_sets) for _ in range(loops)] for _ in range(S)]
    threshold = draw(st.integers(min_value=1, max_value=loops))
    masks = None
    if draw(st.booleans()):
        width = draw(st.integers(min_value=1, max_value=40))
        masks = rng.random((S, width)) < 0.6
    return perms, B, selected, threshold, masks


@given(voting_cases())
@settings(max_examples=150, deadline=None)
def test_sort_count_matches_dense_oracle(case):
    perms, B, selected, threshold, masks = case
    hits, votes = recover_locations_stack(
        selected, perms, B, threshold, residue_filters=masks
    )
    assert len(hits) == len(votes) == len(selected)
    for s, rows in enumerate(selected):
        mask = None if masks is None else masks[s]
        want = _dense_oracle(rows, perms, B, threshold, mask)
        _assert_same((hits[s], votes[s]), want)
        single = recover_locations(rows, perms, B, threshold,
                                   residue_filter=mask)
        _assert_same(single, want)


def test_uint32_wraparound_at_n_2_31():
    """n = 2^31, B = n/4: keys wrap mod 2^32 on every multiply, and buckets
    0 and B-1 reach across the ends of Z_n."""
    n = 1 << 31
    B = n // 4
    rng = np.random.default_rng(31)
    perms = [random_permutation(n, rng) for _ in range(4)]
    assert all(p.sigma_inv > 1 << 20 for p in perms)
    # Frequencies every loop votes for: each lands in the bucket whose
    # centre is nearest its permuted position.
    true = np.array([0, 1, n // 2, n - 1, 123456789], dtype=np.int64)
    n_div_b = n // B
    selected = []
    for p in perms:
        pos = (true * p.sigma) % n
        own = ((pos + n_div_b // 2) // n_div_b) % B
        edges = np.array([0, B - 1], dtype=np.int64)
        selected.append(np.concatenate([own, edges, rng.integers(0, B, 64)]))
    # The dense oracle's score array would need 2^31 cells here; count
    # the int64-% candidates with np.unique instead.
    cands = np.concatenate(
        [_loop_candidates(sel, p, B) for sel, p in zip(selected, perms)]
    )
    freqs, counts = np.unique(cands, return_counts=True)
    for threshold in (1, 2, 4):
        keep = counts >= threshold
        want = (freqs[keep].astype(np.int64), counts[keep].astype(np.int64))
        _assert_same(recover_locations(selected, perms, B, threshold), want)
    assert set(true.tolist()) <= set(want[0].tolist())

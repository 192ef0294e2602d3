"""Resampling contracts: counts, uniform laws, SMOTE geometry, determinism."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbalance_bench import (
    Dataset,
    Method,
    MinorityTooSmall,
    MultiplierOutOfRange,
    ResamplingSpec,
    from_rows,
    imbalance_ratio,
    resample,
    ros,
    rus,
    smote,
)
from imbalance_bench import datasets
import oracles


def make(n_major: int, n_minor: int, d: int = 2, seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n_major + n_minor, d))
    labels = np.array([0] * n_major + [1] * n_minor)
    return from_rows(features, labels)


def minor_line(coords) -> Dataset:
    """Minor points at given 1-D coordinates, plus a far-away major block."""
    coords = np.asarray(coords, dtype=float)
    n = len(coords)
    major = np.linspace(1000.0, 1001.0, 12 * n)[:, None]
    features = np.vstack([major, coords[:, None]])
    labels = np.array([0] * (12 * n) + [1] * n)
    return from_rows(features, labels)


def brute_force_knn(points: np.ndarray, pos: int, k: int) -> set[int]:
    """Indices whose distance to points[pos] is within the k-th smallest.

    O(n^2)-flavored oracle: full pairwise rescan, self excluded; any point
    tied with the k-th distance counts as "among the k nearest".
    """
    dists = sorted(
        (float(((points[j] - points[pos]) ** 2).sum()), j)
        for j in range(len(points))
        if j != pos
    )
    cutoff = dists[min(k, len(dists)) - 1][0]
    return {j for dist, j in dists if dist <= cutoff}


def segment_distance(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.linalg.norm(x - a))
    t = np.clip(float((x - a) @ ab) / denom, 0.0, 1.0)
    return float(np.linalg.norm(x - (a + t * ab)))


# ---------------------------------------------------------------------------
# ResamplingSpec validation
# ---------------------------------------------------------------------------


def test_spec_multiplier_one_iff_none():
    assert ResamplingSpec(Method.NONE).multiplier == 1.0
    with pytest.raises(MultiplierOutOfRange):
        ResamplingSpec(Method.NONE, 2.0)
    with pytest.raises(MultiplierOutOfRange):
        ResamplingSpec(Method.ROS, 1.0)
    with pytest.raises(MultiplierOutOfRange):
        ResamplingSpec(Method.SMOTE, 0.5)


def test_spec_smote_k_positive():
    with pytest.raises(ValueError):
        ResamplingSpec(Method.SMOTE, 2.0, smote_k=0)


def test_resample_none_is_identity():
    ds = make(10, 5)
    result = resample(ds, ResamplingSpec(Method.NONE), seed=1)
    assert result.dataset is ds
    assert result.added == () and result.removed_ids == ()


def test_multiplier_cap_at_imbalance_ratio():
    ds = make(10, 10)
    with pytest.raises(MultiplierOutOfRange):
        rus(ds, 2.0, seed=0)
    ds = make(30, 10)
    with pytest.raises(MultiplierOutOfRange):
        ros(ds, 3.01, seed=0)
    ros(ds, 3.0, seed=0)  # exactly IR is allowed


# ---------------------------------------------------------------------------
# ROS
# ---------------------------------------------------------------------------


def test_ros_hundred_ten_doubling():
    ds = make(100, 10)
    out = ros(ds, 2.0, seed=4).dataset
    assert out.class_counts() == (100, 20)
    assert imbalance_ratio(out) == 5.0


def test_ros_added_rows_are_exact_copies():
    ds = make(30, 10)
    result = ros(ds, 2.0, seed=1)
    out = result.dataset
    assert np.array_equal(out.features[: ds.size], ds.features)
    assert out.ids[: ds.size] == ds.ids
    minor_rows = {tuple(row) for row in ds.features[ds.class_indices(1)]}
    for rec, row in zip(result.added, out.features[ds.size :]):
        assert tuple(row) == tuple(ds.features[ds.ids.index(rec.seed_id)])
        assert tuple(row) in minor_rows
        assert rec.lam == 0.0 and rec.neighbor_id == rec.seed_id
    assert out.ids[ds.size :] == tuple(f"synth:{i}" for i in range(10))


def test_ros_count_small_multiplier():
    ds = make(20, 4)
    out = ros(ds, 1.25, seed=0).dataset
    assert out.class_counts() == (20, 5)  # round(0.25 * 4) = 1 added


def test_ros_round_half_to_even():
    ds = make(60, 10)
    assert ros(ds, 1.25, seed=0).dataset.class_counts() == (60, 12)  # round(2.5) = 2
    assert ros(ds, 1.35, seed=0).dataset.class_counts() == (60, 14)  # round(3.5) = 4


def test_ros_uniform_law_monte_carlo():
    ds = make(30, 10, seed=3)
    counts: dict[str, int] = {}
    trials = 10_000
    for trial in range(trials):
        for rec in ros(ds, 3.0, seed=trial).added:
            counts[rec.seed_id] = counts.get(rec.seed_id, 0) + 1
    total = sum(counts.values())
    assert total == trials * 20
    assert len(counts) == 10
    for count in counts.values():
        assert abs(count / total - 0.1) <= 0.01


# ---------------------------------------------------------------------------
# RUS
# ---------------------------------------------------------------------------


def test_rus_hundred_ten_halving():
    ds = make(100, 10)
    result = rus(ds, 2.0, seed=4)
    out = result.dataset
    assert out.class_counts() == (50, 10)
    assert imbalance_ratio(out) == 5.0
    assert set(out.ids) <= set(ds.ids)
    assert len(result.removed_ids) == 50


def test_rus_survivors_keep_rows_verbatim():
    ds = make(30, 10)
    out = rus(ds, 1.5, seed=2).dataset
    original = {ident: tuple(row) for ident, row in zip(ds.ids, ds.features)}
    for ident, row, label in zip(out.ids, out.features, out.labels):
        assert original[ident] == tuple(row)
    assert list(out.labels).count(1) == 10  # minor untouched


def test_rus_drop_count_formula():
    ds = make(3, 2)
    result = rus(ds, 1.5, seed=0)
    assert len(result.removed_ids) == 1  # round(3 * 0.5/1.5) = 1
    assert result.dataset.class_counts() == (2, 2)


def test_rus_up_to_ir_keeps_at_least_the_minor_count_of_majors():
    # m <= IR = |C0|/|C1| drops round(|C0| - |C0|/m) <= |C0| - |C1| majors, so the class never empties
    for n_major in range(2, 40):
        for n_minor in range(1, n_major):
            ds = make(n_major, n_minor)
            ir = imbalance_ratio(ds)
            for m in (ir, np.nextafter(ir, 1.0), (1.0 + ir) / 2):
                assert rus(ds, m, seed=0).dataset.class_counts()[0] >= n_minor


def test_rus_uniform_law_monte_carlo():
    ds = make(3, 2)
    counts = {ident: 0 for ident in ds.ids[:3]}
    trials = 10_000
    for trial in range(trials):
        (dropped,) = rus(ds, 1.5, seed=trial).removed_ids
        counts[dropped] += 1
    for count in counts.values():
        assert abs(count / trials - 1 / 3) <= 0.02


# ---------------------------------------------------------------------------
# SMOTE
# ---------------------------------------------------------------------------


def test_smote_two_point_segment():
    features = np.array([[5.0, 9.0], [6.0, 9.0], [7.0, 9.0], [8.0, 9.0], [0.0, 0.0], [1.0, 1.0]])
    labels = np.array([0, 0, 0, 0, 1, 1])
    ds = from_rows(features, labels)
    result = smote(ds, 2.0, seed=3, k=5)
    added = result.dataset.features[ds.size :]
    assert added.shape == (2, 2)
    for row, rec in zip(added, result.added):
        assert row[0] == row[1]  # on the segment (0,0)-(1,1)
        assert 0.0 <= rec.lam <= 1.0
        assert rec.seed_id != rec.neighbor_id


def test_smote_counts_and_major_untouched():
    ds = make(100, 10)
    result = smote(ds, 2.5, seed=1)
    out = result.dataset
    assert out.class_counts() == (100, 25)
    assert np.array_equal(out.features[: ds.size], ds.features)
    assert all(rec.synth_id == f"synth:{i}" for i, rec in enumerate(result.added))


def test_smote_synthetics_match_provenance_exactly():
    ds = make(50, 12, d=4, seed=8)
    result = smote(ds, 3.0, seed=5)
    lookup = dict(zip(result.dataset.ids, result.dataset.features))
    for rec in result.added:
        expected = (1.0 - rec.lam) * lookup[rec.seed_id] + rec.lam * lookup[rec.neighbor_id]
        assert np.array_equal(lookup[rec.synth_id], expected)


def test_smote_segment_distance_convexity():
    for seed in range(25):
        ds = make(60, 9, d=3, seed=seed)
        result = smote(ds, 4.0, seed=seed)
        lookup = dict(zip(result.dataset.ids, result.dataset.features))
        for rec in result.added:
            gap = segment_distance(lookup[rec.synth_id], lookup[rec.seed_id], lookup[rec.neighbor_id])
            assert gap <= 1e-9


def test_smote_neighbors_on_a_line_match_oracle():
    ds = minor_line([0.0, 1.0, 2.0, 3.0, 10.0])
    minor_idx = ds.class_indices(1)
    minor_points = ds.features[minor_idx]
    far_id = ds.ids[minor_idx[4]]  # the point at coordinate 10
    expected = {ds.ids[minor_idx[j]] for j in brute_force_knn(minor_points, 4, 2)}
    assert expected == {ds.ids[minor_idx[2]], ds.ids[minor_idx[3]]}  # points at 2 and 3
    result = smote(ds, 10.0, seed=0, k=2)
    seen = {rec.neighbor_id for rec in result.added if rec.seed_id == far_id}
    assert seen  # the far point is drawn as a seed at m = IR
    assert seen <= expected


def test_smote_every_neighbor_passes_brute_force_oracle():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n_minor = int(rng.integers(3, 12))
        k = int(rng.integers(1, 7))
        ds = make(n_minor * 10, n_minor, d=int(rng.integers(1, 5)), seed=seed + 100)
        minor_idx = ds.class_indices(1)
        minor_points = ds.features[minor_idx]
        id_to_pos = {ds.ids[idx]: pos for pos, idx in enumerate(minor_idx)}
        k_eff = min(k, n_minor - 1)
        result = smote(ds, 5.0, seed=seed, k=k)
        for rec in result.added:
            allowed = brute_force_knn(minor_points, id_to_pos[rec.seed_id], k_eff)
            assert id_to_pos[rec.neighbor_id] in allowed


def test_smote_distance_ties_break_to_lower_index():
    # minor points at 0, -1, +1: both neighbors of the first point are at
    # distance 1, so k=1 must always pick the lower element index.
    ds = minor_line([0.0, -1.0, 1.0])
    minor_idx = ds.class_indices(1)
    result = smote(ds, 4.0, seed=6, k=1)
    seed_id = ds.ids[minor_idx[0]]
    expected = ds.ids[minor_idx[1]]
    picks = {rec.neighbor_id for rec in result.added if rec.seed_id == seed_id}
    assert picks == {expected}


def test_smote_lambda_closed_interval_law():
    ds = make(40, 8, seed=2)
    lams = []
    for seed in range(400):
        lams.extend(rec.lam for rec in smote(ds, 4.0, seed=seed).added)
    lams = np.array(lams)
    assert ((lams >= 0.0) & (lams <= 1.0)).all()
    assert abs(lams.mean() - 0.5) <= 0.02
    assert lams.min() <= 0.05 and lams.max() >= 0.95


def test_smote_needs_two_minor_elements():
    ds = make(5, 1)
    with pytest.raises(MinorityTooSmall):
        smote(ds, 2.0, seed=0)


def test_smote_k_eff_clamps_to_minor_size():
    ds = make(30, 3)
    result = smote(ds, 10.0, seed=1, k=5)
    minor_ids = {ds.ids[i] for i in ds.class_indices(1)}
    for rec in result.added:
        assert rec.seed_id in minor_ids and rec.neighbor_id in minor_ids
        assert rec.seed_id != rec.neighbor_id


def test_smote_duplicate_minor_points_allowed():
    features = np.vstack([np.linspace(10, 11, 8)[:, None], [[0.0], [0.0]]])
    labels = np.array([0] * 8 + [1] * 2)
    ds = from_rows(features, labels)
    result = smote(ds, 2.0, seed=0)
    for rec in result.added:
        assert rec.lam >= 0.0
    assert (result.dataset.features[ds.size :] == 0.0).all()


# ---------------------------------------------------------------------------
# Shared contracts
# ---------------------------------------------------------------------------


@given(
    n_major=st.integers(4, 80),
    n_minor=st.integers(2, 40),
    method=st.sampled_from([Method.ROS, Method.RUS, Method.SMOTE]),
    m_frac=st.floats(0.05, 1.0),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=120, deadline=None)
def test_count_formulas_property(n_major, n_minor, method, m_frac, seed):
    if n_minor >= n_major:
        n_minor = n_major - 1
    ir = n_major / n_minor
    if ir <= 1.0:
        return
    m = 1.0 + m_frac * (ir - 1.0)
    ds = make(n_major, n_minor, seed=seed % 17)
    out = resample(ds, ResamplingSpec(method, m), seed).dataset
    major, minor = out.class_counts()
    if method is Method.RUS:
        assert minor == n_minor
        assert major == n_major - int(np.round(n_major * (m - 1.0) / m))
    else:
        assert major == n_major
        assert minor == n_minor + int(np.round((m - 1.0) * n_minor))
    # rounding moves the adjusted class at most half an element off its
    # target, so bound the IR shift by the worse (smaller-denominator) side
    if method is Method.RUS:
        slack = 0.5 / n_minor
    else:
        target = m * n_minor
        slack = n_major * 0.5 / ((target - 0.5) * target)
    assert abs(imbalance_ratio(out) - ir / m) <= slack + 1e-9


def test_determinism_bitwise():
    ds = make(50, 10, d=3, seed=1)
    for method, m in ((Method.ROS, 2.5), (Method.RUS, 3.0), (Method.SMOTE, 2.0)):
        a = resample(ds, ResamplingSpec(method, m), seed=9).dataset
        b = resample(ds, ResamplingSpec(method, m), seed=9).dataset
        c = resample(ds, ResamplingSpec(method, m), seed=10).dataset
        assert np.array_equal(a.features, b.features)
        assert a.ids == b.ids
        assert not np.array_equal(a.features, c.features)


def test_synth_counter_continues_after_existing_synthetics():
    ds = make(40, 8)
    once = ros(ds, 2.0, seed=0).dataset
    twice = ros(once, 1.5, seed=1).dataset
    fresh = [ident for ident in twice.ids if ident not in once.ids]
    assert fresh == [f"synth:{8 + i}" for i in range(len(fresh))]


# ---------------------------------------------------------------------------
# Array-form ROS and SMOTE against the per-synthetic loop
# ---------------------------------------------------------------------------


def oracle_case(kind: str) -> Dataset:
    """120 major rows and 30 minor rows of one kind.

    normal: continuous; integer: values 0..2 with repeated rows, so
    distances tie and some are 0; signed-zero: -0.0, 0.0 and 1.0; permuted:
    rows with equal coordinates next to rows that permute each other's
    coordinates, whose distances are equal in exact arithmetic and differ in
    the last bits by summation order.
    """
    rng = np.random.default_rng(31)
    if kind == "normal":
        minor = rng.normal(size=(30, 4))
    elif kind == "integer":
        minor = rng.integers(0, 3, size=(30, 3)).astype(float)
        minor[20:] = minor[:10]
    elif kind == "signed-zero":
        minor = rng.choice([-0.0, 0.0, 1.0], size=(30, 3))
    else:
        base = rng.normal(size=(3, 8))
        permuted = [row[rng.permutation(8)] for row in base for _ in range(8)]
        minor = np.vstack([rng.normal(size=(6, 1)) * np.ones(8), permuted])
    major = rng.normal(5.0, 1.0, size=(120, minor.shape[1]))
    return from_rows(np.vstack([major, minor]), np.array([0] * 120 + [1] * 30))


def record_fields(result):
    return [(r.synth_id, r.seed_id, r.neighbor_id, type(r.lam), np.float64(r.lam).tobytes()) for r in result.added]


def assert_same_result(got, want):
    assert got.dataset.features.tobytes() == want.dataset.features.tobytes()
    assert got.dataset.labels.tobytes() == want.dataset.labels.tobytes()
    assert got.dataset.ids == want.dataset.ids
    assert record_fields(got) == record_fields(want)
    assert got.removed_ids == want.removed_ids


@pytest.mark.parametrize("kind", ["normal", "integer", "signed-zero", "permuted"])
@pytest.mark.parametrize("rows_per_block", [None, 1, 3])
def test_ros_and_smote_match_loop_oracle_bitwise(kind, rows_per_block, monkeypatch):
    ds = oracle_case(kind)
    if kind == "integer":
        dist = ((ds.features[120:, None] - ds.features[None, 120:]) ** 2).sum(axis=2)
        np.fill_diagonal(dist, np.inf)
        dist.sort(axis=1)
        assert (dist[:, 0] == 0.0).any() and (dist[:, 4] == dist[:, 5]).any()  # zero distances, ties at k = 5

    def both(new, old, data, *args):
        if rows_per_block is not None:
            monkeypatch.setattr(datasets, "_BLOCK_ELEMENTS", rows_per_block * data.dim * data.class_counts()[1])
        got = new(data, *args)
        assert_same_result(got, old(data, *args))
        return got

    ir = imbalance_ratio(ds)
    for seed in (0, 1):
        for m in (1.0 + 1.0 / 30, 2.5, ir):  # one synthetic, some, and up to balance
            both(ros, oracles.ros, ds, m, seed)
            for k in (1, 5, 40):  # 40 is more than |C1| - 1
                both(smote, oracles.smote, ds, m, seed, k)
        # chained, so the synth counter starts above 0
        grown = both(ros, oracles.ros, ds, 1.5, seed).dataset
        grown = both(smote, oracles.smote, grown, 1.5, seed, 5).dataset
        both(smote, oracles.smote, grown, 1.3, seed, 5)

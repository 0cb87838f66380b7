import dataclasses
import json
import os
import re
import tracemalloc

import numpy as np
import pytest

from msocc import postprocess as pp
from msocc.checks import NumericalError
from msocc.gt_multiscale import FREE
from msocc.pipeline import (PipelineConfig, PipelineStageError,
                            load_prediction_sets)
from msocc.tensorio import write_tensor

WEIGHTS = PipelineConfig().ensemble_weights


class TestEnumerateTta:
    def test_count(self):
        assert len(pp.enumerate_tta()) == 8

    def test_first_is_identity(self):
        t = pp.enumerate_tta()[0]
        assert (t.img_hflip, t.vox_flip_x, t.vox_flip_y) == (False, False, False)

    def test_all_distinct(self):
        assert len(set(pp.enumerate_tta())) == 8


class TestDeaugment:
    def random_entry(self, seed, k=4, n=6):
        rng = np.random.default_rng(seed)
        occ = rng.random((n, n, 3))
        sem = rng.random((k, n, n, 3))
        return occ, sem

    def test_identity_tag_unchanged(self):
        occ, sem = self.random_entry(0)
        tag = pp.AugmentationTag(False, False, False)
        o, s = pp.deaugment(tag, occ, sem)
        assert np.array_equal(o, occ) and np.array_equal(s, sem)

    @pytest.mark.parametrize("tag", pp.enumerate_tta())
    def test_involution(self, tag):
        occ, sem = self.random_entry(1)
        o1, s1 = pp.deaugment(tag, occ, sem)
        o2, s2 = pp.deaugment(tag, o1, s1)
        assert np.array_equal(o2, occ)
        assert np.array_equal(s2, sem)

    def test_x_flip_delta(self):
        occ = np.zeros((10, 10, 10))
        occ[3, 0, 0] = 1.0
        sem = np.zeros((2, 10, 10, 10))
        sem[0, 3, 0, 0] = 1.0
        o, s = pp.deaugment(pp.AugmentationTag(False, True, False), occ, sem)
        assert o[6, 0, 0] == 1.0 and o.sum() == 1.0
        assert s[0, 6, 0, 0] == 1.0 and s.sum() == 1.0

    def test_img_hflip_no_volume_change(self):
        occ, sem = self.random_entry(2)
        o, s = pp.deaugment(pp.AugmentationTag(True, False, False), occ, sem)
        assert np.array_equal(o, occ) and np.array_equal(s, sem)

    @pytest.mark.parametrize("tag", pp.enumerate_tta())
    def test_returns_views(self, tag):
        occ, sem = self.random_entry(3)
        o, s = pp.deaugment(tag, occ, sem)
        assert np.shares_memory(o, occ) and np.shares_memory(s, sem)
        fx = -1 if tag.vox_flip_x else 1
        fy = -1 if tag.vox_flip_y else 1
        assert o.tobytes() == occ[::fx, ::fy].tobytes()
        assert s.tobytes() == sem[:, ::fx, ::fy].tobytes()


class TestEnsemble:
    def test_identical_single_entries(self):
        rng = np.random.default_rng(3)
        occ = rng.random((4, 4, 2))
        sem = rng.random((3, 4, 4, 2))
        out_occ, _ = pp.ensemble([(occ, sem)], [(occ, sem)], WEIGHTS)
        assert np.allclose(out_occ, occ, atol=1e-12)

    def test_default_weights_favor_model_b(self):
        sem_a = np.zeros((6, 2, 2, 1)); sem_a[2] = 1.0
        sem_b = np.zeros((6, 2, 2, 1)); sem_b[5] = 1.0
        occ = np.ones((2, 2, 1))
        _, label = pp.ensemble([(occ, sem_a)], [(occ, sem_b)], WEIGHTS)
        assert np.all(label == 5)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(4)
        wa, wb = 0.45, 0.55
        a = [(rng.random((3, 3, 2)), rng.random((4, 3, 3, 2)))
             for _ in range(8)]
        b = [(rng.random((3, 3, 2)), rng.random((4, 3, 3, 2)))
             for _ in range(8)]
        occ, label = pp.ensemble(a, b, (wa, wb))
        norm = wa * 8 + wb * 8
        want_occ = (wa * sum(o for o, _ in a)
                    + wb * sum(o for o, _ in b)) / norm
        want_sem = (wa * sum(s for _, s in a)
                    + wb * sum(s for _, s in b)) / norm
        assert np.allclose(occ, want_occ, atol=1e-12)
        assert np.array_equal(label, np.argmax(want_sem, axis=0))

    def test_convex_range(self):
        rng = np.random.default_rng(5)
        a = [(rng.random((3, 3, 2)), rng.random((2, 3, 3, 2)))
             for _ in range(3)]
        b = [(rng.random((3, 3, 2)), rng.random((2, 3, 3, 2)))
             for _ in range(5)]
        occ, _ = pp.ensemble(a, b, WEIGHTS)
        assert occ.min() >= -1e-12 and occ.max() <= 1 + 1e-12

    def test_permutation_invariant(self):
        rng = np.random.default_rng(6)
        a = [(rng.random((3, 3, 2)), rng.random((2, 3, 3, 2)))
             for _ in range(4)]
        b = [(rng.random((3, 3, 2)), rng.random((2, 3, 3, 2)))
             for _ in range(4)]
        o1, l1 = pp.ensemble(a, b, WEIGHTS)
        o2, l2 = pp.ensemble(a[::-1], b[::-1], WEIGHTS)
        assert np.allclose(o1, o2, atol=1e-12)
        assert np.array_equal(l1, l2)

    def test_argmax_scale_invariance(self):
        rng = np.random.default_rng(7)
        a = [(rng.random((3, 3, 2)), rng.random((2, 3, 3, 2)))]
        b = [(rng.random((3, 3, 2)), rng.random((2, 3, 3, 2)))]
        _, l1 = pp.ensemble(a, b, WEIGHTS)
        a9 = [(o, 9.0 * s) for o, s in a]
        b9 = [(o, 9.0 * s) for o, s in b]
        _, l2 = pp.ensemble(a9, b9, WEIGHTS)
        assert np.array_equal(l1, l2)

    def test_iterators_match_lists(self):
        rng = np.random.default_rng(9)
        a = [(rng.random((3, 3, 2)), rng.random((4, 3, 3, 2)))
             for _ in range(8)]
        b = [(rng.random((3, 3, 2)), rng.random((4, 3, 3, 2)))
             for _ in range(8)]
        o1, l1 = pp.ensemble(iter(a), iter(b), WEIGHTS)
        o2, l2 = pp.ensemble(a, b, WEIGHTS)
        assert o1.tobytes() == o2.tobytes() and l1.tobytes() == l2.tobytes()

    @pytest.mark.parametrize("weights", [(0.5,), (0.2, 0.3, 0.5), (0.0, 1.0),
                                         (0.5, -1.0), (0.5, np.nan),
                                         (np.inf, 0.5)],
                             ids=["one", "three", "zero", "negative", "nan",
                                  "inf"])
    def test_weights_must_be_two_positive(self, weights):
        def unread():
            raise AssertionError("an entry was read")
            yield

        with pytest.raises(ValueError, match="two positive finite ensemble weights"):
            pp.ensemble(unread(), unread(), weights)

    def test_empty_or_mismatched_rejected(self):
        e = (np.zeros((2, 2, 1)), np.zeros((2, 2, 2, 1)))
        bad = (np.zeros((3, 2, 1)), np.zeros((2, 3, 2, 1)))
        for wrap in (list, iter):
            with pytest.raises(ValueError):
                pp.ensemble(wrap([]), wrap([e]), WEIGHTS)
            with pytest.raises(ValueError):
                pp.ensemble(wrap([e]), wrap([]), WEIGHTS)
            with pytest.raises(ValueError):
                pp.ensemble(wrap([e]), wrap([bad]), WEIGHTS)


def expression_ensemble(a, b, wa, wb):
    """Reference fusion: each entry cast to float64 and weighted as one
    whole-volume expression, summed entry by entry, then divided by the
    norm and argmaxed."""
    occ_sum = np.zeros(a[0][0].shape)
    sem_sum = np.zeros(a[0][1].shape)
    for w, entries in ((wa, a), (wb, b)):
        for occ, sem in entries:
            occ_sum += w * occ.astype(np.float64)
            sem_sum += w * sem.astype(np.float64)
    norm = wa * len(a) + wb * len(b)
    return occ_sum / norm, np.argmax(sem_sum / norm, axis=0).astype(np.uint8)


class TestEnsembleBytes:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(5, 4, 3, 2), (1, 4, 3, 2),
                                       (3, 1, 4, 2)], ids=["k5", "k1", "nx1"])
    @pytest.mark.parametrize("weights", [(0.45, 0.55), (2, 3), (0.1, 7.3)],
                             ids=["default", "int", "uneven"])
    def test_matches_expression(self, dtype, shape, weights):
        rng = np.random.default_rng(21)
        tags = pp.enumerate_tta()

        def entries(n):
            # de-augmented flipped views, as the pipeline passes them
            return [pp.deaugment(tags[j % 8],
                                 rng.random(shape[1:]).astype(dtype),
                                 rng.random(shape).astype(dtype))
                    for j in range(n)]

        a, b = entries(5), entries(3)
        assert any(not s.flags.c_contiguous for _, s in a)
        occ, label = pp.ensemble(a, b, weights)
        want_occ, want_label = expression_ensemble(a, b, *weights)
        assert occ.dtype == np.float64 and label.dtype == np.uint8
        assert occ.tobytes() == want_occ.tobytes()
        assert label.tobytes() == want_label.tobytes()

    def test_memory(self):
        rng = np.random.default_rng(22)
        shape = (64, 64, 16)
        entries = [(rng.random(shape, dtype=np.float32),
                    rng.random((17, *shape), dtype=np.float32))
                   for _ in range(4)]
        row = entries[0][0].size * 8  # one occupancy-sized float64 row
        tracemalloc.start()
        try:
            pp.ensemble(entries[:2], entries[2:], WEIGHTS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the occ sum, the class-row sum, the running best and one product
        # buffer are 4 rows, the labels and the comparison mask a quarter
        # row, numpy's 64 KiB casting buffer an eighth; no (K, ...) sum and
        # no float64 copy of an entry (9 rows)
        assert peak <= 4.5 * row

    def test_ties_go_to_smallest_class(self):
        sem = np.zeros((5, 4, 1, 1))
        sem[:, 1] = 0.5  # all five classes tie
        sem[[2, 4], 2] = 0.9  # classes 2 and 4 tie above the rest
        sem[[3, 4], 3] = 0.7
        entry = (np.full((4, 1, 1), 0.5), sem)
        _, label = pp.ensemble([entry], [entry], WEIGHTS)
        assert label.ravel().tolist() == [0, 0, 2, 3]

    def test_semantic_shape_must_match_occupancy(self):
        e = (np.zeros((2, 2, 1)), np.zeros((3, 2, 3, 1)))
        with pytest.raises(ValueError, match="shapes"):
            pp.ensemble([e], [e], WEIGHTS)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("part", [0, 1], ids=["occ", "sem"])
    def test_nonfinite_entry_raises(self, value, part):
        rng = np.random.default_rng(23)
        a = [(rng.random((3, 3, 2)), rng.random((4, 3, 3, 2)))
             for _ in range(2)]
        a[1][part].flat[5] = value
        with pytest.raises(NumericalError,
                           match=("occupancy", "semantics")[part]):
            pp.ensemble(a, a[:1], WEIGHTS)


def write_prediction_sets(root, shape, dtypes, seed, tags=None):
    """Write tags.json and, for each TTA tag (all 8 by default), each
    model's augmented entry files under `root`, model a in dtypes[0] and b
    in dtypes[1]; returns each model's de-augmented entries as in-memory
    arrays."""
    rng = np.random.default_rng(seed)
    tags = pp.enumerate_tta() if tags is None else tags
    (root / "tags.json").write_text(json.dumps(
        {f"model_{m}": [dataclasses.asdict(t) for t in tags] for m in "ab"}))
    sets = []
    for model, dtype in zip("ab", dtypes):
        entries = []
        for j, tag in enumerate(tags):
            occ = rng.random(shape[1:]).astype(dtype)
            sem = rng.random(shape).astype(dtype)
            write_tensor(root / f"model_{model}_entry{j}_occ.msoc", occ)
            write_tensor(root / f"model_{model}_entry{j}_sem.msoc", sem)
            entries.append(pp.deaugment(tag, occ, sem))
        sets.append(entries)
    return sets


@pytest.mark.parametrize("dtypes", [(np.float32, np.float32),
                                    (np.float32, np.float64)],
                         ids=["f32", "f32_f64"])
@pytest.mark.parametrize("weights", [(0.45, 0.55), (0.1, 7.3)],
                         ids=["default", "uneven"])
def test_file_backed_entries_match_expression(tmp_path, dtypes, weights):
    # K = 17 and odd dims, so a row offset or flip off by one shows
    a, b = write_prediction_sets(tmp_path, (17, 5, 3, 7), dtypes, seed=31)
    occ, label = pp.ensemble(*load_prediction_sets(str(tmp_path)), weights)
    want_occ, want_label = expression_ensemble(a, b, *weights)
    assert occ.tobytes() == want_occ.tobytes()
    assert label.tobytes() == want_label.tobytes()


def test_class_row_outlives_other_row_reads(tmp_path):
    # random entries, so no flip maps one entry's row onto another's
    a, _ = write_prediction_sets(tmp_path, (17, 5, 3, 7), (np.float32,) * 2,
                                 seed=33)
    sets = load_prediction_sets(str(tmp_path))
    first = sets[0][0][1][0]
    want = a[0][1][0].tobytes()
    assert first.tobytes() == want
    for entries in sets:
        for _, sem in entries:
            sem[0]
    assert first.tobytes() == want


def test_row_read_after_loading_fails_on_its_entry(tmp_path):
    write_prediction_sets(tmp_path, (17, 5, 3, 7), (np.float32,) * 2, seed=34)
    sets = load_prediction_sets(str(tmp_path))
    bad = tmp_path / "model_b_entry3_sem.msoc"
    bad.write_bytes(bad.read_bytes()[:-1])  # truncated after loading
    with pytest.raises(PipelineStageError) as e:
        pp.ensemble(*sets, WEIGHTS)
    assert (e.value.stage, e.value.path) == ("postprocess", str(bad))


def _bytes_read():
    """This process's rchar (bytes returned by read calls so far) and the
    length of the text read to learn it."""
    with open("/proc/self/io", "rb") as fh:
        text = fh.read()
    return int(re.search(rb"rchar: (\d+)", text)[1]), len(text)


@pytest.mark.skipif(not os.path.exists("/proc/self/io"),
                    reason="needs Linux per-process I/O counters")
def test_loading_reads_only_tags_and_headers(tmp_path):
    # every payload byte is then read inside `ensemble`, where a trace of
    # the ensemble sees it
    write_prediction_sets(tmp_path, (17, 6, 5, 4), (np.float32,) * 2, seed=32)
    headers = 2 * 8 * ((8 + 8 * 3) + (8 + 8 * 4))  # 16 entries, occ + sem
    want = (tmp_path / "tags.json").stat().st_size + headers
    before, probe = _bytes_read()
    sets = load_prediction_sets(str(tmp_path))
    after, _ = _bytes_read()
    assert after - before - probe == want
    assert [len(s) for s in sets] == [8, 8]


class TestThresholds:
    def test_table_matches_published_values(self):
        t = pp.DEFAULT_THRESHOLDS
        assert len(t) == 17
        assert t["Others"] == 0.92
        assert t["Pedestrian"] == 0.91
        assert t["Barrier"] == 0.94
        assert t["Driveable Surface"] == 0.96
        assert t["Vegetation"] == 0.92

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            pp.apply_thresholds(np.full((2, 2, 2), 0.5),
                                np.zeros((2, 2, 1), np.uint8),
                                pp.DEFAULT_THRESHOLDS)

    def test_car_kept(self):
        car = pp.CLASS_NAMES.index("Car")
        occ = np.full((1, 1, 1), 0.95)
        sem = np.full((1, 1, 1), car, np.uint8)
        out = pp.apply_thresholds(occ, sem, pp.DEFAULT_THRESHOLDS)
        assert out[0, 0, 0] == car

    def test_driveable_surface_dropped(self):
        ds = pp.CLASS_NAMES.index("Driveable Surface")
        occ = np.full((1, 1, 1), 0.955)
        sem = np.full((1, 1, 1), ds, np.uint8)
        out = pp.apply_thresholds(occ, sem, pp.DEFAULT_THRESHOLDS)
        assert out[0, 0, 0] == FREE

    def test_certain_occupancy_never_free(self):
        occ = np.ones((17, 1, 1))
        sem = np.arange(17, dtype=np.uint8).reshape(17, 1, 1)
        out = pp.apply_thresholds(occ, sem, pp.DEFAULT_THRESHOLDS)
        assert not (out == FREE).any()

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(8)
        occ = rng.random((5, 5, 2))
        sem = rng.integers(0, 17, (5, 5, 2)).astype(np.uint8)
        lo = pp.apply_thresholds(occ, sem, pp.DEFAULT_THRESHOLDS)
        raised = {k: min(v + 0.02, 0.999) for k, v in
                  pp.DEFAULT_THRESHOLDS.items()}
        hi = pp.apply_thresholds(occ, sem, raised)
        assert not ((lo == FREE) & (hi != FREE)).any()

    def test_load_table(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(json.dumps(pp.DEFAULT_THRESHOLDS))
        assert pp.load_threshold_table(p) == pp.DEFAULT_THRESHOLDS

    def test_no_table_gives_defaults(self):
        assert pp.load_threshold_table(None) is pp.DEFAULT_THRESHOLDS

    def test_incomplete_table_rejected(self, tmp_path):
        t = dict(pp.DEFAULT_THRESHOLDS)
        t.pop("Car")
        p = tmp_path / "t.json"
        p.write_text(json.dumps(t))
        with pytest.raises(ValueError):
            pp.load_threshold_table(p)

    def test_out_of_range_rejected(self, tmp_path):
        t = dict(pp.DEFAULT_THRESHOLDS)
        t["Car"] = 1.5
        p = tmp_path / "t.json"
        p.write_text(json.dumps(t))
        with pytest.raises(ValueError):
            pp.load_threshold_table(p)

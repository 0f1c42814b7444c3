import hashlib

import numpy as np
import pytest

from planflow import toydata
from planflow.config import Config
from planflow.numerics import Rng
from planflow.schedules import TaskKind
from planflow.toydata import (
    PALETTE_SIZE,
    VOCAB,
    Dataset,
    EditCase,
    GenerationError,
    Scene,
    _clip_feature,
    _feature_similarity,
    comparison_frames,
    edited_mask,
    frames_to_ids,
    gen_edit_case,
    gen_pair_pool,
    gen_scene,
    generate_dataset,
    mine_pairs,
    oracle_passes,
    oracle_scores,
)
from util import decode_tokens

CFG = Config()
GRID = CFG.get_ints("data.grid")


def passes(case: EditCase, frames: np.ndarray) -> bool:
    """The oracle's verdict on `frames`."""
    return oracle_passes(oracle_scores(case, frames))


def clip_similarity(a: Scene, b: Scene) -> float:
    """Normalized cross-correlation of two clips' temporally averaged frames."""
    return _feature_similarity(_clip_feature(a), _clip_feature(b))


class TestSceneGeneration:
    def test_vocab_fits_budget(self):
        assert len(VOCAB) <= 64
        assert len(set(VOCAB)) == len(VOCAB)

    def test_empty_scene_is_constant_background(self):
        scene = gen_scene(Rng(1), (2, 8, 8), 0)
        assert (scene.rasterize() == scene.background).all()

    def test_determinism(self):
        a = gen_scene(Rng(9), (2, 8, 8), 2)
        b = gen_scene(Rng(9), (2, 8, 8), 2)
        assert a.to_dict() == b.to_dict()
        assert np.array_equal(a.rasterize(), b.rasterize())

    def test_in_bounds_sweep(self):
        root = Rng(123)
        for i in range(1000):
            scene = gen_scene(root.child(i), (2, 8, 8), 1 + i % 2)
            for obj in scene.objects:
                assert scene.in_bounds(obj), (i, obj)

    def test_rasterization_pure(self):
        scene = gen_scene(Rng(4), (2, 8, 8), 2)
        assert np.array_equal(scene.rasterize(), scene.rasterize())

    def test_normalized_range_and_decode(self):
        scene = gen_scene(Rng(5), (2, 8, 8), 2)
        norm = scene.normalized()
        assert norm.min() >= 0.0 and norm.max() <= 1.0
        assert np.array_equal(frames_to_ids(norm), scene.rasterize())

    def test_scene_dict_roundtrip(self):
        scene = gen_scene(Rng(6), (2, 8, 8), 2)
        again = Scene.from_dict(scene.to_dict())
        assert np.array_equal(again.rasterize(), scene.rasterize())

    def test_negative_count_rejected(self):
        with pytest.raises(GenerationError):
            gen_scene(Rng(1), (2, 8, 8), -1)


class TestEditCases:
    @pytest.mark.parametrize("task", list(TaskKind))
    def test_ground_truth_passes_oracle(self, task):
        root = Rng(31).child(list(TaskKind).index(task))  # the same cases on every run
        for i in range(25):
            case = gen_edit_case(root.child(i), task, GRID)
            assert passes(case, case.target.rasterize()), (task, case.family, i)

    def test_recolor_oracle_rejects_source(self):
        root = Rng(33)
        found = 0
        for i in range(200):
            case = gen_edit_case(root.child(i), TaskKind.V2V, GRID, families=("recolor",))
            assert passes(case, case.target.rasterize())
            assert not passes(case, case.source.rasterize())
            found += 1
            if found > 30:
                break

    def test_remove_object_count(self):
        case = gen_edit_case(Rng(35), TaskKind.V2V, GRID, families=("remove",))
        assert len(case.target.objects) == len(case.source.objects) - 1

    def test_generator_oracle_consistency_sweep(self):
        """500 generated editing cases: every ground truth passes, every
        unedited source fails."""
        root = Rng(37)
        for i in range(500):
            case = gen_edit_case(root.child(i), TaskKind.V2V, GRID)
            assert passes(case, case.target.rasterize()), (i, case.family)
            assert not passes(case, case.source.rasterize()), (i, case.family)

    def test_instruction_tokens_decode(self):
        case = gen_edit_case(Rng(39), TaskKind.V2V, GRID, families=("recolor",))
        words = decode_tokens(case.instruction)
        assert words[0] == "<bos>" and words[-1] == "<eos>"
        assert "recolor" in words and "to" in words

    def test_edited_mask_matches_difference(self):
        root = Rng(41)
        for i in range(50):
            case = gen_edit_case(root.child(i), TaskKind.V2V, GRID)
            src = case.source.rasterize()
            tgt = case.target.rasterize()
            mask = edited_mask(case)
            # everything outside the edited mask is identical between the two
            assert np.array_equal(src[~mask], tgt[~mask]), (i, case.family)

    def test_oracle_scores_are_fractions(self):
        case = gen_edit_case(Rng(43), TaskKind.I2I, GRID)
        e, k = oracle_scores(case, case.target.rasterize())
        assert e == 1.0 and k == 1.0
        noise = frames_to_ids(Rng(44).uniform(case.target.grid))
        e2, k2 = oracle_scores(case, noise)
        assert 0.0 <= e2 <= 1.0 and 0.0 <= k2 <= 1.0

    def test_case_dict_roundtrip(self):
        case = gen_edit_case(Rng(45), TaskKind.IV2V, GRID)
        again = EditCase.from_dict(case.to_dict())
        assert again.task == case.task
        assert np.array_equal(again.target.rasterize(), case.target.rasterize())
        assert again.instruction == case.instruction
        assert np.array_equal(edited_mask(again), edited_mask(case))

    def test_comparison_frames_fall_back_to_target(self):
        case = gen_edit_case(Rng(46), TaskKind.T2V, GRID)
        assert np.array_equal(comparison_frames(case), case.target.rasterize())


class TestPairMining:
    def test_identical_clips_dropped(self):
        scene = gen_scene(Rng(51), (2, 8, 8), 2)
        assert clip_similarity(scene, scene) == 1.0
        records = mine_pairs([scene, scene], Rng(1))
        assert records == []

    def test_uncorrelated_clips_near_zero(self):
        root = Rng(53)
        sims = []
        for i in range(100):
            a = gen_scene(root.child(2 * i), (2, 8, 8), 1)
            b = gen_scene(root.child(2 * i + 1), (2, 8, 8), 1)
            sims.append(clip_similarity(a, b))
        assert np.mean(sims) < 0.35

    def test_band_respected(self, monkeypatch):
        monkeypatch.setattr(toydata, "PAIR_BASE_SCENES", 6)
        monkeypatch.setattr(toydata, "PAIR_VARIANTS", 4)
        pool = gen_pair_pool(Rng(55), (2, 8, 8))
        records = mine_pairs(pool, Rng(2))
        for rec in records:
            assert 0.65 <= rec.similarity <= 0.95

    def test_per_origin_cap(self):
        base = gen_scene(Rng(57), (2, 8, 8), 2)
        pool = [base]
        rng = Rng(58)
        while len(pool) < 160:
            variant = Scene(base.grid, list(base.objects))
            obj = variant.objects[0]
            for _ in range(50):
                dr, dc = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
                from planflow.toydata import ObjectSpec

                cand = ObjectSpec(obj.shape, obj.color, obj.size,
                                  (obj.start[0] + dr, obj.start[1] + dc), obj.velocity, obj.orient)
                if variant.in_bounds(cand):
                    variant.objects[0] = cand
                    break
            pool.append(variant)
        n_valid = sum(
            1 for other in pool[1:] if 0.65 <= clip_similarity(pool[0], other) <= 0.95
        )
        if n_valid <= 100:
            pytest.skip("engineered pool did not reach the cap; adjust perturbations")
        records = mine_pairs(pool, Rng(3))
        from_origin0 = [r for r in records if r.clip_a is pool[0]]
        assert len(from_origin0) == 100

    @pytest.mark.parametrize("seed", [61, 62, 63])
    def test_matches_per_pair_reference(self, seed, monkeypatch):
        monkeypatch.setattr(toydata, "PAIR_BASE_SCENES", 3)
        pool = gen_pair_pool(Rng(seed), (2, 8, 8))
        pool += [Scene(pool[0].grid, list(pool[0].objects)), Scene((2, 8, 8), [])]  # an identical clip, a constant one
        reference, rng = [], Rng(seed + 100)
        for i in range(len(pool)):
            for j in i + 1 + rng.permutation(len(pool) - i - 1):
                sim = clip_similarity(pool[i], pool[int(j)])
                if 0.65 <= sim <= 0.95:
                    reference.append((i, int(j), sim))
        records = mine_pairs(pool, Rng(seed + 100))
        assert reference
        ids = {id(scene): k for k, scene in enumerate(pool)}
        got = [(ids[id(r.clip_a)], ids[id(r.clip_b)], r.similarity) for r in records]
        assert got == reference
        assert all(type(r.similarity) is float for r in records)


class TestDatasetFiles:
    def test_generate_and_reload(self, tmp_path):
        counts = {"v2v": 5, "t2i": 3, "text": 4, "pair": 2}
        manifest = generate_dataset(tmp_path / "ds", seed=11, counts=counts, grid=(2, 8, 8))
        assert manifest["counts"] == {k: counts[k] for k in sorted(counts)}
        assert manifest["total"] == sum(counts.values())
        data = Dataset(tmp_path / "ds")
        assert len(data.records) == manifest["total"]
        assert set(data.by_task) == {"v2v", "t2i", "text", "pair"}

    def test_generation_deterministic(self, tmp_path):
        counts = {"v2v": 4, "text": 2}
        generate_dataset(tmp_path / "a", seed=21, counts=counts, grid=GRID)
        generate_dataset(tmp_path / "b", seed=21, counts=counts, grid=GRID)
        a = (tmp_path / "a" / "records.jsonl").read_bytes()
        b = (tmp_path / "b" / "records.jsonl").read_bytes()
        assert a == b

    def test_files_pinned(self, tmp_path):
        """The exact bytes a fixed seed writes, with every task kind, text and pair records."""
        counts = {"t2i": 2, "t2v": 2, "i2i": 2, "i2v": 2, "v2v": 3, "iv2v": 2, "text": 3, "pair": 3}
        generate_dataset(tmp_path, seed=29, counts=counts, grid=(2, 8, 8))
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("records.jsonl", "manifest.json")}
        assert digests == {
            "records.jsonl": "e99237b813f9c7071ccc1d965ff42e9d94fb87b3b77fcaac7b4fb26a090b5eea",
            "manifest.json": "e21fa443267212459c120a5ce23abfe4d860aa6f60a8e4503cea2744c5cd0586",
        }

    def test_palette_size_constant(self):
        assert PALETTE_SIZE == 6

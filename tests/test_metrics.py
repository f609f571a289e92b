import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from amulet import metrics as mx

from oracles import count_trainable, eer_segment_sweep

finite_scores = st.lists(
    st.floats(-100, 100, allow_nan=False, allow_infinity=False), min_size=1, max_size=60
)


class TestComputeEer:
    def test_perfectly_separated(self):
        result = mx.compute_eer(mx.ScoreSet([2.0, 3.0, 4.0], [-1.0, 0.0, 1.0]))
        assert result.eer == 0.0

    def test_identical_lists(self):
        scores = [0.3, 0.1, 0.7, 0.5]
        result = mx.compute_eer(mx.ScoreSet(scores, list(scores)))
        assert abs(result.eer - 0.5) < 1e-9
        assert abs(result.eer - eer_segment_sweep(scores, scores)) < 1e-9

    def test_worked_example_is_exactly_one_third(self):
        bona = [0.9, 0.8, 0.2]
        spoof = [0.7, 0.15, 0.1]
        assert eer_segment_sweep(bona, spoof) == 1.0 / 3.0
        result = mx.compute_eer(mx.ScoreSet(bona, spoof))
        assert result.eer == 1.0 / 3.0

    def test_single_class_rejected(self):
        with pytest.raises(mx.ScoreSetError):
            mx.compute_eer(mx.ScoreSet([1.0], []))

    def test_matches_brute_force_on_200_random_sets(self):
        rng = np.random.default_rng(2025)
        for trial in range(200):
            n_bona = int(rng.integers(1, 501))
            n_spoof = int(rng.integers(1, 501))
            loc = rng.uniform(-1.0, 1.0)
            bona = rng.normal(loc + rng.uniform(0.0, 2.0), 1.0, size=n_bona)
            spoof = rng.normal(loc, 1.0, size=n_spoof)
            if rng.integers(0, 2):  # exercise the tie paths
                bona = np.round(bona, 1)
                spoof = np.round(spoof, 1)
            ours = mx.compute_eer(mx.ScoreSet(bona.tolist(), spoof.tolist())).eer
            oracle = eer_segment_sweep(bona, spoof)
            assert abs(ours - oracle) < 1e-9, trial

    @given(bona=finite_scores, spoof=finite_scores)
    @example(bona=[-100.0], spoof=[-99.99999999999999])  # one ulp apart
    @settings(max_examples=150, deadline=None)
    def test_oracle_equivalence_property(self, bona, spoof):
        ours = mx.compute_eer(mx.ScoreSet(bona, spoof)).eer
        assert abs(ours - eer_segment_sweep(bona, spoof)) < 1e-9

    @given(bona=finite_scores, spoof=finite_scores)
    @settings(max_examples=100, deadline=None)
    def test_bounds_and_separation(self, bona, spoof):
        eer = mx.compute_eer(mx.ScoreSet(bona, spoof)).eer
        assert 0.0 <= eer <= 1.0
        if min(bona) > max(spoof):
            assert eer == 0.0
        if eer == 0.0:
            assert min(bona) > max(spoof) or abs(min(bona) - max(spoof)) < 1e-12

    # grid-valued scores keep the transform strictly increasing in floats
    grid_scores = st.lists(
        st.integers(-10000, 10000).map(lambda v: v / 100.0), min_size=1, max_size=60
    )

    @given(bona=grid_scores, spoof=grid_scores, scale=st.floats(0.1, 10), shift=st.floats(-5, 5))
    @settings(max_examples=100, deadline=None)
    def test_monotone_transform_invariance(self, bona, spoof, scale, shift):
        base = mx.compute_eer(mx.ScoreSet(bona, spoof)).eer

        def transform(values):
            return [float(np.tanh(scale * v + shift) + 2.0 * (scale * v + shift)) for v in values]

        moved = mx.compute_eer(mx.ScoreSet(transform(bona), transform(spoof))).eer
        assert abs(base - moved) < 1e-9

    @given(bona=finite_scores, spoof=finite_scores)
    @settings(max_examples=100, deadline=None)
    def test_label_swap_maps_to_complement(self, bona, spoof):
        eer = mx.compute_eer(mx.ScoreSet(bona, spoof)).eer
        swapped = mx.compute_eer(mx.ScoreSet(spoof, bona)).eer
        assert abs((1.0 - eer) - swapped) < 1e-9


class TestScoreCorpus:
    def test_round_trip(self, tmp_path):
        scores = mx.ScoreSet([1.0, 2.0], [0.5], "T0", "demo")
        path = tmp_path / "scores.json"
        mx.save_scores(scores, path)
        loaded = mx.load_scores(path)
        assert loaded == scores


class TestReport:
    def _sets(self):
        rng = np.random.default_rng(0)
        sets = []
        for system in ("alpha", "beta", "gamma"):
            for condition in ("c1", "c2"):
                bona = (rng.normal(1.0, 1.0, 40)).tolist()
                spoof = (rng.normal(-1.0, 1.0, 40)).tolist()
                sets.append(mx.ScoreSet(bona, spoof, condition, system))
        return sets

    def test_matrix_shape_and_averages(self):
        report = mx.build_report(self._sets(), {"alpha": 100})
        assert report.systems == ["alpha", "beta", "gamma"]
        assert report.conditions == ["c1", "c2"]
        for system in report.systems:
            cells = [report.eer_percent(system, c) for c in report.conditions]
            assert report.row_average(system) == float(np.mean(cells))

    def test_missing_cell_rejected(self):
        sets = self._sets()[:-1]
        with pytest.raises(mx.ReportError, match="missing cell"):
            mx.build_report(sets)

    def test_csv_round_trip_bit_exact_averages(self):
        report = mx.build_report(self._sets(), {"alpha": 123, "beta": 45, "gamma": 6})
        csv_text = mx.report_to_csv(report)
        reloaded = mx.report_from_csv(csv_text)
        for system in report.systems:
            assert reloaded.row_average(system) == report.row_average(system)
            for condition in report.conditions:
                assert reloaded.eer_percent(system, condition) == report.eer_percent(
                    system, condition
                )
        assert reloaded.trainable_params == report.trainable_params

    def test_row_ordering_stable(self):
        a = mx.report_to_csv(mx.build_report(self._sets()))
        b = mx.report_to_csv(mx.build_report(self._sets()))
        assert a == b


class TestParamRatio:
    def test_model_ratios(self):
        from amulet.experts import EncoderConfig, LoraConfig, lora_inject, new_expert

        cfg = EncoderConfig()
        fft = count_trainable(new_expert(cfg, seed=0))
        ase = count_trainable(
            lora_inject(new_expert(cfg, seed=0), LoraConfig(4, 16.0, 0.1), seed=1)
        )
        assert (ase["trainable"], fft["trainable"]) == (1920, 18624)
        assert ase["total"] == fft["total"] == 18624
        ratio = 100.0 * ase["trainable"] / fft["trainable"]
        assert abs(ase["percent"] - ratio) < 1e-9
        assert abs(ratio - 10.31) < 0.01
        assert fft["percent"] == 100.0

    def test_paper_scale_arithmetic(self):
        assert round(100.0 * 3.59e6 / 318e6, 2) == 1.13

"""Direction predictors: bimodal, gshare, TAGE, loop predictor."""

import random

import pytest

from repro.branch import (
    AlwaysNotTaken,
    AlwaysTaken,
    Bimodal,
    GShare,
    LoopPredictor,
    Tage,
)


class TestStatic:
    def test_always_taken(self):
        p = AlwaysTaken()
        assert p.predict(0x40) is True
        p.update(0x40, False)
        assert p.predict(0x40) is True

    def test_always_not_taken(self):
        p = AlwaysNotTaken()
        assert p.predict(0x40) is False


class TestBimodal:
    def test_learns_biased_branch(self):
        p = Bimodal(entries=64)
        for _ in range(4):
            p.update(5, True)
        assert p.predict(5) is True

    def test_learns_not_taken(self):
        p = Bimodal(entries=64)
        for _ in range(4):
            p.update(5, False)
        assert p.predict(5) is False

    def test_hysteresis(self):
        """One stray outcome must not flip a saturated counter."""
        p = Bimodal(entries=64)
        for _ in range(4):
            p.update(7, True)
        p.update(7, False)
        assert p.predict(7) is True

    def test_confidence_saturated(self):
        p = Bimodal(entries=64)
        for _ in range(4):
            p.update(9, True)
        assert p.confidence(9)

    def test_confidence_weak(self):
        p = Bimodal(entries=64)
        assert not p.confidence(9)  # counters start weak

    def test_aliasing_by_design(self):
        p = Bimodal(entries=16)
        for _ in range(4):
            p.update(0, True)
        assert p.predict(16) is True  # same slot

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Bimodal(entries=100)


class TestGShare:
    def test_learns_alternating_with_history(self):
        """T/NT alternation is unlearnable by bimodal but trivial for a
        history-indexed predictor."""
        p = GShare(entries=1024, history_bits=8)
        outcome = True
        for _ in range(200):
            p.update(0x33, outcome)
            outcome = not outcome
        hits = 0
        for _ in range(50):
            if p.predict(0x33) == outcome:
                hits += 1
            p.update(0x33, outcome)
            outcome = not outcome
        assert hits >= 45

    def test_history_advances(self):
        p = GShare()
        before = p.history
        p.update(0, True)
        assert p.history != before


class TestTage:
    def _train(self, p, pattern, pc=0x100, reps=60):
        for _ in range(reps):
            for outcome in pattern:
                p.predict(pc)
                p.update(pc, outcome)

    def test_learns_bias(self):
        p = Tage()
        self._train(p, [True], reps=30)
        assert p.predict(0x100) is True

    def test_learns_short_pattern(self):
        p = Tage()
        pattern = [True, True, False]
        self._train(p, pattern, reps=80)
        hits = 0
        for i in range(30):
            outcome = pattern[i % 3]
            if p.predict(0x100) == outcome:
                hits += 1
            p.update(0x100, outcome)
        assert hits >= 26

    @pytest.mark.parametrize("kwargs", [
        {},
        {"num_tables": 3, "table_entries": 256, "tag_bits": 7, "max_history": 40},
        {"num_tables": 6, "min_history": 4, "max_history": 5},  # lengths clamp
    ])
    def test_incremental_folds_match_definition(self, kwargs):
        """Every table's folds equal ``_fold`` of the live history."""
        p = Tage(**kwargs)
        rng = random.Random(7)
        for step in range(3000):
            pc = rng.randrange(256)
            if rng.random() < 0.8:
                p.predict(pc)
            p.update(pc, rng.random() < 0.7)
            for table in p.tables:
                assert table.folds == [table._fold(p.history, width)
                                       for width in table.widths], step

    @pytest.mark.parametrize("kwargs", [{"tag_bits": 1}, {"table_entries": 1}])
    def test_rejects_zero_width_folds(self, kwargs):
        with pytest.raises(ValueError):
            Tage(**kwargs)

    def test_confidence_reuses_predict_lookup(self):
        p = Tage()
        self._train(p, [True, False, True], reps=40)
        p.predict(0x100)
        memo = p._memo
        assert memo is not None and memo[0] == 0x100
        p.confidence(0x100)
        assert p._memo is memo
        p.update(0x100, True)
        assert p._memo is None

    def test_update_without_predict_is_safe(self):
        p = Tage()
        p.update(0x500, True)  # must not raise

    def test_distinct_pcs_independent(self):
        p = Tage(with_loop_predictor=False)
        self._train(p, [True], pc=0x10, reps=30)
        self._train(p, [False], pc=0x20, reps=30)
        assert p.predict(0x10) is True
        assert p.predict(0x20) is False


class TestLoopPredictor:
    def test_learns_fixed_trip_count(self):
        p = LoopPredictor()
        # 5 taken + 1 not-taken, repeatedly
        for _ in range(6):
            for i in range(6):
                p.update(0x40, i < 5)
        # mid-loop: predict taken; at the 6th: predict exit
        for i in range(6):
            prediction = p.predict(0x40)
            assert prediction == (i < 5)
            p.update(0x40, i < 5)

    def test_unconfident_returns_none(self):
        p = LoopPredictor()
        p.update(0x40, True)
        assert p.predict(0x40) is None

    def test_changing_trip_count_resets(self):
        p = LoopPredictor()
        for trip in (3, 5, 4):
            for i in range(trip + 1):
                p.update(0x40, i < trip)
        assert p.predict(0x40) is None

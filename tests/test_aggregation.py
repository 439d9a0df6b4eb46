from __future__ import annotations

import random
import statistics

import pytest

from eventcast.inference.fields import (
    FIELDS_BY_NAME,
    FieldSpec,
    aggregate_runs,
    normalize_string,
)
from eventcast.model import FAILED

CATEGORY = FIELDS_BY_NAME["category"]            # string: plurality
ENTITIES = FIELDS_BY_NAME["entities"]            # string_list: two votes
AUDIENCE = FIELDS_BY_NAME["audience_size"]       # integer: median
CONTINENTS = FIELDS_BY_NAME["continent_relevance"]  # real_map: per-key median


class TestRegistry:
    def test_every_metadata_row_has_one_spec(self):
        from eventcast.inference.fields import INFERABLE_SPECS
        from eventcast.inference.prompts import load_template
        assert {s.field_name: (s.data_type, s.uses_rag) for s in INFERABLE_SPECS} == {
            "category": ("string", False),
            "entities": ("string_list", False),
            "platforms": ("string_list", True),
            "data_per_user_mb": ("integer", True),
            "audience_size": ("integer", True),
            "continent_relevance": ("real_map", True),
            "nation_relevance": ("real_map", True),
            "spike_duration_hours": ("real", True),
            "likelihood": ("integer_0_10", True),
        }
        assert len(FIELDS_BY_NAME) == len(INFERABLE_SPECS)
        for spec in INFERABLE_SPECS:
            assert load_template(spec.prompt_template_id)

    def test_unknown_data_type_rejected(self):
        from eventcast.model import InvariantError
        with pytest.raises(InvariantError, match="unknown data type"):
            FieldSpec("semantic_signature", "integer_list", False)


class TestPluralityString:
    def test_two_of_three(self):
        assert aggregate_runs(CATEGORY, ["Sports", "Sports", "TV & Film"]) == "sports"

    def test_no_plurality_fails(self):
        assert aggregate_runs(CATEGORY, ["A", "B", "C"]) is FAILED

    def test_normalization_merges_variants(self):
        assert aggregate_runs(CATEGORY, ["  Sports.", "sports", "TV"]) == "sports"

    def test_all_abstain_fails(self):
        assert aggregate_runs(CATEGORY, [None, None, None]) is FAILED

    def test_single_vote_insufficient(self):
        assert aggregate_runs(CATEGORY, ["Sports", None, None]) is FAILED


class TestVotesGe2:
    def test_table_rule(self):
        runs = [["A", "B"], ["A", "C"], ["A", "B"]]
        assert aggregate_runs(ENTITIES, runs) == ("a", "b")

    def test_duplicates_within_run_count_once(self):
        runs = [["A", "A", "A"], ["B"], ["B"]]
        assert aggregate_runs(ENTITIES, runs) == ("b",)

    def test_fails_only_when_all_abstain(self):
        assert aggregate_runs(ENTITIES, [None, None, None]) is FAILED
        assert aggregate_runs(ENTITIES, [["A"], None, None]) == ()

    def test_monotone_in_added_entry(self):
        runs = [["A"], ["A", "B"], ["B"]]
        base = set(aggregate_runs(ENTITIES, runs))
        grown = set(aggregate_runs(ENTITIES, [["A", "C"], ["A", "B", "C"], ["B"]]))
        assert base <= grown


class TestMedian:
    def test_audience_example(self):
        assert aggregate_runs(AUDIENCE, [1e6, 2e6, 5e6]) == 2e6

    def test_single_value_with_abstains(self):
        assert aggregate_runs(AUDIENCE, [7, None, None]) == 7

    def test_even_count_mean_of_middle(self):
        assert aggregate_runs(AUDIENCE, [10, 20, None]) == 15

    def test_spread_guard(self):
        # 5e8 / 1e6 = 500x disagreement is not a consensus
        assert aggregate_runs(AUDIENCE, [1e6, 2e6, 5e8]) is FAILED

    def test_spread_exactly_10x_allowed(self):
        assert aggregate_runs(AUDIENCE, [10, 50, 100]) == 50

    def test_zero_vs_nonzero_fails(self):
        assert aggregate_runs(AUDIENCE, [0, 0, 5]) is FAILED

    def test_all_zero_agrees(self):
        assert aggregate_runs(AUDIENCE, [0, 0, 0]) == 0

    def test_real_and_integer_0_10_take_the_median(self):
        duration = FIELDS_BY_NAME["spike_duration_hours"]   # real
        likelihood = FIELDS_BY_NAME["likelihood"]           # integer_0_10
        assert aggregate_runs(duration, [1.5, 2.0, 4.0]) == 2.0
        assert aggregate_runs(duration, [0.5, 100.0, 2.0]) is FAILED
        assert aggregate_runs(likelihood, [7, 9, None]) == 8
        assert aggregate_runs(likelihood, [3, 6, 9]) == 6


class TestPerEntryMedian:
    def test_derived_per_key_oracle(self):
        runs = [{"EU": 0.9, "NA": 0.2}, {"EU": 0.7}, {"EU": 0.8, "NA": 0.4}]
        result = aggregate_runs(CONTINENTS, runs)
        assert result == {"EU": pytest.approx(0.8), "NA": pytest.approx(0.3)}

    def test_single_producer_keys_dropped(self):
        runs = [{"EU": 0.9}, {"NA": 0.5}, {"EU": 0.7}]
        assert aggregate_runs(CONTINENTS, runs) == {"EU": pytest.approx(0.8)}

    def test_key_normalization(self):
        runs = [{"eu": 0.6}, {"EU": 0.8}, {}]
        assert aggregate_runs(CONTINENTS, runs) == {"EU": pytest.approx(0.7)}

    def test_all_abstain_fails(self):
        assert aggregate_runs(CONTINENTS, [None, None, None]) is FAILED

    def test_per_key_spread_guard(self):
        runs = [{"EU": 0.01}, {"EU": 0.9}, {"EU": 0.9}]
        assert aggregate_runs(CONTINENTS, runs) is FAILED


class TestPermutationInvariance:
    def test_all_methods_small_sweep(self):
        rng = random.Random(11)
        cases = [
            (CATEGORY, lambda: rng.choice(["A", "B", None])),
            (ENTITIES, lambda: rng.choice([["A"], ["A", "B"], ["B", "C"], None])),
            (AUDIENCE, lambda: rng.choice([10, 20, 40, None])),
            (CONTINENTS, lambda: rng.choice([{"EU": 0.5}, {"EU": 0.7, "NA": 0.5}, None])),
        ]
        for spec, gen in cases:
            for _ in range(100):
                runs = [gen() for _ in range(3)]
                results = set()
                for _ in range(6):
                    rng.shuffle(runs)
                    results.add(repr(aggregate_runs(spec, runs)))
                assert len(results) == 1, f"{spec.field_name} not permutation-invariant on {runs}"


class TestMedianOutlierInsensitivity:
    def test_single_outlier_moves_median_to_observed_value(self):
        # replacing one of three runs by an extreme value can only move
        # the median to another observed value (here: the spread guard
        # aside, the raw median property)
        values = [30.0, 40.0, 50.0]
        spec = AUDIENCE
        base = statistics.median(values)
        for i in range(3):
            perturbed = list(values)
            perturbed[i] = 1e12
            assert statistics.median(perturbed) in values or statistics.median(perturbed) == base


def test_normalize_string_rules():
    assert normalize_string("  TV &  Film.  ") == "tv & film"
    assert normalize_string("Sports!!") == "sports"
    assert normalize_string("a\tb\nc") == "a b c"

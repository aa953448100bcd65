"""Property-based tests for the data substrate and synthetic generator."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.data import Table
from repro.data.io import _parse_value, _render_value
from repro.data.synthetic import CorruptionProfile, Corruptor

cell_values = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False,
              allow_infinity=False),
    # strings that survive CSV round-trips unambiguously: no leading
    # numerals, no "true"/"false" collisions, no surrounding whitespace
    st.from_regex(r"[a-z][a-z ]{0,15}[a-z]", fullmatch=True).filter(
        lambda s: s not in ("true", "false")),
    # strings float() would read as numbers but a CSV cell keeps as text
    st.sampled_from(["nan", "NaN", "Nan", "inf", "-inf", "Infinity",
                     "infinity", "1_000", " 12 "]),
)


class TestCsvValueRoundTrip:
    @settings(max_examples=200)
    @given(cell_values)
    def test_render_parse_inverse(self, value):
        rendered = _render_value(value)
        parsed = _parse_value(rendered)
        if isinstance(value, float):
            assert isinstance(parsed, float)
            assert parsed == float(_render_value(value))
        else:
            assert parsed == value


class TestTableProperties:
    @settings(max_examples=30)
    @given(st.lists(st.lists(st.integers(-5, 5), min_size=2, max_size=2),
                    min_size=1, max_size=20))
    def test_column_matches_rows(self, rows):
        table = Table("t", ["x", "y"],
                      [[float(a), float(b)] for a, b in rows])
        assert table.column("x") == [float(a) for a, _ in rows]
        assert [record["y"] for record in table] == \
            [float(b) for _, b in rows]

    @settings(max_examples=30)
    @given(st.integers(1, 30), st.integers(0, 100))
    def test_sample_is_subset(self, n_rows, seed):
        table = Table("t", ["v"], [[float(i)] for i in range(n_rows)])
        rng = np.random.default_rng(seed)
        k = max(1, n_rows // 2)
        sampled = table.sample(k, rng)
        original_ids = {record.record_id for record in table}
        assert {record.record_id for record in sampled} <= original_ids
        assert sampled.num_rows == k


class TestCorruptionProperties:
    @settings(max_examples=50)
    @given(st.from_regex(r"[a-z]{2,8}( [a-z]{2,8}){0,5}", fullmatch=True),
           st.integers(0, 10_000))
    def test_corrupt_string_returns_str_or_none(self, text, seed):
        profile = CorruptionProfile(typo_prob=0.3, abbreviation_prob=0.3,
                                    token_drop_prob=0.3,
                                    token_swap_prob=0.3, missing_prob=0.1)
        corruptor = Corruptor(profile, np.random.default_rng(seed))
        out = corruptor.corrupt_string(text)
        assert out is None or isinstance(out, str)
        if out is not None:
            assert len(out.split()) >= 1

    @settings(max_examples=50)
    @given(st.floats(0.01, 1e6), st.integers(0, 10_000))
    def test_corrupt_numeric_stays_positive_scale(self, value, seed):
        profile = CorruptionProfile(numeric_jitter=0.1)
        corruptor = Corruptor(profile, np.random.default_rng(seed))
        out = corruptor.corrupt_numeric(value)
        assert out is not None
        assert out == out  # not NaN
        # 10% relative jitter stays within a sane multiplicative band
        assert 0.0 <= out <= value * 2.5 + 1.0

    @settings(max_examples=30)
    @given(st.floats(0.0, 0.9), st.floats(0.1, 3.0))
    def test_scaled_profile_caps(self, base, factor):
        profile = CorruptionProfile(typo_prob=base)
        assert 0.0 <= profile.scaled(factor).typo_prob <= 0.95


class TestScaledSpecProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.02, 1.0))
    def test_scaled_spec_consistent(self, scale):
        from repro.data.synthetic import DATASET_SPECS
        spec = DATASET_SPECS["abt_buy"].scaled(scale)
        assert spec.positive_pairs < spec.total_pairs
        assert spec.total_pairs >= 40
        assert spec.positive_pairs >= 8

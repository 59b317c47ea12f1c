"""Theory-vs-measurement agreement (Table I closed forms)."""

import pytest

from repro.codes import make_code
from repro.codes.theory import (
    EVENODD_MODEL,
    LIBERATION_OPTIMAL_MODEL,
    LIBERATION_ORIGINAL_MODEL,
    RDP_MODEL,
    TABLE1_MODELS,
    lower_bound_decoding,
    lower_bound_encoding,
    lower_bound_update,
)

MODEL_BY_NAME = {m.name: m for m in TABLE1_MODELS}

POINTS = [
    ("evenodd", 5, 5),
    ("evenodd", 11, 7),
    ("rdp", 5, 4),
    ("rdp", 11, 7),
    ("liberation-original", 5, 5),
    ("liberation-original", 11, 7),
    ("liberation-optimal", 5, 5),
    ("liberation-optimal", 11, 7),
    ("liberation-optimal", 31, 23),
]


class TestLowerBounds:
    def test_values(self):
        assert lower_bound_encoding(10) == 9
        assert lower_bound_decoding(10) == 9
        assert lower_bound_update(10) == 2


class TestEncodingModels:
    @pytest.mark.parametrize("name,p,k", POINTS)
    def test_measured_matches_model(self, name, p, k):
        code = make_code(name, k, p=p)
        model = MODEL_BY_NAME[name]
        assert code.encoding_complexity() == pytest.approx(
            model.encoding_complexity(p, k)
        )

    def test_models_never_beat_bound(self):
        for model in TABLE1_MODELS:
            for p, k in [(5, 4), (11, 7), (31, 23)]:
                if model.name == "rdp" and k >= p:
                    continue
                assert model.encoding_complexity(p, k) >= k - 1 - 1e-9


class TestUpdateModels:
    @pytest.mark.parametrize(
        "name,p,k",
        [
            ("evenodd", 7, 6),
            ("rdp", 7, 6),
            ("liberation-original", 7, 6),
            ("liberation-optimal", 7, 6),
        ],
    )
    def test_measured_matches_model(self, name, p, k, random_words):
        code = make_code(name, k, p=p, element_size=8)
        buf = code.alloc_stripe()
        buf[:k] = random_words(buf[:k].shape)
        code.encode(buf)
        total = sum(
            code.update(buf, c, r, random_words(buf[c, r].shape))
            for c in range(k)
            for r in range(code.rows)
        )
        model = MODEL_BY_NAME[name]
        assert total / (k * code.rows) == pytest.approx(model.update_complexity(p, k))

    def test_liberation_update_is_best(self):
        """Table I's key contrast: ~2 vs ~3 parity updates."""
        p, k = 31, 23
        lib = LIBERATION_OPTIMAL_MODEL.update_complexity(p, k)
        assert lib < 2.05
        assert EVENODD_MODEL.update_complexity(p, k) > 2.8
        assert RDP_MODEL.update_complexity(p, k) > 2.8

    def test_large_p_asymptotics(self):
        """As p grows, EVENODD/RDP -> 3 and Liberation -> 2."""
        p, k = 101, 100
        assert EVENODD_MODEL.update_complexity(p, k) == pytest.approx(3, abs=0.1)
        assert RDP_MODEL.update_complexity(p, k) == pytest.approx(3, abs=0.1)
        assert LIBERATION_ORIGINAL_MODEL.update_complexity(p, 100) == pytest.approx(
            2, abs=0.05
        )


class TestTableRelations:
    def test_original_encode_overhead_is_half_inverse_p(self):
        for p in (5, 11, 31):
            k = p - 1
            over = LIBERATION_ORIGINAL_MODEL.encoding_complexity(
                p, k
            ) - LIBERATION_OPTIMAL_MODEL.encoding_complexity(p, k)
            assert over == pytest.approx((k - 1) / (2 * p))

    def test_w_functions(self):
        assert EVENODD_MODEL.w(11) == 10
        assert RDP_MODEL.w(11) == 10
        assert LIBERATION_OPTIMAL_MODEL.w(11) == 11

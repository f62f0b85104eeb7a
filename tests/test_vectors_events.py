"""Tests for the vector catalogue and the columnar attack batch."""

import numpy as np
import pytest

from repro.attacks.events import (
    HP_BIT,
    OBSERVATORY_KEYS,
    AttackClass,
    ShardBatch,
)
from repro.attacks.vectors import (
    DP_VECTORS,
    EMERGING_RA_VECTORS,
    RA_VECTORS,
    VECTORS,
    VectorKind,
    vector_by_name,
    vector_id,
    vector_ids,
)


class TestVectorCatalogue:
    def test_catalogue_layout(self):
        assert VECTORS[: len(RA_VECTORS)] == RA_VECTORS
        assert (
            VECTORS[len(RA_VECTORS) : len(RA_VECTORS) + len(DP_VECTORS)]
            == DP_VECTORS
        )
        assert VECTORS[len(RA_VECTORS) + len(DP_VECTORS) :] == EMERGING_RA_VECTORS

    def test_lookup_by_name(self):
        dns = vector_by_name("DNS")
        assert dns.kind is VectorKind.REFLECTION
        assert dns.port == 53
        assert VECTORS[vector_id("DNS")] is dns

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            vector_by_name("NOPE")

    def test_vector_ids_partition_catalogue(self):
        ra = vector_ids(VectorKind.REFLECTION)
        dp = vector_ids(VectorKind.DIRECT)
        assert sorted(ra + dp) == list(range(len(VECTORS)))

    def test_reflection_vectors_amplify(self):
        for vector in RA_VECTORS:
            assert vector.amplification > 1.0
        for vector in DP_VECTORS:
            assert vector.amplification == 1.0

    def test_known_amplification_factors(self):
        # Canonical values from Rossow (NDSS 2014).
        assert vector_by_name("NTP").amplification == pytest.approx(556.0)
        assert vector_by_name("DNS").amplification == pytest.approx(54.0)
        assert vector_by_name("Memcached").amplification >= 10_000

    def test_active_weights_positive(self):
        assert all(vector.weight > 0 for vector in RA_VECTORS + DP_VECTORS)

    def test_emerging_vectors_inactive_but_resolvable(self):
        # Weight 0 keeps them out of the default 2019-2023 mix without
        # perturbing the seeded draws of the active catalogue.
        assert all(vector.weight == 0 for vector in EMERGING_RA_VECTORS)
        tp240 = vector_by_name("TP240")
        assert tp240.amplification > 1000
        assert vector_by_name("SLP").port == 427


def _columns(n):
    return dict(
        attack_class=np.zeros(n, dtype=np.int8),
        target=np.zeros(n, dtype=np.int64),
        origin_asn=np.zeros(n, dtype=np.int64),
        start=np.zeros(n),
        duration=np.zeros(n),
        pps=np.zeros(n),
        bps=np.zeros(n),
        vector_id=np.zeros(n, dtype=np.int16),
        secondary_vector_id=np.zeros(n, dtype=np.int16),
        carpet=np.zeros(n, dtype=bool),
        carpet_prefix_len=np.zeros(n, dtype=np.int8),
        spoofed=np.zeros(n, dtype=bool),
        hp_selected=np.zeros(n, dtype=np.uint8),
    )


def _batch(n=3, day=5):
    columns = _columns(n)
    columns.update(
        attack_class=np.asarray([0, 1, 1], dtype=np.int8)[:n],
        target=np.arange(n, dtype=np.int64) + 100,
        spoofed=np.asarray([True, True, True])[:n],
        hp_selected=np.asarray([0, 1, 2], dtype=np.uint8)[:n],
    )
    return ShardBatch(
        day,
        day + 1,
        days=np.full(n, day, dtype=np.int32),
        bias={key: np.ones(n) for key in OBSERVATORY_KEYS},
        **columns,
    )


class TestShardBatch:
    def test_masks(self):
        batch = _batch()
        assert batch.is_direct_path.tolist() == [True, False, False]
        assert batch.is_reflection.tolist() == [False, True, True]
        assert batch.is_rsdos.tolist() == [True, False, False]

    def test_hp_selected_mask(self):
        batch = _batch()
        assert batch.hp_selected_mask("hopscotch").tolist() == [False, True, False]
        assert batch.hp_selected_mask("amppot").tolist() == [False, False, True]

    def test_length_mismatch_rejected(self):
        columns = _columns(3)
        columns["attack_class"] = np.zeros(2, dtype=np.int8)
        with pytest.raises(ValueError):
            ShardBatch(
                0,
                1,
                days=np.zeros(3, dtype=np.int32),
                bias={key: np.ones(3) for key in OBSERVATORY_KEYS},
                **columns,
            )

    def test_missing_bias_rejected(self):
        bias = {key: np.ones(1) for key in OBSERVATORY_KEYS if key != "ucsd"}
        with pytest.raises(ValueError):
            ShardBatch(0, 1, days=np.zeros(1, dtype=np.int32), bias=bias, **_columns(1))

    def test_unexpected_column_rejected(self):
        with pytest.raises(ValueError):
            ShardBatch(
                0,
                1,
                days=np.zeros(1, dtype=np.int32),
                bias={key: np.ones(1) for key in OBSERVATORY_KEYS},
                tag=np.zeros(1, dtype=np.int64),
                **_columns(1),
            )


class TestAttackClass:
    def test_hp_bit_layout(self):
        assert HP_BIT == {"hopscotch": 0, "amppot": 1, "newkid": 2}

    def test_attack_class_labels(self):
        assert AttackClass.DIRECT_PATH.label == "DP"
        assert AttackClass.REFLECTION_AMPLIFICATION.label == "RA"

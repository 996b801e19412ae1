import numpy as np
import pytest
from numpy.testing import assert_array_equal

from rhtsketch import streams


def test_same_key_same_stream():
    a = streams.gaussian_block(42, streams.DIAGONAL, 3, 100)
    b = streams.gaussian_block(42, streams.DIAGONAL, 3, 100)
    assert_array_equal(a, b)


@pytest.mark.parametrize(
    "key_a,key_b",
    [
        ((42, streams.DIAGONAL, 3), (43, streams.DIAGONAL, 3)),
        ((42, streams.DIAGONAL, 3), (42, streams.PHASE, 3)),
        ((42, streams.DIAGONAL, 3), (42, streams.DIAGONAL, 4)),
    ],
)
def test_distinct_keys_distinct_streams(key_a, key_b):
    a = streams.gaussian_block(*key_a, 64)
    b = streams.gaussian_block(*key_b, 64)
    assert not np.array_equal(a, b)


def test_diagonal_and_phase_streams_disjoint_at_same_seed():
    # same seed, different purpose tag: raw uniforms share no values
    a = streams.generator(7, streams.DIAGONAL, 0).random(4096)
    b = streams.generator(7, streams.PHASE, 0).random(4096)
    assert not set(a) & set(b)


def test_prefix_property():
    # drawing fewer variates yields a prefix of the longer draw
    long = streams.gaussian_block(9, streams.VECTOR, 2, 256)
    short = streams.gaussian_block(9, streams.VECTOR, 2, 64)
    assert_array_equal(short, long[:64])


def test_uniform_angles_range():
    angles = streams.uniform_angles(5, streams.PHASE, 0, 100000)
    assert angles.min() >= 0.0
    assert angles.max() < 2.0 * np.pi


def test_negative_seed_wraps_to_uint64():
    a = streams.gaussian_block(-1, streams.DIAGONAL, 0, 8)
    b = streams.gaussian_block((1 << 64) - 1, streams.DIAGONAL, 0, 8)
    assert_array_equal(a, b)


def test_derive_seed_deterministic_and_in_range():
    s1 = streams.derive_seed(11, streams.QUERY, 5)
    s2 = streams.derive_seed(11, streams.QUERY, 5)
    assert s1 == s2
    assert 0 <= s1 < 1 << 63
    assert s1 != streams.derive_seed(11, streams.QUERY, 6)


@pytest.mark.parametrize("seed", [0, 7, -1, 2**63 + 5])
def test_stream_rows_match_per_row_streams(seed):
    normal = streams.stream_rows(seed, streams.DIAGONAL, 5, 33, np.random.Generator.standard_normal)
    angles = streams.stream_rows(seed, streams.PHASE, 5, 33, np.random.Generator.random)
    angles *= 2.0 * np.pi
    assert normal.shape == angles.shape == (5, 33)
    for j in range(5):
        assert_array_equal(normal[j], streams.gaussian_block(seed, streams.DIAGONAL, j, 33))
        assert_array_equal(angles[j], streams.uniform_angles(seed, streams.PHASE, j, 33))
    # a row does not depend on the rows drawn before it
    assert_array_equal(
        streams.stream_rows(seed, streams.DIAGONAL, 1, 33, np.random.Generator.standard_normal)[0],
        normal[0],
    )


def test_stream_rows_rejects_out_of_range_index_and_purpose():
    with pytest.raises(ValueError, match="index"):
        streams.stream_rows(0, streams.DIAGONAL, (1 << 56) + 1, 0, np.random.Generator.random)
    with pytest.raises(ValueError, match="purpose"):
        streams.stream_rows(0, 256, 2, 4, np.random.Generator.random)


def test_rejects_out_of_range_index_and_purpose():
    with pytest.raises(ValueError, match="index"):
        streams.generator(0, streams.DIAGONAL, 1 << 56)
    with pytest.raises(ValueError, match="index"):
        streams.generator(0, streams.DIAGONAL, -1)
    with pytest.raises(ValueError, match="purpose"):
        streams.generator(0, 256, 0)


def test_unit_vector_is_the_normalized_vector_stream():
    g = streams.gaussian_block(5, streams.VECTOR, 7, 33)
    v = streams.unit_vector(5, 7, 33)
    assert_array_equal(v, g / np.linalg.norm(g))
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12

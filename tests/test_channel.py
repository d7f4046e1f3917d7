import numpy as np
import pytest

from mmwsec.channel import (
    PathSets,
    an_beamformer,
    build_basis,
    channel_row,
    complex_normal,
    sample_channel,
    sample_gain_scalars,
    sample_path_sets,
    select_columns,
)
from mmwsec.errors import DegenerateChannelError


@pytest.mark.parametrize("m", [1, 2, 4, 16, 64, 100])
def test_basis_is_unitary(m):
    w = build_basis(m)
    gram = w.conj().T @ w
    assert np.max(np.abs(gram - np.eye(m))) < 1e-10


def test_basis_column_norms():
    w = build_basis(100)
    norms = np.linalg.norm(w, axis=0)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_basis_single_antenna():
    w = build_basis(1)
    assert w.shape == (1, 1)
    assert abs(w[0, 0] - 1.0) < 1e-15


def test_basis_rejects_zero_antennas():
    with pytest.raises(ValueError):
        build_basis(0)


def test_select_columns_identity_and_empty():
    b = build_basis(5)
    np.testing.assert_array_equal(select_columns(b, range(1, 6)), b)
    assert select_columns(b, []).shape == (5, 0)


def test_select_columns_unit_vectors():
    eye = np.eye(3)
    picked = select_columns(eye, [1, 3])
    np.testing.assert_array_equal(picked, eye[:, [0, 2]])


def test_select_columns_rejects_bad_indices():
    b = np.eye(4)
    with pytest.raises(ValueError):
        select_columns(b, [3, 2])
    with pytest.raises(ValueError):
        select_columns(b, [0, 1])
    with pytest.raises(ValueError):
        select_columns(b, [1, 5])


def test_path_sets_partitions():
    sets = PathSets(xi_d=(1, 3, 5, 7), xi_e=(3, 4, 7))
    assert sets.xi_c == (3, 7)
    assert sets.xi_a == (4,)
    assert sets.xi_p == (1, 5)


def test_sample_path_sets_counts(rng):
    for _ in range(50):
        sets = sample_path_sets(64, 12, 9, 5, rng)
        assert sets.n_d == 12 and sets.n_e == 9 and sets.n_c == 5
        assert len(sets.xi_a) == 4 and len(sets.xi_p) == 7
        assert not set(sets.xi_a) & set(sets.xi_c)
        assert all(1 <= i <= 64 for i in sets.xi_d + sets.xi_e)


def test_sample_path_sets_full_and_zero_overlap(rng):
    full = sample_path_sets(32, 6, 6, 6, rng)
    assert full.xi_d == full.xi_e
    disjoint = sample_path_sets(32, 6, 6, 0, rng)
    assert not set(disjoint.xi_d) & set(disjoint.xi_e)
    small = sample_path_sets(10, 4, 3, 2, rng)
    assert len(small.xi_a) == 1 and len(small.xi_p) == 2


def test_sample_path_sets_infeasible(rng):
    with pytest.raises(ValueError):
        sample_path_sets(10, 8, 8, 2, rng)  # 8+8-2 > 10
    with pytest.raises(ValueError):
        sample_path_sets(10, 4, 3, 4, rng)


def test_gain_scalar_means(rng):
    n = 100_000
    g_hat, g_check, u, v = sample_gain_scalars(12, 8, 6, n, rng)
    g = g_hat + g_check
    assert abs(np.mean(g) - 20.0) < 0.2
    assert abs(np.mean(u) - 1.0) < 0.02
    assert abs(np.mean(g_hat) - 12.0) < 0.15
    assert abs(np.mean(v) - 6.0) < 0.1


def test_zero_path_counts_draw_zeros_and_consume_nothing():
    # a zero shape draws +0.0 and leaves the stream where it was, on the
    # sweep's Philox gain stream and the estimators' SFC64 chunk streams
    for bit_generator in (np.random.Philox, np.random.SFC64):
        rng, expect = (np.random.Generator(bit_generator(5)) for _ in range(2))
        g_hat, g_check, u, v = sample_gain_scalars(0, 3, 0, 50, rng)
        assert np.array_equal(g_check, expect.gamma(3, 1.0, size=50))
        for zeros in (g_hat, u, v):
            assert zeros.shape == (50,) and not np.any(zeros) and not np.any(np.signbit(zeros))
        assert np.array_equal(rng.random(20), expect.random(20))


def test_sample_channel_contract():
    # shapes, the xi order of the gain columns and their reductions, u = 0
    # without a common path, and bit-identical arrays from the same seed
    def cols(g, xi, part):
        return g[:, [xi.index(i) for i in part]]

    n = 500
    for n_c in (6, 0):
        sets = sample_path_sets(64, 12, 10, n_c, np.random.Generator(np.random.Philox(11)))
        g_d, g_e, draw = sample_channel(sets, n, np.random.Generator(np.random.Philox(12)))
        assert g_d.shape == (n, 12) and g_e.shape == (n, 10)
        assert all(getattr(draw, k).shape == (n,) for k in ("G_hat", "G_check", "u", "v"))

        # recomputed in another summation order, hence to rounding only
        hat_d, hat_e = cols(g_d, sets.xi_d, sets.xi_c), cols(g_e, sets.xi_e, sets.xi_c)
        np.testing.assert_allclose(draw.G_hat, np.sum(np.abs(hat_d) ** 2, axis=1), rtol=1e-13)
        np.testing.assert_allclose(draw.G_check, np.sum(np.abs(cols(g_d, sets.xi_d, sets.xi_p)) ** 2, axis=1), rtol=1e-13)
        np.testing.assert_allclose(draw.v, np.sum(np.abs(cols(g_e, sets.xi_e, sets.xi_a)) ** 2, axis=1), rtol=1e-13)
        if n_c:
            u = np.abs(np.sum(hat_e * hat_d.conj(), axis=1)) ** 2 / draw.G_hat
            np.testing.assert_allclose(draw.u, u, rtol=1e-12)
        else:
            assert np.all(draw.u == 0.0) and np.all(draw.G_hat == 0.0)

        # column by column, the blocks in their documented draw order
        blocks = np.random.Generator(np.random.Philox(12))
        for g, xi, part in ((g_d, sets.xi_d, sets.xi_c), (g_d, sets.xi_d, sets.xi_p),
                            (g_e, sets.xi_e, sets.xi_c), (g_e, sets.xi_e, sets.xi_a)):
            np.testing.assert_array_equal(cols(g, xi, part), complex_normal((n, len(part)), blocks))

        again = sample_channel(sets, n, np.random.Generator(np.random.Philox(12)))
        np.testing.assert_array_equal(again[0], g_d)
        np.testing.assert_array_equal(again[1], g_e)
        for k in ("G_hat", "G_check", "u", "v"):
            np.testing.assert_array_equal(getattr(again[2], k), getattr(draw, k))


def test_complex_normal_keeps_the_bits_of_the_complex_expression():
    # one (2,) + shape draw scaled into a float buffer gives the bits of the
    # complex expression on a same-seeded generator, real parts first
    for shape in (1000, (6, 500), (0,)):
        drawn = complex_normal(shape, np.random.Generator(np.random.Philox(31)))
        rng = np.random.Generator(np.random.Philox(31))
        expected = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
        assert drawn.shape == expected.shape and drawn.dtype == expected.dtype
        assert drawn.view(float).tobytes() == expected.view(float).tobytes()


def test_an_beamformer_nulls_destination(rng):
    m = 64
    w = build_basis(m)
    for _ in range(20):
        sets = sample_path_sets(m, 10, 8, 4, rng)
        g_d, _, _ = sample_channel(sets, 1, rng)
        h_d = channel_row(w, sets.xi_d, g_d[0], 1e-9)
        f1, f_an = an_beamformer(w, sets, h_d)
        assert abs(np.linalg.norm(f1) - 1.0) < 1e-12
        assert f_an.shape == (m, len(sets.xi_a))
        leak = np.linalg.norm(h_d @ f_an)
        assert leak <= 1e-10 * np.linalg.norm(h_d)


def test_an_beamformer_empty_an_space(rng):
    m = 16
    w = build_basis(m)
    sets = sample_path_sets(m, 4, 4, 4, rng)  # xi_a empty
    h_d = channel_row(w, sets.xi_d, np.ones(4, dtype=complex), 1.0)
    _, f_an = an_beamformer(w, sets, h_d)
    assert f_an.shape == (m, 0)


def test_an_beamformer_degenerate_channel():
    w = build_basis(8)
    sets = PathSets(xi_d=(1, 2), xi_e=(2, 3))
    with pytest.raises(DegenerateChannelError):
        an_beamformer(w, sets, np.zeros(8, dtype=complex))


def test_channel_row_scale():
    w = build_basis(4)
    gains = np.array([1.0 + 0j, 1.0 + 0j])
    h = channel_row(w, [1, 2], gains, 0.25)
    # norm^2 = M * alpha / N * |gains|^2 = 4 * 0.25 / 2 * 2 = 1
    assert abs(np.linalg.norm(h) ** 2 - 1.0) < 1e-12

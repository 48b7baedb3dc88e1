"""Instance generators: determinism, structure, and value ranges."""


import pytest

import zxpoly as zx


class TestRandomPoly:
    def test_empty(self):
        assert len(zx.random_poly(4, 0, 4, seed=0)) == 0

    def test_deterministic(self):
        a = zx.random_poly(4, 10, 4, seed=7)
        b = zx.random_poly(4, 10, 4, seed=7)
        assert a == b
        assert a != zx.random_poly(4, 10, 4, seed=8)

    def test_leg_count_bounds(self):
        poly = zx.random_poly(6, 1000, 3, seed=1)
        assert len(poly) == 1000
        counts = {g.legs.bit_count() for g in poly}
        assert counts == {1, 2, 3}
        assert all(0 < g.legs < 1 << 6 for g in poly)

    def test_phase_grid(self):
        poly = zx.random_poly(5, 500, 4, seed=2)
        for g in poly:
            assert (g.phase.as_fraction() * 4).denominator == 1
            assert not g.phase.is_zero()

    def test_max_legs_validated(self):
        with pytest.raises(ValueError):
            zx.random_poly(3, 5, 4, seed=0)


class TestMaxcut:
    def test_triangle_single_layer(self):
        poly = zx.maxcut_qaoa(3, 1.0, 1, seed=0)
        z = [g for g in poly if g.basis == "Z"]
        x = [g for g in poly if g.basis == "X"]
        assert len(z) == 3 and len(x) == 3
        assert all(g.legs.bit_count() == 2 for g in z)
        assert all(g.legs.bit_count() == 1 for g in x)
        # cost gadgets come before the mixer within the layer
        assert [g.basis for g in poly] == ["Z"] * 3 + ["X"] * 3

    def test_no_edges_only_mixers(self):
        poly = zx.maxcut_qaoa(4, 0.0, 2, seed=1)
        assert all(g.basis == "X" for g in poly)
        assert len(poly) == 8

    def test_layer_scaling(self):
        one = zx.maxcut_qaoa(5, 0.6, 1, seed=3)
        three = zx.maxcut_qaoa(5, 0.6, 3, seed=3)
        assert len(three) == 3 * len(one)

    def test_angles_shared_within_layer(self):
        poly = zx.maxcut_qaoa(6, 0.9, 2, seed=4)
        layers: dict[tuple[str, int], set] = {}
        size = len(poly) // 2
        for i, g in enumerate(poly):
            layers.setdefault((g.basis, i // size), set()).add(g.phase)
        for phases in layers.values():
            assert len(phases) == 1

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            zx.maxcut_qaoa(1, 0.5, 1, seed=0)
        with pytest.raises(ValueError):
            zx.maxcut_qaoa(3, 1.5, 1, seed=0)
        with pytest.raises(ValueError):
            zx.maxcut_qaoa(3, 0.5, 0, seed=0)

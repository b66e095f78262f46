"""MacWilliams transform, invariant kernels, and enumerator reconstruction."""

from fractions import Fraction

import pytest

from ptml.pauli import StabilizerGroup, from_label, state_catalog
from ptml.enumerators import ghz_sl_vector, sl_enumerators
from ptml.gleason import (
    ame6_vector,
    bell_vector,
    is_type2,
    macwilliams,
    psi0_vector,
    pure_kernel_basis,
    reconstruct_enumerators,
    sl_convolve,
    ttilde,
    type2_kernel_basis,
    vacuum_vector,
)


def test_macwilliams_n1_entries():
    assert macwilliams(1).entries == (
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(3, 2), Fraction(-1, 2)),
    )


def test_macwilliams_is_involution():
    for n in range(1, 11):
        m = macwilliams(n)
        assert m.mul(m).is_identity()


def test_macwilliams_apply_shape():
    m = macwilliams(2)
    with pytest.raises(ValueError):
        m.apply((1, 0))  # length must be n+1
    with pytest.raises(ValueError):
        m.mul(macwilliams(3))


def test_pure_state_vectors_are_fixed_points():
    for name, n in [("ghz", 2), ("ghz", 6), ("zero", 3), ("bell_pairs", 4), ("ame6", 6)]:
        a = sl_enumerators(state_catalog(name, n))
        assert macwilliams(n).apply(a.values) == a.values


def test_fixed_vectors():
    assert vacuum_vector().values == (Fraction(1),)
    assert psi0_vector().values == (Fraction(1, 2), Fraction(1, 2))
    assert bell_vector().values == (Fraction(1, 4), 0, Fraction(3, 4))
    assert ame6_vector().values == tuple(Fraction(c, 64) for c in (1, 0, 0, 0, 45, 0, 18))
    assert bell_vector().values == ghz_sl_vector(2).values


def test_pure_kernel_dimensions():
    for n in range(1, 13):
        assert len(pure_kernel_basis(n)) == (n + 2) // 2


def test_type2_kernel_dimensions():
    want = {2: 1, 4: 1, 6: 2, 8: 2, 10: 2, 12: 3}
    for n, d in want.items():
        assert len(type2_kernel_basis(n)) == d
    with pytest.raises(ValueError):
        type2_kernel_basis(3)


def test_pure_kernel_vectors_are_macwilliams_fixed():
    for n in (2, 5, 8, 12):
        m = macwilliams(n)
        for v in pure_kernel_basis(n):
            assert m.apply(v.values) == v.values


def test_type2_kernel_vectors_fixed_by_both_transforms():
    for n in (2, 6, 10, 12):
        m = macwilliams(n)
        t = ttilde(n)
        for v in type2_kernel_basis(n):
            assert m.apply(v.values) == v.values
            assert t.apply(v.values) == v.values


def test_is_type2():
    assert is_type2(bell_vector())
    assert is_type2(ame6_vector())
    assert not is_type2(psi0_vector())
    # even-n GHZ only has even-weight support, so it is type-II too
    assert is_type2(ghz_sl_vector(4))
    # |00> is pure but has odd-weight support, hence not type-II
    assert not is_type2(sl_enumerators(state_catalog("zero", 2)))


def test_sl_convolve_matches_product_state():
    conv = sl_convolve(bell_vector(), psi0_vector())
    g3 = StabilizerGroup(3, (from_label("XXI"), from_label("ZZI"), from_label("IIZ")))
    assert conv.values == sl_enumerators(g3).values


def test_sl_convolve_with_vacuum_is_identity():
    a = ghz_sl_vector(4)
    assert sl_convolve(a, vacuum_vector()).values == a.values


def test_sl_convolve_commutes():
    a, b = bell_vector(), psi0_vector()
    assert sl_convolve(a, b).values == sl_convolve(b, a).values


def test_reconstruct_ame6_from_two_entries():
    got = reconstruct_enumerators({0: Fraction(1, 64), 2: 0}, 6, type2=True)
    assert got.values == ame6_vector().values


def test_reconstruct_ghz6_from_low_weights():
    ghz6 = ghz_sl_vector(6)
    known = {w: ghz6.values[w] for w in (0, 1, 2, 3)}
    assert reconstruct_enumerators(known, 6).values == ghz6.values


def test_reconstruct_accepts_redundant_consistent_data():
    ghz6 = ghz_sl_vector(6)
    known = {w: ghz6.values[w] for w in range(7)}
    assert reconstruct_enumerators(known, 6).values == ghz6.values


def test_reconstruct_underdetermined():
    with pytest.raises(ValueError, match="underdetermined"):
        reconstruct_enumerators({0: Fraction(1, 64)}, 6)


def test_reconstruct_inconsistent():
    with pytest.raises(ValueError, match="inconsistent"):
        reconstruct_enumerators({0: 1, 1: 1, 2: 1, 3: 1, 4: 0}, 6)


def test_reconstructed_vectors_are_valid_enumerators():
    # any reconstruction lands in the MacWilliams-fixed cone and sums to purity
    got = reconstruct_enumerators({0: Fraction(1, 64), 2: 0}, 6, type2=True)
    assert macwilliams(6).apply(got.values) == got.values
    assert sum(got.values) == 1  # pure state: purity one

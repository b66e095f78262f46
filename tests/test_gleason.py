"""MacWilliams transform, invariant kernels, and enumerator reconstruction."""

import math
from fractions import Fraction

import pytest

from ptml.cli import main
from ptml.pauli import StabilizerGroup, from_label, state_catalog
from ptml.enumerators import SLVector, ghz_sl_vector, sl_enumerators
from ptml.gleason import (
    ame6_vector,
    bell_vector,
    macwilliams,
    psi0_vector,
    pure_kernel_basis,
    reconstruct_enumerators,
    sl_convolve,
    ttilde,
    type2_kernel_basis,
)

# enumerators of the zero-qubit state, the unit of sl_convolve
VACUUM = SLVector(0, (Fraction(1),))


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


def test_sl_convolve_matches_product_state():
    conv = sl_convolve(bell_vector(), psi0_vector())
    g3 = StabilizerGroup(3, (from_label("XXI"), from_label("ZZI"), from_label("IIZ")))
    assert conv.values == sl_enumerators(g3).values


def test_sl_convolve_with_vacuum_is_identity():
    a = ghz_sl_vector(4)
    assert sl_convolve(a, VACUUM).values == a.values


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


# The Fraction constructions the integer code replaced, kept as oracles.


def _fraction_macwilliams(n):
    return tuple(tuple(Fraction(sum(math.comb(n - j, t) * 3**t * math.comb(j, i - t)
                                    * (-1) ** (i - t)
                                    for t in range(max(0, i - j), min(i, n - j) + 1)),
                                1 << n)
                       for j in range(n + 1))
                 for i in range(n + 1))


def _fraction_product(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                 for row in a)


def _fraction_convolve_power(parts):
    out = VACUUM
    for part, count in parts:
        for _ in range(count):
            out = sl_convolve(out, part)
    return out.values


def test_integer_transforms_match_fraction_oracle():
    for n in range(1, 11):
        m_want = _fraction_macwilliams(n)
        t_want = tuple(tuple(-v if j % 2 else v for j, v in enumerate(row))
                       for row in m_want)
        m, t = macwilliams(n), ttilde(n)
        assert m.entries == m_want
        assert t.entries == t_want
        for a, b, a_want, b_want in ((m, m, m_want, m_want),
                                     (m, t, m_want, t_want),
                                     (t, m, t_want, m_want),
                                     (t, t, t_want, t_want)):
            assert a.mul(b).entries == _fraction_product(a_want, b_want)
        # apply on mixed dyadic and non-dyadic rationals, ints included
        values = [Fraction(3 * i - n, 1 + i % 4 + i % 3) for i in range(n)] + [2]
        column = _fraction_product(m_want, [[v] for v in values])
        assert m.apply(values) == tuple(row[0] for row in column)


def test_integer_kernel_bases_match_fraction_convolution():
    for n in range(1, 13):
        want = [_fraction_convolve_power([(bell_vector(), i),
                                          (psi0_vector(), n - 2 * i)])
                for i in range(n // 2 + 1)]
        assert [v.values for v in pure_kernel_basis(n)] == want
        if n % 2 == 0:
            want = [_fraction_convolve_power([(ame6_vector(), i),
                                              (bell_vector(), (n - 6 * i) // 2)])
                    for i in range(n // 6 + 1)]
            assert [v.values for v in type2_kernel_basis(n)] == want


@pytest.mark.parametrize("n", range(1, 21))
def test_involution_and_kernels_up_to_twenty_qubits(n):
    m = macwilliams(n)
    assert m.mul(m).is_identity()
    assert not m.is_identity()
    unit = (1,) + (0,) * n
    assert m.apply(unit) != unit  # a mixed-state vector is not fixed
    for v in pure_kernel_basis(n):
        assert m.apply(v.values) == v.values
        assert sum(v.values) == 1
    if n % 2 == 0:
        t = ttilde(n)
        for v in type2_kernel_basis(n):
            assert m.apply(v.values) == v.values
            assert t.apply(v.values) == v.values


def test_gleason_cli_prints_every_check(capsys):
    for n in range(1, 17):
        want = ["PASS involution M^2 = 1", "PASS pure fixed-point basis"]
        if n % 2 == 0:
            want.append("PASS type-II fixed-point basis")
        if n == 6:
            want.append("PASS ame reconstruction from 2 entries")
        assert main(["gleason", "--n", str(n)]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines() == want
        assert err == ""

"""Exact n-qubit Pauli and stabilizer-group algebra.

Pauli strings are encoded symplectically: two n-bit integer masks (x_mask,
z_mask) plus a phase exponent mod 4.  The phase convention is *relative to
the Hermitian pattern*: the encoded operator is

    i^phase_exp * (tensor product over qubits of I, X, Y, Z),

where a qubit with both the x and the z bit set contributes a Y factor
(Y = iXZ, with the i absorbed into the pattern).  Under this convention an
operator is Hermitian iff phase_exp is 0 or 2, and squaring any string gives
+identity or -identity, never +-i.

Bit a of a mask (LSB = qubit 1) corresponds to qubit a+1; qubit labels in
bipartitions are 1-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass


_PAULI_CHARS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_PHASE_STR = {0: "", 1: "i*", 2: "-", 3: "-i*"}


@dataclass(frozen=True)
class PauliString:
    """A signed n-qubit Pauli operator in symplectic encoding."""

    n: int
    x_mask: int
    z_mask: int
    phase_exp: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"negative qubit count {self.n}")
        if not (0 <= self.x_mask < (1 << self.n)
                and 0 <= self.z_mask < (1 << self.n)):
            raise ValueError(f"masks out of range for n={self.n}")
        if self.phase_exp not in (0, 1, 2, 3):
            raise ValueError(f"phase exponent {self.phase_exp} not in 0..3")

    def __str__(self):
        chars = []
        for a in range(self.n):
            xa = (self.x_mask >> a) & 1
            za = (self.z_mask >> a) & 1
            chars.append(_PAULI_CHARS[(xa, za)])
        return _PHASE_STR[self.phase_exp] + "".join(chars)

    @property
    def is_identity_pattern(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0


@dataclass(frozen=True)
class Bipartition:
    """A bipartition A|B of qubits 1..n; a_set holds the 1-based A side."""

    n: int
    a_set: frozenset[int]

    def __post_init__(self):
        if not all(1 <= a <= self.n for a in self.a_set):
            raise ValueError(f"cut qubits must lie in 1..{self.n}")

    def check(self, n: int) -> "Bipartition":
        """self, once it is a cut of n qubits (either side may be empty)."""
        if self.n != n:
            raise ValueError(f"the cut is on {self.n} qubits, the state on {n}")
        return self

    @property
    def a_mask(self) -> int:
        m = 0
        for a in self.a_set:
            m |= 1 << (a - 1)
        return m

    @classmethod
    def balanced(cls, n: int) -> "Bipartition":
        if n % 2:
            raise ValueError("no default bipartition for odd n; pass a cut")
        return cls(n, frozenset(range(1, n // 2 + 1)))


def from_label(label: str) -> PauliString:
    """Parse e.g. 'XIZY', '-YY', 'i*XZ' into a PauliString."""
    phase = 0
    if label.startswith("-i*"):
        phase, label = 3, label[3:]
    elif label.startswith("i*"):
        phase, label = 1, label[2:]
    elif label.startswith("-"):
        phase, label = 2, label[1:]
    x_mask = z_mask = 0
    for a, ch in enumerate(label):
        if ch == "X":
            x_mask |= 1 << a
        elif ch == "Y":
            x_mask |= 1 << a
            z_mask |= 1 << a
        elif ch == "Z":
            z_mask |= 1 << a
        elif ch != "I":
            raise ValueError(f"bad Pauli character {ch!r}")
    return PauliString(len(label), x_mask, z_mask, phase)


def identity(n: int) -> PauliString:
    return PauliString(n, 0, 0, 0)


def weight(p: PauliString) -> int:
    """Number of non-identity tensor factors."""
    return (p.x_mask | p.z_mask).bit_count()


def multiply(p: PauliString, q: PauliString) -> PauliString:
    """Operator product p*q with exact phase tracking mod 4.

    Writing each string as i^e * prod_a P_a with P_a in {I,X,Y,Z}, the
    product picks up i from every Y factor unpacked into XZ, -1 from every
    anticommuting ZX swap, and -i from every Y repacked on the way out.
    """
    if p.n != q.n:
        raise ValueError(f"qubit counts differ: {p.n} != {q.n}")
    x3 = p.x_mask ^ q.x_mask
    z3 = p.z_mask ^ q.z_mask
    e = p.phase_exp + q.phase_exp
    e += (p.x_mask & p.z_mask).bit_count()          # unpack Y = iXZ in p
    e += (q.x_mask & q.z_mask).bit_count()          # unpack Y in q
    e += 2 * (p.z_mask & q.x_mask).bit_count()      # swap p's Z past q's X
    e -= (x3 & z3).bit_count()                      # repack XZ = -iY
    return PauliString(p.n, x3, z3, e % 4)


def theta(p: PauliString, bip: Bipartition) -> int:
    """Sign picked up by p under partial transposition on A.

    Transposing a single-qubit factor flips Y and fixes I, X, Z, so the
    sign is (-1)^(number of Y factors inside A).  The phase of p is
    irrelevant here; only the pattern matters.  The oracle of the PT signs
    of enumerators._element_tables.
    """
    y_in_a = p.x_mask & p.z_mask & bip.a_mask
    return -1 if y_in_a.bit_count() & 1 else 1


@dataclass(frozen=True)
class StabilizerGroup:
    """Abelian group of 2^n signed Pauli strings, given by n generators.

    Generators must pairwise commute, be independent over GF(2), and be
    Hermitian (phase_exp 0 or 2); together with independence this already
    rules out -identity appearing in the group.
    """

    n: int
    generators: tuple[PauliString, ...]

    def __post_init__(self):
        if len(self.generators) != self.n:
            raise ValueError(f"need {self.n} generators, "
                             f"got {len(self.generators)}")
        for g in self.generators:
            if g.n != self.n:
                raise ValueError(f"generator {g} is not on {self.n} qubits")
            if g.phase_exp not in (0, 2):
                raise ValueError(f"generator {g} is not Hermitian")
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if not _commute(self.generators[i], self.generators[j]):
                    raise ValueError(f"generators {i} and {j} anticommute")
        if not _independent(self.generators):
            raise ValueError("generators dependent over GF(2)")


def _commute(p: PauliString, q: PauliString) -> bool:
    # symplectic form: p, q commute iff <p,q> = x_p.z_q + z_p.x_q = 0 mod 2
    s = (p.x_mask & q.z_mask).bit_count() + (p.z_mask & q.x_mask).bit_count()
    return s % 2 == 0


def _independent(gens: tuple[PauliString, ...]) -> bool:
    rows = [(g.x_mask << g.n) | g.z_mask for g in gens]
    return _gf2_rank(rows) == len(rows)


def _gf2_rank(rows: list[int]) -> int:
    rank = 0
    basis = []
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis.append(r)
            basis.sort(reverse=True)
            rank += 1
    return rank


def enumerate_group(g: StabilizerGroup) -> list[PauliString]:
    """All 2^n group elements, ordered by generator-subset bitmask.

    Element at index b is the product g_1^{b_1} * g_2^{b_2} * ... taken in
    ascending generator order, signs included.
    """
    elements = [identity(g.n)]
    for i, gen in enumerate(g.generators):
        # extend: block b has bit i clear, block b | (1<<i) has it set
        new = [multiply(e, gen) for e in elements]
        elements = elements + new
    for e in elements:
        if e.is_identity_pattern and e.phase_exp != 0:
            raise ValueError("-identity found in group: generators invalid")
    return elements


def state_catalog(name: str, n: int) -> StabilizerGroup:
    """Stabilizer groups for the standard state families.

    ghz:        X^n and nearest-neighbour ZZ
    zero:       single-qubit Z on every site (|0...0>)
    bell_pairs: XX and ZZ on qubit pairs (1,2), (3,4), ...
    ame6:       the six-qubit absolutely maximally entangled state built
                from the cyclic five-qubit code: its four stabilizers
                XZZXI shifted onto qubits 2..6, plus X (x) X^4... logical
                pairs X(x)XXXXX and Z(x)ZZZZZ
    """
    if name == "ghz":
        if n < 2:
            raise ValueError("ghz requires n >= 2")
        gens = [PauliString(n, (1 << n) - 1, 0, 0)]
        for i in range(n - 1):
            gens.append(PauliString(n, 0, 0b11 << i, 0))
    elif name == "zero":
        if n < 1:
            raise ValueError("zero requires n >= 1")
        gens = [PauliString(n, 0, 1 << i, 0) for i in range(n)]
    elif name == "bell_pairs":
        if n < 2 or n % 2:
            raise ValueError("bell_pairs requires even n >= 2")
        gens = []
        for i in range(0, n, 2):
            gens.append(PauliString(n, 0b11 << i, 0, 0))
            gens.append(PauliString(n, 0, 0b11 << i, 0))
    elif name == "ame6":
        if n != 6:
            raise ValueError("ame6 requires n = 6")
        gens = []
        # cyclic five-qubit-code stabilizers XZZXI on qubits 2..6
        for s in range(4):
            label = ["I"] * 6
            for off, ch in zip(range(4), "XZZX"):
                label[1 + (s + off) % 5] = ch
            gens.append(from_label("".join(label)))
        gens.append(from_label("XXXXXX"))
        gens.append(from_label("ZZZZZZ"))
    else:
        raise ValueError(f"unknown catalog state {name!r}")
    return StabilizerGroup(n, tuple(gens))


def bell_pair_rank(g: StabilizerGroup, bip: Bipartition) -> int:
    """Number of Bell pairs across A|B; log2 of the Schmidt rank.

    r = |A| - log2 |subgroup supported on A|.  The subgroup order is found
    from the GF(2) rank of the generators restricted to B: products landing
    in the kernel of that restriction are exactly the elements trivial on B.
    """
    b_mask = ((1 << g.n) - 1) ^ bip.check(g.n).a_mask
    rows = [((gen.x_mask & b_mask) << g.n) | (gen.z_mask & b_mask)
            for gen in g.generators]
    rank_b = _gf2_rank(rows)
    n_a = bip.a_mask.bit_count()
    # kernel dimension n - rank_b = log2 of the A-supported subgroup order
    return n_a - (g.n - rank_b)


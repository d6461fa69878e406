"""Worked decomposition/noise pairs with known verdicts, for tests and demos.

Every entry carries a decomposition, a trace-preserving noise channel, the
expected verdict of each correctability condition, and a short note. The
first four entries are correctable by construction; the last is a designed
failure. An optional ninth-qubit subsystem-code entry (dim_v = 512) is kept
behind the extended flag because of its size. Every code sector is written
down in closed form as code columns, so no frame depends on a solver's basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import PAULI_Z, Channel, _on_site, collective_unitary, restricted_flip
from .linalg import haar_unitary, kron
from .spaces import Decomposition

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    name: str
    dec: Decomposition
    noise: Channel
    expected: dict
    note: str


def _bit_flip_3() -> CatalogEntry:
    # code words |000>, |111>
    dec = Decomposition(dim_a=2, dim_b=1, dim_c=6, frame=np.eye(8)[:, [0, 7]])
    return CatalogEntry(
        name="bit_flip_3",
        dec=dec,
        noise=restricted_flip(3, 0.1),
        expected={"b": True, "c": True, "d": True},
        note="three-qubit repetition code against single bit flips",
    )


def _phase_flip_3() -> CatalogEntry:
    frame = kron(HADAMARD, HADAMARD, HADAMARD)[:, [0, 7]]
    dec = Decomposition(dim_a=2, dim_b=1, dim_c=6, frame=frame)
    kraus = [np.sqrt(0.7) * np.eye(8)]
    kraus += [np.sqrt(0.1) * _on_site(3, site, PAULI_Z) for site in range(3)]
    return CatalogEntry(
        name="phase_flip_3",
        dec=dec,
        noise=Channel(tuple(kraus)),
        expected={"b": True, "c": True, "d": True},
        note="Hadamard twin of bit_flip_3: |+++>, |---> against single phase flips",
    )


def _dfs_2qubit_dephasing() -> CatalogEntry:
    # decoherence-free pair |01>, |10> under collective dephasing
    dec = Decomposition(dim_a=2, dim_b=1, dim_c=2, frame=np.eye(4)[:, [1, 2]])
    noise = collective_unitary(2, [(0.5, np.eye(2)), (0.5, PAULI_Z)])
    return CatalogEntry(
        name="dfs_2qubit_dephasing",
        dec=dec,
        noise=noise,
        expected={"b": True, "c": True, "d": True},
        note="noise acts as a pure phase on the code sector; identity already recovers",
    )


def _spin_coupling_frame() -> np.ndarray:
    """The two j=1/2 doublets of three qubits' total spin, ordered (multiplicity,
    spin) pairs: they span A tensor B, and C is the j=3/2 quadruplet."""
    s2, s6 = np.sqrt(2.0), np.sqrt(6.0)
    f = np.zeros((8, 4))
    # doublet from the (12)-singlet: (|010> - |100>)/sqrt2 x {|0>, |1>} on qubit 3
    f[[2, 4], 0] = [1 / s2, -1 / s2]
    f[[3, 5], 1] = [1 / s2, -1 / s2]
    # doublet from the (12)-triplet, Clebsch-Gordan 1 x 1/2 -> 1/2
    f[[1, 2, 4], 2] = [np.sqrt(2.0 / 3.0), -1 / s6, -1 / s6]
    f[[3, 5, 6], 3] = [1 / s6, 1 / s6, -np.sqrt(2.0 / 3.0)]
    return f


def _ns_3qubit_collective() -> CatalogEntry:
    rng = np.random.default_rng(11)
    terms = []
    for w in (0.5, 0.3, 0.2):
        u = haar_unitary(2, rng)
        u = u * np.linalg.det(u) ** -0.5  # special-unitary representative
        terms.append((w, u))
    dec = Decomposition(dim_a=2, dim_b=2, dim_c=4, frame=_spin_coupling_frame())
    return CatalogEntry(
        name="ns_3qubit_collective",
        dec=dec,
        noise=collective_unitary(3, terms),
        expected={"b": True, "c": True, "d": True},
        note="noiseless subsystem: collective rotations act only on the spin factor B",
    )


def _bitflip_3_vs_z() -> CatalogEntry:
    dec = Decomposition(dim_a=2, dim_b=1, dim_c=6, frame=np.eye(8)[:, [0, 7]])
    kraus = (
        np.sqrt(0.5) * np.eye(8),
        np.sqrt(0.5) * _on_site(3, 0, PAULI_Z),
    )
    return CatalogEntry(
        name="bitflip_3_vs_z",
        dec=dec,
        noise=Channel(kraus),
        expected={"b": False, "c": False, "d": False},
        note="repetition code against a phase error it cannot see: fails everything",
    )


def _bacon_shor_9() -> CatalogEntry:
    """3x3 subsystem code: one protected qubit, four gauge qubits.

    The frame is written down from the CSS codewords. Site (r, c) is qubit
    3r + c, site 0 the most significant bit of a basis index x. The Z-type
    stabilizers (Z on two adjacent columns) fix the three column parities to
    one common value, which logical Z (Z on column 0) reads. The X-type
    stabilizers (X on two adjacent rows) form the group {0, rows 0+1,
    rows 1+2, rows 0+2} of bit masks, which splits the 64 strings with even
    column parities into 16 orbits, ordered by their smallest member. Code
    vector (0, b) puts 1/2 on each string of orbit b, and (1, b) is X on
    row 0 applied to it, the index map x -> x ^ row 0. Column a*16 + b of
    the frame is code vector (a, b); C is the orthogonal complement.
    """
    x = np.arange(2**9)
    bits = (x[:, None] >> np.arange(8, -1, -1)) & 1  # bits[x, 3r + c]
    even = x[(bits.reshape(-1, 3, 3).sum(axis=1) % 2 == 0).all(axis=1)]
    row = [0b111 << 3 * (2 - r) for r in range(3)]
    gauge = np.array([0, row[0] ^ row[1], row[1] ^ row[2], row[0] ^ row[2]])
    # each sorted orbit starts with its smallest member, so unique orders them
    orbits = np.unique(np.sort(even[:, None] ^ gauge, axis=1), axis=0)  # (16, 4)
    code_cols = np.zeros((2**9, 32))
    for a in (0, 1):
        code_cols[orbits ^ (a * row[0]), a * 16 + np.arange(16)[:, None]] = 0.5
    dec = Decomposition(dim_a=2, dim_b=16, dim_c=480, frame=code_cols)
    return CatalogEntry(
        name="bacon_shor_9",
        dec=dec,
        noise=restricted_flip(9, 0.01),
        expected={"b": True, "c": True, "d": True},
        note="nine-qubit subsystem code; same-column flips differ by gauge only",
    )


_BUILDERS = {
    "bit_flip_3": _bit_flip_3,
    "phase_flip_3": _phase_flip_3,
    "dfs_2qubit_dephasing": _dfs_2qubit_dephasing,
    "ns_3qubit_collective": _ns_3qubit_collective,
    "bitflip_3_vs_z": _bitflip_3_vs_z,
}

_EXTENDED_BUILDERS = {
    "bacon_shor_9": _bacon_shor_9,
}


def catalog(extended: bool = False) -> list:
    """All catalog entries; pass extended=True to include the large ones."""
    entries = [build() for build in _BUILDERS.values()]
    if extended:
        entries += [build() for build in _EXTENDED_BUILDERS.values()]
    return entries


def get(name: str) -> CatalogEntry:
    """Look up one entry by name (extended entries included)."""
    builder = _BUILDERS.get(name) or _EXTENDED_BUILDERS.get(name)
    if builder is None:
        known = ", ".join([*_BUILDERS, *_EXTENDED_BUILDERS])
        raise ValueError(f"unknown catalog entry {name!r}; known: {known}")
    return builder()

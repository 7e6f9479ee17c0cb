"""Single-qubit Pauli operators and their multiplication table.

The rest of the package represents a Pauli string as a pair of bitmasks
``(x_mask, z_mask)`` — qubit ``i`` carries ``X`` when bit ``i`` of ``x_mask``
is set, ``Z`` when bit ``i`` of ``z_mask`` is set, and ``Y`` when both are
set.  This module holds the scalar, human-facing side of that encoding:
labels and the single-operator product table used by tests.  The dense
2x2 matrices live in :mod:`repro.paulis.matrices`, so the compile path never
needs numpy.
"""

from __future__ import annotations

#: Canonical operator labels indexed by ``(x_bit, z_bit)`` packed as ``x + 2*z``.
LABELS = ("I", "X", "Z", "Y")

#: ``PRODUCTS[(a, b)] == (phase, c)`` with ``a @ b == phase * c``.
PRODUCTS = {
    ("I", "I"): (1, "I"), ("I", "X"): (1, "X"), ("I", "Y"): (1, "Y"), ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"), ("X", "X"): (1, "I"), ("X", "Y"): (1j, "Z"), ("X", "Z"): (-1j, "Y"),
    ("Y", "I"): (1, "Y"), ("Y", "X"): (-1j, "Z"), ("Y", "Y"): (1, "I"), ("Y", "Z"): (1j, "X"),
    ("Z", "I"): (1, "Z"), ("Z", "X"): (1j, "Y"), ("Z", "Y"): (-1j, "X"), ("Z", "Z"): (1, "I"),
}


def xz_bits(label: str) -> tuple[int, int]:
    """Return the ``(x_bit, z_bit)`` pair for a single-operator label."""
    if label not in LABELS:
        raise ValueError(f"not a Pauli operator label: {label!r}")
    x_bit = int(label in ("X", "Y"))
    z_bit = int(label in ("Z", "Y"))
    return x_bit, z_bit


def label_from_bits(x_bit: int, z_bit: int) -> str:
    """Return the operator label for an ``(x_bit, z_bit)`` pair."""
    return LABELS[(x_bit & 1) + 2 * (z_bit & 1)]


def operators_anticommute(a: str, b: str) -> bool:
    """True when two single-qubit operators anticommute.

    This is the truth table of the paper's ``acomm`` (Table 2): distinct
    non-identity operators anticommute, everything else commutes.
    """
    return a != "I" and b != "I" and a != b

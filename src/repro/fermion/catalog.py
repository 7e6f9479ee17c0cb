"""The model catalog: build a Hamiltonian from a ``family[:params]`` spec.

One spec grammar shared by every front door — the CLI (``--model``),
batch job files, and the compilation service's wire format — so a job
means the same thing whether it arrives on argv, in a JSON file, or over
HTTP.

Specs::

    h2                 the paper's H2 molecule (4 modes)
    hubbard:<n>        Hubbard chain with <n> sites
    hubbard:<r>x<c>    Hubbard lattice
    syk:<n>            SYK model with <n> modes
    electronic:<n>     random molecular Hamiltonian
    tv:<sites>         spinless t-V chain
"""

from __future__ import annotations

from repro.fermion.hamiltonians import FermionicHamiltonian
from repro.fermion.hubbard import hubbard_chain, hubbard_lattice
from repro.fermion.spinless import tv_chain

#: One-line spec grammar, shared by CLI help strings.
MODEL_SPEC_HELP = (
    "h2 | hubbard:<n> | hubbard:<r>x<c> | syk:<n> | electronic:<n> | tv:<sites>"
)


def parse_model(spec: str) -> FermionicHamiltonian:
    """Build a Hamiltonian from a ``family[:params]`` spec string."""
    family, _, parameter = spec.partition(":")
    family = family.lower()
    # The molecular and SYK builders need numpy; import them only when a
    # spec asks for them, so lattice and mode-count compiles never do.
    if family == "h2":
        from repro.fermion.molecules import h2_hamiltonian

        return h2_hamiltonian()
    if family == "hubbard":
        if not parameter:
            raise ValueError("hubbard needs sites: hubbard:3 or hubbard:2x2")
        if "x" in parameter:
            rows, cols = (int(part) for part in parameter.split("x", 1))
            return hubbard_lattice(rows, cols)
        return hubbard_chain(int(parameter))
    if family == "syk":
        if not parameter:
            raise ValueError("syk needs a mode count: syk:4")
        from repro.fermion.syk import syk_hamiltonian

        return syk_hamiltonian(int(parameter))
    if family == "electronic":
        if not parameter:
            raise ValueError("electronic needs a mode count: electronic:6")
        from repro.fermion.molecules import random_molecular_hamiltonian

        return random_molecular_hamiltonian(int(parameter))
    if family == "tv":
        if not parameter:
            raise ValueError("tv needs a site count: tv:4")
        return tv_chain(int(parameter))
    raise ValueError(f"unknown model family: {family!r}")

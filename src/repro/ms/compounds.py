"""Compound library: electron-ionization fragmentation line spectra.

The paper's Tool 1 starts from "the known ideal line spectra of the
substances contained in the mixture".  This module provides a library of
textbook 70 eV EI fragmentation patterns for the small gases relevant to
the paper's gas-mixing evaluation (the MMS prototype analyzed gas mixtures
produced by mass flow controllers, with N2/O2/Ar/CO2/H2O/CH4/... type
compounds).  Intensities are relative to the base peak (100).

The exact values are approximate library patterns; for the reproduction
only the positions and rough relative intensities matter — the toolchain is
agnostic to the specific compounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

__all__ = ["Compound", "CompoundLibrary", "default_library", "check_compounds",
           "DEFAULT_TASK_COMPOUNDS"]


@dataclass(frozen=True)
class Compound:
    """A chemical compound with its EI-MS line spectrum.

    ``lines`` maps m/z -> relative intensity (base peak = 100).
    """

    name: str
    formula: str
    molecular_weight: float
    lines: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        if not self.lines:
            raise ValueError(f"{self.name}: a compound needs at least one line")
        for mz, intensity in self.lines:
            if mz <= 0:
                raise ValueError(f"{self.name}: non-positive m/z {mz}")
            if intensity <= 0:
                raise ValueError(f"{self.name}: non-positive intensity {intensity}")

    @property
    def base_peak_mz(self) -> float:
        return max(self.lines, key=lambda line: line[1])[0]

    def normalized_lines(self) -> Tuple[Tuple[float, float], ...]:
        """Lines rescaled so the base peak has intensity 1.0."""
        peak = max(intensity for _, intensity in self.lines)
        return tuple((mz, intensity / peak) for mz, intensity in self.lines)

    def line_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        mz = np.array([m for m, _ in self.lines], dtype=np.float64)
        intensity = np.array([i for _, i in self.lines], dtype=np.float64)
        return mz, intensity / intensity.max()


class CompoundLibrary:
    """A named collection of compounds, looked up case-insensitively."""

    def __init__(self, compounds: Sequence[Compound] = ()):
        self._compounds: Dict[str, Compound] = {}
        for compound in compounds:
            self.add(compound)

    def add(self, compound: Compound) -> None:
        key = compound.name.lower()
        if key in self._compounds:
            raise ValueError(f"compound {compound.name!r} already registered")
        self._compounds[key] = compound

    def get(self, name: str) -> Compound:
        try:
            return self._compounds[name.lower()]
        except KeyError:
            raise KeyError(
                f"unknown compound {name!r}; known: {sorted(self.names)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._compounds

    def __iter__(self) -> Iterator[Compound]:
        return iter(self._compounds.values())

    def __len__(self) -> int:
        return len(self._compounds)

    @property
    def names(self) -> List[str]:
        return [c.name for c in self._compounds.values()]


def _c(name, formula, mw, lines) -> Compound:
    return Compound(name, formula, mw, tuple(lines))


# Approximate 70 eV EI patterns (m/z, relative intensity, base peak = 100).
_DEFAULT_COMPOUNDS = [
    _c("H2", "H2", 2.016, [(2, 100.0), (1, 2.1)]),
    _c("He", "He", 4.003, [(4, 100.0)]),
    _c("CH4", "CH4", 16.043, [(16, 100.0), (15, 85.8), (14, 15.6), (13, 7.8), (12, 2.4), (1, 3.1)]),
    _c("NH3", "NH3", 17.031, [(17, 100.0), (16, 80.0), (15, 7.5), (14, 2.0)]),
    _c("H2O", "H2O", 18.015, [(18, 100.0), (17, 21.2), (16, 0.9), (1, 0.5)]),
    _c("Ne", "Ne", 20.180, [(20, 100.0), (22, 9.9), (21, 0.3)]),
    _c("C2H2", "C2H2", 26.038, [(26, 100.0), (25, 20.1), (24, 5.6), (13, 2.2)]),
    _c("N2", "N2", 28.014, [(28, 100.0), (14, 7.2), (29, 0.7)]),
    _c("CO", "CO", 28.010, [(28, 100.0), (12, 4.7), (16, 1.7), (29, 1.2)]),
    _c("C2H4", "C2H4", 28.054, [(28, 100.0), (27, 62.3), (26, 52.9), (25, 7.8), (14, 2.1)]),
    _c("NO", "NO", 30.006, [(30, 100.0), (14, 7.5), (15, 2.4), (16, 1.5)]),
    _c("O2", "O2", 31.998, [(32, 100.0), (16, 11.4), (34, 0.4)]),
    _c("H2S", "H2S", 34.081, [(34, 100.0), (33, 42.0), (32, 44.4), (35, 2.5), (36, 4.2)]),
    _c("Ar", "Ar", 39.948, [(40, 100.0), (20, 14.6), (36, 0.3)]),
    _c("CO2", "CO2", 44.009, [(44, 100.0), (28, 9.8), (16, 9.6), (12, 8.7), (45, 1.2), (22, 1.9)]),
    _c("N2O", "N2O", 44.013, [(44, 100.0), (30, 31.1), (28, 10.8), (14, 12.9), (16, 5.0)]),
    _c("C3H8", "C3H8", 44.097, [(29, 100.0), (28, 59.1), (27, 37.9), (44, 27.4), (43, 22.3), (39, 16.2), (41, 13.4), (26, 8.4)]),
    _c("EtOH", "C2H6O", 46.069, [(31, 100.0), (45, 51.5), (46, 21.7), (27, 22.4), (29, 29.8), (43, 11.8)]),
]


def default_library() -> CompoundLibrary:
    """The built-in gas library (18 compounds)."""
    return CompoundLibrary(_DEFAULT_COMPOUNDS)


def check_compounds(names: Sequence[str]) -> None:
    """Raise ``ValueError`` on the first name the default library lacks."""
    library = default_library()
    for name in names:
        if name not in library:
            raise ValueError(f"unknown compound {name!r}; known: {sorted(library.names)}")


# The paper's measurement task mixes a fixed, pre-defined set of substances
# ("a network can only be used for a measurement task defined in advance").
# This 7-gas task, including O2 and H2O so the paper's humidity-confusion
# effect (Fig. 7) can be reproduced, is the default throughout the repo.
DEFAULT_TASK_COMPOUNDS = ("H2", "CH4", "N2", "O2", "Ar", "CO2", "H2O")

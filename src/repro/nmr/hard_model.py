"""Indirect Hard Modelling: parametric pure-component spectra.

"Based on a physical assumption (hard model), each component can be
described as a pure component, which is done with a series of Lorentz-Gauss
functions."  A :class:`PureComponentModel` is exactly that series; a
:class:`HardModelSet` bundles the models of all mixture components and can
evaluate a full mixture spectrum for arbitrary concentrations, with
per-component shift and broadening freedom (the two effects IHM handles
that plain linear combination of experimental spectra cannot).

The built-in model set :func:`mndpa_reaction_models` covers the paper's
lithiation reaction: p-toluidine, lithium p-toluidide (the Li-HMDS-activated
intermediate), 1-fluoro-2-nitrobenzene (o-FNB) and the MNDPA product, with
approximate 1H chemical shifts as seen on a 43 MHz benchtop instrument
(J-multiplets collapse into broadened single lines at medium resolution).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.nmr.lineshapes import pseudo_voigt_table

__all__ = [
    "ChemicalShiftAxis",
    "Peak",
    "PureComponentModel",
    "HardModelSet",
    "mndpa_reaction_models",
    "PAPER_SPECTRUM_POINTS",
]

# The paper's LSTM parameter count (221 956 with 32 units) pins the network
# input — and therefore the spectrum length — to exactly 1700 points.
PAPER_SPECTRUM_POINTS = 1700


@dataclass(frozen=True)
class ChemicalShiftAxis:
    """A uniform 1H chemical-shift axis in ppm (ascending)."""

    start: float = -0.5
    stop: float = 10.0
    points: int = PAPER_SPECTRUM_POINTS

    def __post_init__(self):
        if self.points < 2:
            raise ValueError(f"points must be >= 2, got {self.points}")
        if self.stop <= self.start:
            raise ValueError("stop must exceed start")

    @property
    def step(self) -> float:
        return (self.stop - self.start) / (self.points - 1)

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)

    def index_of(self, ppm: float) -> int:
        idx = int(np.round((ppm - self.start) / self.step))
        return int(np.clip(idx, 0, self.points - 1))


@dataclass(frozen=True)
class Peak:
    """One Lorentz-Gauss line of a hard model.

    ``area`` is proportional to the number of nuclei behind the signal
    (e.g. 3 for a CH3 singlet), ``fwhm`` in ppm, ``eta`` the Lorentzian
    fraction.
    """

    center: float
    area: float
    fwhm: float
    eta: float = 0.7

    def __post_init__(self):
        if self.area <= 0:
            raise ValueError(f"area must be positive, got {self.area}")
        if self.fwhm <= 0:
            raise ValueError(f"fwhm must be positive, got {self.fwhm}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")


@dataclass(frozen=True)
class PureComponentModel:
    """A pure component as a series of Lorentz-Gauss lines."""

    name: str
    peaks: Tuple[Peak, ...]

    def __post_init__(self):
        if not self.peaks:
            raise ValueError(f"{self.name}: a model needs at least one peak")

    def evaluate(
        self,
        axis: ChemicalShiftAxis,
        shift: float = 0.0,
        broadening: float = 1.0,
        concentration: float = 1.0,
        phase: float = 0.0,
        peak_shifts: Optional[Sequence[float]] = None,
    ) -> np.ndarray:
        """Spectrum of this component at unit (or given) concentration.

        ``shift`` moves every line (solvent/matrix effects), ``broadening``
        multiplies every width (temperature, shimming), ``phase`` is an
        uncorrected zero-order phase error, ``peak_shifts`` adds an extra
        per-line displacement (the IHM model class fits one shift per
        component; real lines scatter individually).  Output is in
        area-per-ppm units scaled by ``concentration``.
        """
        if broadening <= 0:
            raise ValueError(f"broadening must be positive, got {broadening}")
        if peak_shifts is not None and len(peak_shifts) != len(self.peaks):
            raise ValueError(
                f"peak_shifts needs {len(self.peaks)} entries, "
                f"got {len(peak_shifts)}"
            )
        centers = np.array([peak.center for peak in self.peaks]) + shift
        if peak_shifts is not None:
            centers = centers + np.asarray(peak_shifts, dtype=np.float64)
        table = pseudo_voigt_table(
            axis.values(),
            centers,
            np.array([peak.fwhm for peak in self.peaks]) * broadening,
            np.array([peak.eta for peak in self.peaks]),
            np.full(len(self.peaks), float(phase)),
        )
        out = np.zeros(axis.points)
        for peak, line in zip(self.peaks, table):
            out += peak.area * line
        return concentration * out

    @property
    def total_area(self) -> float:
        return float(sum(peak.area for peak in self.peaks))

    def shifted(self, delta: float) -> "PureComponentModel":
        """A copy with all line positions moved by ``delta`` ppm."""
        return PureComponentModel(
            self.name,
            tuple(replace(peak, center=peak.center + delta) for peak in self.peaks),
        )


class HardModelSet:
    """The hard models of every component in a mixture."""

    def __init__(self, models: Sequence[PureComponentModel], axis: Optional[ChemicalShiftAxis] = None):
        if not models:
            raise ValueError("at least one component model is required")
        names = [model.name for model in models]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate component names in {names}")
        self.models: Tuple[PureComponentModel, ...] = tuple(models)
        self.axis = axis if axis is not None else ChemicalShiftAxis()

    @property
    def names(self) -> List[str]:
        return [model.name for model in self.models]

    def __len__(self) -> int:
        return len(self.models)

    def __getitem__(self, name: str) -> PureComponentModel:
        for model in self.models:
            if model.name == name:
                return model
        raise KeyError(f"unknown component {name!r}; known: {self.names}")

    def pure_spectra(
        self,
        shifts: Optional[Sequence[float]] = None,
        broadenings: Optional[Sequence[float]] = None,
    ) -> np.ndarray:
        """(n_components, points) matrix of unit-concentration spectra."""
        k = len(self.models)
        shifts = shifts if shifts is not None else [0.0] * k
        broadenings = broadenings if broadenings is not None else [1.0] * k
        if len(shifts) != k or len(broadenings) != k:
            raise ValueError("shifts/broadenings must have one entry per component")
        return np.stack(
            [
                model.evaluate(self.axis, shift=s, broadening=b)
                for model, s, b in zip(self.models, shifts, broadenings)
            ]
        )

    def mixture_spectrum(
        self,
        concentrations: Mapping[str, float],
        shifts: Optional[Mapping[str, float]] = None,
        broadenings: Optional[Mapping[str, float]] = None,
    ) -> np.ndarray:
        """Noise-free mixture spectrum for named concentrations (mol/L)."""
        shifts = dict(shifts or {})
        broadenings = dict(broadenings or {})
        out = np.zeros(self.axis.points)
        for model in self.models:
            c = float(concentrations.get(model.name, 0.0))
            if c < 0:
                raise ValueError(f"negative concentration for {model.name}")
            if c == 0:
                continue
            out += model.evaluate(
                self.axis,
                shift=shifts.get(model.name, 0.0),
                broadening=broadenings.get(model.name, 1.0),
                concentration=c,
            )
        return out

    def concentration_vector(self, concentrations: Mapping[str, float]) -> np.ndarray:
        """Concentrations as an array in model order (absent -> 0)."""
        return np.array(
            [float(concentrations.get(name, 0.0)) for name in self.names]
        )


# Typical benchtop (43 MHz) linewidth in ppm: ~1-2 Hz natural width plus
# unresolved J-multiplets spread over ~15 Hz -> effective 0.05-0.15 ppm.
_W = 0.06


def mndpa_reaction_models(axis: Optional[ChemicalShiftAxis] = None) -> HardModelSet:
    """Hard models of the paper's four reaction components.

    Approximate 1H shifts (ppm, in THF, medium resolution):

    * **p-toluidine** — aromatic AA'BB' around 6.5/6.9, NH2 ~3.9, CH3 ~2.15;
    * **Li-toluidide** (activated intermediate) — aromatic shifted upfield
      (electron-rich anilide), CH3 ~2.05, TMS-amine by-product ~0.1;
    * **o-FNB** — four aromatic signals 7.2-8.1 (strongly deshielded by NO2);
    * **MNDPA** — overlapping aromatic envelope 6.8-8.2, NH ~9.4, CH3 ~2.32.

    The overlap structure (all four CH3 lines within 0.3 ppm; crowded
    aromatics) is what makes the analysis multivariate, as in the paper.
    """
    toluidine = PureComponentModel(
        "p-toluidine",
        (
            Peak(6.52, 2.0, _W),
            Peak(6.88, 2.0, _W),
            Peak(3.90, 2.0, 0.10, eta=0.5),  # NH2, broad
            Peak(2.15, 3.0, 0.8 * _W),
        ),
    )
    toluidide = PureComponentModel(
        "Li-toluidide",
        (
            Peak(6.21, 2.0, _W),
            Peak(6.67, 2.0, _W),
            Peak(2.05, 3.0, 0.8 * _W),
            Peak(0.12, 18.0, 0.7 * _W),  # HMDS trimethylsilyl protons
        ),
    )
    ofnb = PureComponentModel(
        "o-FNB",
        (
            Peak(7.28, 1.0, _W),
            Peak(7.45, 1.0, _W),
            Peak(7.72, 1.0, _W),
            Peak(8.05, 1.0, _W),
        ),
    )
    mndpa = PureComponentModel(
        "MNDPA",
        (
            Peak(9.42, 1.0, 0.09, eta=0.5),  # NH, broad
            Peak(8.18, 1.0, _W),
            Peak(7.35, 2.0, 1.2 * _W),
            Peak(7.12, 3.0, 1.3 * _W),
            Peak(6.85, 2.0, 1.2 * _W),
            Peak(2.32, 3.0, 0.8 * _W),
        ),
    )
    return HardModelSet([toluidine, toluidide, ofnb, mndpa], axis)

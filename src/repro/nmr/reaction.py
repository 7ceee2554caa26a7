"""The lithiation reaction, DoE and virtual flow reactor.

The paper's dataset: "different reaction conditions for an organic
lithiation reaction were generated with the help of laboratory equipment
and measured simultaneously online ... resulting in a set of 300 spectra as
raw data basis with four compound concentrations as the four labels of
interest."  The chemistry (its Fig. 8): p-toluidine is activated by proton
exchange with Li-HMDS to lithium p-toluidide, which substitutes the
fluorine of 1-fluoro-2-nitrobenzene (o-FNB) to give MNDPA.

We model this as two consecutive bimolecular steps with Arrhenius kinetics

    A + B --k1--> I        (activation; B = Li-HMDS, consumed)
    I + C --k2--> P        (aromatic substitution)

and track the four *observed* components A (p-toluidine), I (Li-toluidide),
C (o-FNB) and P (MNDPA).  The flow reactor operates as a plug-flow element:
outlet concentrations are a batch integration over the residence time.
A design of experiments (DoE) steps the reactor through operating points;
each point is held as a steady-state plateau while spectra accumulate —
exactly the plateau-with-jumps structure the paper's LSTM exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.nmr.acquisition import NMRSpectrum, VirtualNMRSpectrometer
from repro.nmr.simulator import _positive_int

__all__ = [
    "ReactionKinetics",
    "ReactionConditions",
    "DoEPlan",
    "PlateauRecord",
    "ReactionDataset",
    "FlowReactorExperiment",
    "OBSERVED_COMPONENTS",
]

GAS_CONSTANT = 8.314462618  # J / (mol K)

OBSERVED_COMPONENTS = ("p-toluidine", "Li-toluidide", "o-FNB", "MNDPA")


@dataclass(frozen=True)
class ReactionConditions:
    """One flow-reactor operating point."""

    feed_toluidine: float = 0.5  # mol/L (A)
    feed_lihmds: float = 0.55  # mol/L (B)
    feed_ofnb: float = 0.5  # mol/L (C)
    temperature_c: float = 25.0
    residence_time_s: float = 120.0

    def __post_init__(self):
        for label in ("feed_toluidine", "feed_lihmds", "feed_ofnb"):
            if getattr(self, label) < 0:
                raise ValueError(f"{label} must be non-negative")
        if self.residence_time_s <= 0:
            raise ValueError("residence_time_s must be positive")
        if self.temperature_c < -80 or self.temperature_c > 150:
            raise ValueError("temperature_c outside plausible reactor range")


@dataclass(frozen=True)
class ReactionKinetics:
    """Arrhenius parameters of the two reaction steps."""

    k1_ref: float = 0.08  # L/(mol s) at T_ref: fast activation
    k2_ref: float = 0.010  # L/(mol s): rate-limiting substitution
    ea1: float = 30_000.0  # J/mol
    ea2: float = 55_000.0
    t_ref_c: float = 25.0

    def rate_constants(self, temperature_c: float) -> Tuple[float, float]:
        t = temperature_c + 273.15
        t_ref = self.t_ref_c + 273.15
        k1 = self.k1_ref * np.exp(-self.ea1 / GAS_CONSTANT * (1.0 / t - 1.0 / t_ref))
        k2 = self.k2_ref * np.exp(-self.ea2 / GAS_CONSTANT * (1.0 / t - 1.0 / t_ref))
        return float(k1), float(k2)

    def outlet_concentrations(
        self, conditions: ReactionConditions
    ) -> Dict[str, float]:
        """Steady-state outlet composition of the plug-flow reactor."""
        from scipy.integrate import solve_ivp

        k1, k2 = self.rate_constants(conditions.temperature_c)

        def rhs(_t, y):
            a, b, i, c, p = y
            r1 = k1 * a * b
            r2 = k2 * i * c
            return [-r1, -r1, r1 - r2, -r2, r2]

        y0 = [
            conditions.feed_toluidine,
            conditions.feed_lihmds,
            0.0,
            conditions.feed_ofnb,
            0.0,
        ]
        solution = solve_ivp(
            rhs,
            (0.0, conditions.residence_time_s),
            y0,
            method="LSODA",
            rtol=1e-8,
            atol=1e-10,
        )
        if not solution.success:
            raise RuntimeError(f"kinetics integration failed: {solution.message}")
        a, _b, i, c, p = solution.y[:, -1]
        return {
            "p-toluidine": max(float(a), 0.0),
            "Li-toluidide": max(float(i), 0.0),
            "o-FNB": max(float(c), 0.0),
            "MNDPA": max(float(p), 0.0),
        }


@dataclass
class DoEPlan:
    """A design of experiments over reactor operating points."""

    conditions: List[ReactionConditions] = field(default_factory=list)

    @classmethod
    def full_factorial(
        cls,
        residence_times_s: Sequence[float] = (30.0, 90.0, 240.0),
        temperatures_c: Sequence[float] = (10.0, 25.0, 40.0),
        ofnb_equivalents: Sequence[float] = (0.8, 1.0, 1.2),
        feed_toluidine: float = 0.5,
        lihmds_equivalents: float = 1.1,
    ) -> "DoEPlan":
        """Full factorial DoE (default 3x3x3 + centre-ish coverage = 27)."""
        points = []
        for tau, temp, eq in product(residence_times_s, temperatures_c, ofnb_equivalents):
            points.append(
                ReactionConditions(
                    feed_toluidine=feed_toluidine,
                    feed_lihmds=feed_toluidine * lihmds_equivalents,
                    feed_ofnb=feed_toluidine * eq,
                    temperature_c=temp,
                    residence_time_s=tau,
                )
            )
        return cls(points)

    def __len__(self) -> int:
        return len(self.conditions)

    def __iter__(self):
        return iter(self.conditions)


@dataclass
class PlateauRecord:
    """All acquisitions of one steady-state plateau."""

    conditions: ReactionConditions
    true_concentrations: Dict[str, float]
    spectra: List[NMRSpectrum]
    reference_concentrations: np.ndarray  # (n_spectra, 4) high-field labels


@dataclass
class ReactionDataset:
    """The full experimental campaign, flattened for model training."""

    component_names: Tuple[str, ...]
    spectra: np.ndarray  # (n, points)
    reference_labels: np.ndarray  # (n, 4): high-field reference analysis
    true_labels: np.ndarray  # (n, 4): exact simulator ground truth
    plateau_ids: np.ndarray  # (n,) index of the operating point
    plateaus: List[PlateauRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return self.spectra.shape[0]

    def concentration_ranges(self) -> Dict[str, Tuple[float, float]]:
        """Per-component (min, max) of the reference labels.

        The paper stresses that an ANN "can only reproduce those changes
        that lie within the training label range"; augmentation samples
        from (a padded version of) these ranges.
        """
        ranges = {}
        for j, name in enumerate(self.component_names):
            column = self.reference_labels[:, j]
            ranges[name] = (float(column.min()), float(column.max()))
        return ranges


class FlowReactorExperiment:
    """Runs a DoE campaign on the virtual reactor + spectrometers."""

    def __init__(
        self,
        kinetics: ReactionKinetics,
        benchtop: VirtualNMRSpectrometer,
        reference_error: float = 0.005,
        seed: int = 0,
    ):
        if reference_error < 0:
            raise ValueError("reference_error must be non-negative")
        self.kinetics = kinetics
        self.benchtop = benchtop
        self.reference_error = float(reference_error)
        self._rng = np.random.default_rng(seed)

    def run(self, plan: DoEPlan, spectra_per_plateau: int = 11) -> ReactionDataset:
        """Execute the campaign; defaults give ~300 spectra for a 27-point DoE."""
        spectra_per_plateau = _positive_int("spectra_per_plateau", spectra_per_plateau)
        if len(plan) == 0:
            raise ValueError("the DoE plan is empty")
        plateaus: List[PlateauRecord] = []
        all_spectra = []
        all_reference = []
        all_truth = []
        plateau_ids = []
        for plateau_id, conditions in enumerate(plan):
            truth = self.kinetics.outlet_concentrations(conditions)
            truth_vec = np.array([truth[name] for name in OBSERVED_COMPONENTS])
            spectra = []
            references = []
            for _ in range(spectra_per_plateau):
                spectrum = self.benchtop.acquire(truth, rng=self._rng)
                spectra.append(spectrum)
                references.append(self._reference_analysis(truth_vec))
                all_spectra.append(spectrum.intensities)
                plateau_ids.append(plateau_id)
            references = np.stack(references)
            all_reference.append(references)
            all_truth.append(np.tile(truth_vec, (spectra_per_plateau, 1)))
            plateaus.append(
                PlateauRecord(conditions, truth, spectra, references)
            )
        return ReactionDataset(
            component_names=OBSERVED_COMPONENTS,
            spectra=np.stack(all_spectra),
            reference_labels=np.concatenate(all_reference, axis=0),
            true_labels=np.concatenate(all_truth, axis=0),
            plateau_ids=np.array(plateau_ids),
            plateaus=plateaus,
        )

    def _reference_analysis(self, truth: np.ndarray) -> np.ndarray:
        """Reference labels: true outlet concentrations x N(1, reference_error).

        No spectrum is acquired or integrated for a label: the paper's
        high-field reference analysis is modelled only by its residual
        error, a small multiplicative noise on the true concentrations.
        """
        noise = self._rng.normal(1.0, self.reference_error, size=truth.shape)
        return np.clip(truth * noise, 0.0, None)

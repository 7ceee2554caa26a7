"""Integral-based NMR quantification — the classical reference method.

NMR "exhibits a direct correlation between the signal area in the spectrum
and the number of observed nuclei in the active sample region, allowing for
a calibration-free relative quantification".  On the high-field instrument,
where lines are narrow and overlap is limited, classical region integration
recovers concentrations directly; this module implements that method and is
what makes the virtual 500 MHz spectrometer a genuine *reference* channel.

For each component an isolated integration region is chosen automatically
from the hard models (the region where only that component contributes
meaningfully); concentration follows from area / (nuclei count in region).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nmr.acquisition import NMRSpectrum
from repro.nmr.hard_model import HardModelSet

__all__ = ["IntegrationRegion", "IntegralQuantification"]


@dataclass(frozen=True)
class IntegrationRegion:
    """One component's integration window."""

    component: str
    low_ppm: float
    high_ppm: float
    nuclei: float  # summed peak area (proton count) inside the window

    def __post_init__(self):
        if self.high_ppm <= self.low_ppm:
            raise ValueError("high_ppm must exceed low_ppm")
        if self.nuclei <= 0:
            raise ValueError("nuclei must be positive")


class IntegralQuantification:
    """Classical region-integration analysis over a hard-model set."""

    def __init__(
        self,
        models: HardModelSet,
        regions: Optional[Sequence[IntegrationRegion]] = None,
        margin_ppm: float = 0.15,
        purity_threshold: float = 0.95,
    ):
        """Without explicit ``regions``, one region per component is found
        automatically: around each candidate peak a ±margin window is
        scored by purity (fraction of in-window model area belonging to the
        component); the purest window above ``purity_threshold`` wins."""
        self.models = models
        if regions is not None:
            self.regions = list(regions)
            known = set(models.names)
            for region in self.regions:
                if region.component not in known:
                    raise ValueError(
                        f"region references unknown component "
                        f"{region.component!r}"
                    )
        else:
            self.regions = self._auto_regions(margin_ppm, purity_threshold)
        covered = {region.component for region in self.regions}
        missing = [name for name in models.names if name not in covered]
        if missing:
            raise ValueError(
                f"no isolated integration region found for {missing}; "
                "pass explicit regions"
            )

    def _auto_regions(
        self, margin: float, purity_threshold: float
    ) -> List[IntegrationRegion]:
        regions = []
        for model in self.models.models:
            best: Optional[Tuple[float, IntegrationRegion]] = None
            for peak in model.peaks:
                low, high = peak.center - margin, peak.center + margin
                own = sum(
                    p.area for p in model.peaks if low <= p.center <= high
                )
                other = sum(
                    p.area
                    for m in self.models.models
                    if m.name != model.name
                    for p in m.peaks
                    if low - margin / 2 <= p.center <= high + margin / 2
                )
                purity = own / (own + other) if own + other > 0 else 0.0
                candidate = IntegrationRegion(model.name, low, high, own)
                if purity >= purity_threshold and (
                    best is None or purity > best[0]
                ):
                    best = (purity, candidate)
            if best is not None:
                regions.append(best[1])
        return regions

    def analyze(
        self, spectrum: Union[NMRSpectrum, np.ndarray]
    ) -> Dict[str, float]:
        """Concentrations from region integrals (mol/L, model units)."""
        if isinstance(spectrum, np.ndarray):
            spectrum = NMRSpectrum(self.models.axis, spectrum)
        concentrations = {}
        for region in self.regions:
            area = spectrum.integral(region.low_ppm, region.high_ppm)
            concentrations[region.component] = max(area / region.nuclei, 0.0)
        return concentrations

    def predict(self, spectra: np.ndarray) -> np.ndarray:
        """(n, points) -> (n, k) concentration matrix in model order."""
        spectra = np.asarray(spectra, dtype=np.float64)
        out = np.empty((spectra.shape[0], len(self.models)))
        for i, row in enumerate(spectra):
            result = self.analyze(row)
            out[i] = [result.get(name, 0.0) for name in self.models.names]
        return out

"""Indirect Hard Modelling analysis — the state-of-the-art baseline.

"With IHM, these pure components can be found in the total spectrum of a
mixture by fitting algorithms and their intensities and thus concentrations
can be determined, although individual signals are allowed to shift or
broaden."

The fit is a bounded nonlinear least-squares over, per component, one
concentration, one shift and one broadening factor (3k parameters for k
components), warm-started by a non-negative linear solve with the unshifted
pure spectra.  Every line of every component is rendered as one row of a
peaks x points table by :func:`~repro.nmr.lineshapes.pseudo_voigt_table`,
and the Jacobian is assembled from that kernel's closed-form center and
width derivatives.  This is deliberately an *honest* implementation of the
reference method: it is accurate but, being an iterative optimization over
re-rendered model spectra, orders of magnitude slower than a single ANN
forward pass — the paper's ">1000x faster" comparison.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Union

import numpy as np
from scipy.optimize import least_squares, nnls

from repro.nmr.acquisition import NMRSpectrum
from repro.nmr.hard_model import HardModelSet
from repro.nmr.lineshapes import pseudo_voigt_table

__all__ = ["IHMResult", "IHMAnalysis"]


@dataclass
class IHMResult:
    """Outcome of one IHM mixture fit.

    ``n_function_evaluations`` counts residual evaluations only and
    ``n_jacobian_evaluations`` counts Jacobian evaluations.  A
    finite-difference Jacobian would cost one extra residual evaluation per
    parameter for every Jacobian, which neither count would show.
    """

    concentrations: Dict[str, float]
    shifts: Dict[str, float]
    broadenings: Dict[str, float]
    residual_norm: float
    n_function_evaluations: int
    n_jacobian_evaluations: int
    elapsed_seconds: float

    def concentration_vector(self, names: Sequence[str]) -> np.ndarray:
        return np.array([self.concentrations[name] for name in names])


class IHMAnalysis:
    """Fits a :class:`HardModelSet` to measured mixture spectra."""

    def __init__(
        self,
        models: HardModelSet,
        fit_shifts: bool = True,
        fit_broadening: bool = True,
        max_shift: float = 0.05,
        broadening_bounds: tuple = (0.5, 2.0),
        max_concentration: float = 10.0,
    ):
        if max_shift < 0:
            raise ValueError("max_shift must be non-negative")
        low, high = broadening_bounds
        if not 0 < low <= 1.0 <= high:
            raise ValueError(
                f"broadening_bounds must bracket 1.0 with a positive lower "
                f"bound, got {broadening_bounds}"
            )
        self.models = models
        self.fit_shifts = bool(fit_shifts)
        self.fit_broadening = bool(fit_broadening)
        self.max_shift = float(max_shift)
        self.broadening_bounds = (float(low), float(high))
        self.max_concentration = float(max_concentration)
        self._unshifted = models.pure_spectra()
        peaks = [(j, peak) for j, model in enumerate(models.models) for peak in model.peaks]
        self._grid = models.axis.values()
        self._component = np.array([j for j, _ in peaks])
        self._centers = np.array([peak.center for _, peak in peaks])
        self._areas = np.array([peak.area for _, peak in peaks])
        self._fwhms = np.array([peak.fwhm for _, peak in peaks])
        self._etas = np.array([peak.eta for _, peak in peaks])
        # peaks x components: row p is one-hot on the component of peak p
        self._membership = np.eye(len(models))[self._component]

    # -- public API ---------------------------------------------------------

    def analyze(self, spectrum: Union[NMRSpectrum, np.ndarray]) -> IHMResult:
        """Fit one mixture spectrum; returns concentrations per component."""
        data = self._as_array(spectrum)
        start = time.perf_counter()
        k = len(self.models)

        c0 = self._linear_warm_start(data)
        x0 = [c0]
        lower = [np.zeros(k)]
        upper = [np.full(k, self.max_concentration)]
        if self.fit_shifts:
            x0.append(np.zeros(k))
            lower.append(np.full(k, -self.max_shift))
            upper.append(np.full(k, self.max_shift))
        if self.fit_broadening:
            x0.append(np.ones(k))
            lower.append(np.full(k, self.broadening_bounds[0]))
            upper.append(np.full(k, self.broadening_bounds[1]))

        result = least_squares(
            self._residuals,
            np.concatenate(x0),
            jac=self._jacobian,
            bounds=(np.concatenate(lower), np.concatenate(upper)),
            args=(data,),
            method="trf",
            xtol=1e-10,
            ftol=1e-10,
            max_nfev=200,
        )
        conc, shifts, broadenings = self._unpack(result.x)
        elapsed = time.perf_counter() - start
        names = self.models.names
        return IHMResult(
            concentrations={n: float(c) for n, c in zip(names, conc)},
            shifts={n: float(s) for n, s in zip(names, shifts)},
            broadenings={n: float(b) for n, b in zip(names, broadenings)},
            residual_norm=float(np.linalg.norm(result.fun)),
            n_function_evaluations=int(result.nfev),
            n_jacobian_evaluations=int(result.njev),
            elapsed_seconds=elapsed,
        )

    def analyze_batch(
        self, spectra: Union[np.ndarray, Sequence[NMRSpectrum]]
    ) -> List[IHMResult]:
        """Fit a batch of spectra one by one (IHM has no batch mode)."""
        return [self.analyze(s) for s in spectra]

    def predict(self, spectra: np.ndarray) -> np.ndarray:
        """(n, points) -> (n, k) concentration matrix, model order."""
        names = self.models.names
        return np.stack(
            [r.concentration_vector(names) for r in self.analyze_batch(spectra)]
        )

    # -- internals ------------------------------------------------------------

    def _as_array(self, spectrum) -> np.ndarray:
        data = spectrum.intensities if isinstance(spectrum, NMRSpectrum) else spectrum
        data = np.asarray(data, dtype=np.float64)
        if data.shape != (self.models.axis.points,):
            raise ValueError(
                f"spectrum has shape {data.shape}, expected "
                f"({self.models.axis.points},)"
            )
        return data

    def _linear_warm_start(self, data: np.ndarray) -> np.ndarray:
        coeffs, _ = nnls(self._unshifted.T, np.clip(data, 0.0, None))
        return np.clip(coeffs, 0.0, self.max_concentration)

    def _unpack(self, x: np.ndarray):
        k = len(self.models)
        conc = x[:k]
        idx = k
        if self.fit_shifts:
            shifts = x[idx : idx + k]
            idx += k
        else:
            shifts = np.zeros(k)
        if self.fit_broadening:
            broadenings = x[idx : idx + k]
        else:
            broadenings = np.ones(k)
        return conc, shifts, broadenings

    def _lines(self, shifts: np.ndarray, broadenings: np.ndarray, derivatives: bool):
        """The peaks x points table of every line at the given component
        shifts and broadenings (and its center/width derivatives)."""
        return pseudo_voigt_table(
            self._grid,
            self._centers + shifts[self._component],
            self._fwhms * broadenings[self._component],
            self._etas,
            derivatives=derivatives,
        )

    def _residuals(self, x: np.ndarray, data: np.ndarray) -> np.ndarray:
        conc, shifts, broadenings = self._unpack(x)
        table = self._lines(shifts, broadenings, derivatives=False)
        return (conc[self._component] * self._areas) @ table - data

    def _jacobian(self, x: np.ndarray, data: np.ndarray) -> np.ndarray:
        """points x parameters Jacobian of :meth:`_residuals`, its columns
        in :meth:`_unpack` order."""
        conc, shifts, broadenings = self._unpack(x)
        table, d_center, d_fwhm = self._lines(shifts, broadenings, derivatives=True)
        weights = (conc[self._component] * self._areas)[:, None] * self._membership
        columns = [table.T @ (self._areas[:, None] * self._membership)]
        if self.fit_shifts:
            columns.append(d_center.T @ weights)
        if self.fit_broadening:
            columns.append(d_fwhm.T @ (self._fwhms[:, None] * weights))
        return np.concatenate(columns, axis=1)

"""NMR substrate: Part B of the paper.

The paper's NMR study monitors the synthesis of 2-nitro-4'-methyl-
diphenylamine (MNDPA) from p-toluidine and 1-fluoro-2-nitrobenzene (o-FNB),
with p-toluidine activated by Li-HMDS, in a laboratory flow reactor.  Four
compound concentrations are the labels of interest.  300 experimental
low-field spectra are augmented to 300 000 synthetic spectra via Indirect
Hard Modelling (IHM): each pure component is a parametric sum of
Lorentz-Gauss lines; mixture spectra are linear combinations with
physically motivated peak shifts and broadening.

Modules:

* :mod:`repro.nmr.lineshapes` — Lorentz / Gauss / pseudo-Voigt profiles;
* :mod:`repro.nmr.hard_model` — parametric pure-component models and the
  built-in four-component reaction model set;
* :mod:`repro.nmr.simulator` — the IHM-based synthetic-spectra generator
  (the paper's data-augmentation engine);
* :mod:`repro.nmr.ihm` — IHM mixture fitting, the state-of-the-art analysis
  baseline the ANNs are compared against;
* :mod:`repro.nmr.reaction` — lithiation kinetics, DoE and the virtual
  flow reactor (substitute for the laboratory experiment); its reference
  labels are the true outlet concentrations with a small multiplicative
  error, not a simulated high-field analysis;
* :mod:`repro.nmr.acquisition` — virtual benchtop (43 MHz) and high-field
  (500 MHz) spectrometers; only the benchtop acquires campaign spectra, the
  high-field one is a clean-spectrum source for the quantification tests.
"""

from repro.nmr.lineshapes import gaussian, lorentzian, pseudo_voigt
from repro.nmr.hard_model import (
    ChemicalShiftAxis,
    HardModelSet,
    Peak,
    PureComponentModel,
    mndpa_reaction_models,
)
from repro.nmr.simulator import NMRSpectrumSimulator
from repro.nmr.ihm import IHMAnalysis, IHMResult
from repro.nmr.reaction import (
    DoEPlan,
    FlowReactorExperiment,
    ReactionConditions,
    ReactionKinetics,
)
from repro.nmr.acquisition import NMRSpectrum, VirtualNMRSpectrometer
from repro.nmr.quantification import IntegralQuantification, IntegrationRegion
from repro.nmr.fid import AcquisitionParameters, FIDSynthesizer, fid_to_spectrum

__all__ = [
    "AcquisitionParameters",
    "ChemicalShiftAxis",
    "DoEPlan",
    "FIDSynthesizer",
    "FlowReactorExperiment",
    "HardModelSet",
    "IHMAnalysis",
    "IHMResult",
    "IntegralQuantification",
    "IntegrationRegion",
    "NMRSpectrum",
    "NMRSpectrumSimulator",
    "Peak",
    "PureComponentModel",
    "ReactionConditions",
    "ReactionKinetics",
    "VirtualNMRSpectrometer",
    "fid_to_spectrum",
    "gaussian",
    "lorentzian",
    "mndpa_reaction_models",
    "pseudo_voigt",
]

"""Reproduction of "AI for Mass Spectrometry and NMR Spectroscopy Using a
Novel Data Augmentation Method" (Fricke et al., DATE/TETC 2021).

Subpackages:

* :mod:`repro.nn` — NumPy deep-learning framework (TensorFlow substitute);
* :mod:`repro.ms` — mass-spectrometry toolchain substrate (Tools 1-3 +
  virtual MMS prototype);
* :mod:`repro.nmr` — NMR substrate (IHM hard models, virtual reactor and
  spectrometers, IHM fitting baseline);
* :mod:`repro.core` — the paper's flow: toolchain orchestration,
  topologies, training service, augmentation, evaluation;
* :mod:`repro.db` — embedded document store + provenance (MongoDB
  substitute);
* :mod:`repro.embedded` — Jetson platform cost model (Table 2);
* :mod:`repro.reliability` — fault injection, retrying acquisition,
  storage faults and validation gates (the closed loop's one
  degradation rule, holding the actuator when blind, lives in
  :mod:`repro.core.closed_loop`);
* :mod:`repro.storage` — checksummed envelopes, atomic writes and the
  append-only journal behind every durable artifact;
* :mod:`repro.serving` — hardened concurrent analysis service with
  circuit breaker, admission gates and deadlines;
* :mod:`repro.observability` — default-on metrics registry, tracing
  spans and telemetry export wired through training, serving and
  storage;
* :mod:`repro.compute` — parallel execution engine (serial/thread/process
  backends behind one deterministic ``map_tasks`` API) and the
  content-addressed, checksummed dataset/artifact cache;
* :mod:`repro.adaptation` — drift resilience: the domain-shift scenario
  matrix (shift axes x adaptation strategies, cache-resumable);
* :mod:`repro.uncertainty` — deep-ensemble mean + spread,
  split-conformal prediction intervals and the serving abstention gate
  ("I don't know" as a first-class outcome);
* :mod:`repro.orchestration` — the Fig-5/Fig-6 reproduction grid as one
  resumable campaign: canonical-config cells cached per-row, journaled
  progress with kill/resume to byte-identical reports, fan-out over the
  warm-pooled executor;
* :mod:`repro.inference` — frozen inference engine: models compiled
  into immutable plans of fused, optionally int8-quantized kernels
  with pinned accuracy contracts, shared by serving
  (``batch_analyzer_from_model(model, frozen=...)``) and the embedded
  cost model.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]

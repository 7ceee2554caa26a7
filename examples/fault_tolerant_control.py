#!/usr/bin/env python
"""Fault-tolerant closed-loop control on a misbehaving spectrometer.

The paper's deployment sections stop at "the trained network can only be
used for a measurement task defined in advance" — this example shows what
the reliability subsystem adds on top for production: the benchtop NMR
spectrometer is wrapped in a :class:`FaultInjector` that drops scans,
saturates the detector, kills channels (NaN), adds spikes and baseline
jumps, and the control loop keeps holding its setpoint anyway:

* a :class:`RetryPolicy` re-acquires dropped scans within the control
  period;
* a plausibility gate in front of the ANN raises on implausible spectra,
  which would otherwise feed garbage estimates to the controller.  The
  gate is calibrated from the training spectra: max-intensity and
  edge-baseline envelopes catch spikes and baseline jumps; mild
  saturation passes as tolerable corruption;
* the loop's one degradation rule does the rest: a blind period — scan
  lost after retries, non-finite scan (never shown to the ANN), gate or
  analyzer raised, non-finite estimate — holds the actuator instead of
  updating the controller.

Run:  python examples/fault_tolerant_control.py
"""

import numpy as np

from repro import nn
from repro.core import ClosedLoopSimulation, ann_analyzer, nmr_conv_topology
from repro.nmr import (
    DoEPlan,
    FlowReactorExperiment,
    NMRSpectrumSimulator,
    ReactionKinetics,
    VirtualNMRSpectrometer,
    mndpa_reaction_models,
)
from repro.reliability import FaultConfig, FaultInjector, RetryPolicy


def train_analyzer_network(models, rng):
    """Commission a (reduced-budget) conv ANN analyzer."""
    experiment = FlowReactorExperiment(
        ReactionKinetics(), VirtualNMRSpectrometer.benchtop(models, seed=0),
        seed=0,
    )
    dataset = experiment.run(DoEPlan.full_factorial(), 4)
    simulator = NMRSpectrumSimulator.from_dataset(models, dataset)
    x_train, y_train = simulator.generate_dataset(3000, rng)
    model = nmr_conv_topology().build((1700,), seed=0)
    model.compile(nn.Adam(0.002), "mse")
    model.fit(x_train, y_train, epochs=8, batch_size=64, seed=0)
    return model, x_train


def plausibility_gate(x_train):
    """A cheap scan gate calibrated from the training envelope."""
    edge = slice(-100, None)
    max_limit = 3.0 * float(x_train.max())
    edge_values = x_train[:, edge]
    edge_limit = float(edge_values.mean() + 10.0 * edge_values.std())

    def plausible(data):
        return float(data.max()) < max_limit and float(
            data[edge].mean()
        ) < edge_limit

    return plausible


def gated(analyzer, plausible):
    """``analyzer``, raising on a scan the gate finds implausible."""

    def analyze(data):
        if not plausible(data):
            raise ValueError("implausible scan")
        return analyzer(data)

    return analyze


def main():
    rng = np.random.default_rng(0)
    models = mndpa_reaction_models()
    target = 0.18

    print("training the analyzer network ...")
    network, x_train = train_analyzer_network(models, rng)

    # A spectrometer that misbehaves: every fault class at 8 % per scan.
    spectrometer = VirtualNMRSpectrometer.benchtop(models, seed=7)
    injector = FaultInjector(spectrometer, FaultConfig.all_faults(0.08), seed=3)

    analyzer = gated(ann_analyzer(network), plausibility_gate(x_train))
    loop = ClosedLoopSimulation(
        ReactionKinetics(), injector, analyzer, target_product=target,
        retry_policy=RetryPolicy(max_attempts=4, base_delay=0.0,
                                 sleep=lambda s: None),
    )

    print(f"\nrunning 60 control periods at target {target} mol/L "
          "with faults injected:")
    trajectory = loop.run(60, rng)
    for step in trajectory[::6]:
        flag = "  DEGRADED" if step.degraded else ""
        print(f"  step {step.step:3d}: residence {step.residence_time_s:6.1f} s"
              f"  true {step.true_product:.3f}"
              f"  est {step.estimated_product:.3f}{flag}")

    final = np.mean([s.true_product for s in trajectory[-10:]])
    print(f"\nfinal true product {final:.3f} (target {target})")

    print(f"\ninstrument faults injected over {injector.scans} scans:")
    for kind, count in sorted(injector.fault_counts.items()):
        print(f"  {kind:>14s}: {count}")
    held = sum(step.degraded for step in trajectory)
    print(f"\nblind periods (actuator held): {held} of {len(trajectory)}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Closed-loop process monitoring with plausibility checks and drift alarms.

The paper's deployment story: a trained network analyzes every spectrum in
real time, but "measures are required to check the plausibility of the
input data", and over the production life cycle the system must be
"automatically and reliably adapted to perturbations or changes in
parameters".  This example runs that loop against the virtual prototype:

1. commission the system with the standard toolchain;
2. stream in-task samples — all pass the plausibility guard;
3. inject a foreign substance (H2S) — the guard rejects those spectra;
4. let the instrument drift — the drift monitor raises an alarm;
5. recalibrate automatically and show the alarm clears.

Run:  python examples/process_monitoring_lifecycle.py
"""

import numpy as np

from repro.core import MSToolchain, table1_topology
from repro.core.lifecycle import DriftMonitor
from repro.ms import (
    MassFlowControllerRig,
    PlausibilityChecker,
    VirtualMassSpectrometer,
    default_library,
)
from repro.ms.compounds import DEFAULT_TASK_COMPOUNDS
from repro.ms.mixtures import default_mixture_plan
from repro.ms.spectrum import MzAxis


def main():
    task = DEFAULT_TASK_COMPOUNDS
    axis = MzAxis(1.0, 50.0, 0.2)
    rng = np.random.default_rng(0)

    instrument = VirtualMassSpectrometer(
        contamination={"H2O": 0.01}, library=default_library(), axis=axis,
        drift_per_hour=0.02, seed=0,
    )
    rig = MassFlowControllerRig(instrument, seed=0)
    chain = MSToolchain(task, axis=axis)

    # -- commissioning ---------------------------------------------------------
    print("commissioning: characterize, simulate, train ...")
    measurements, m_id = chain.collect_reference_measurements(rig, 15)
    simulator, _, s_id = chain.build_simulator(measurements, m_id)
    dataset, d_id = chain.generate_training_data(simulator, 4000, rng, s_id)
    model, _, val_mae, _ = chain.train_network(
        dataset, topology=table1_topology(len(task)), epochs=8,
        dataset_artifact=d_id,
    )
    print(f"commissioned; simulated validation MAE {100 * val_mae:.2f} %")

    checker = PlausibilityChecker(simulator, task)
    monitor = DriftMonitor(simulator, task, alarm_factor=2.0, smoothing=0.3,
                           warmup=3, baseline_samples=100)

    # -- normal operation --------------------------------------------------------
    print("\nnormal operation (5 samples):")
    plan = default_mixture_plan(task, len(task), seed=5)
    for mixture in plan.mixtures[:5]:
        spectrum = instrument.measure(mixture).normalized("max")
        report = checker.check(spectrum)
        prediction = model.predict(spectrum.intensities[None, :])[0]
        top = task[int(np.argmax(prediction))]
        print(f"  plausible={report.plausible}  dominant={top:4s}  "
              f"residual={report.residual_fraction:.3f}")

    # -- a foreign substance appears ---------------------------------------------
    print("\nforeign substance (H2S) enters the process:")
    bad = instrument.measure({"N2": 0.5, "H2S": 0.5}).normalized("max")
    report = checker.check(bad)
    print(f"  plausible={report.plausible}  largest unexplained peak at "
          f"m/z {report.largest_unexplained_mz:.1f} "
          f"(H2S parent ion is at 34) -> ANN output would not be trusted")

    # -- instrument drift over the production campaign ----------------------------
    print("\nsimulating 60 hours of operation ...")
    instrument.advance_time(60.0)
    status = None
    for mixture in plan.mixtures * 3:
        spectrum = instrument.measure(mixture).normalized("max")
        status = monitor.observe(spectrum)
        if status.drifted:
            break
    print(f"  drift alarm: {status.drifted} "
          f"(severity {status.severity:.1f}x baseline after "
          f"{status.observations} samples)")

    # -- automatic recalibration ----------------------------------------------------
    if status is not None and status.drifted:
        print("\nrecalibrating with fresh reference measurements ...")
        eval_plan = default_mixture_plan(task, len(task), seed=9)
        eval_meas = rig.measure_plan(eval_plan, 3)
        result = chain.run(rig, eval_meas, samples_per_mixture=15,
                           n_training_spectra=5000, epochs=12)
        print(f"  new network: simulated MAE {100 * result.validation_mae:.2f} %, "
              f"measured MAE {100 * result.measured_mae:.2f} %")
        fresh_monitor = DriftMonitor(result.simulator, task, alarm_factor=2.0,
                                     smoothing=0.3, warmup=3,
                                     baseline_samples=100)
        for mixture in plan.mixtures:
            spectrum = instrument.measure(mixture).normalized("max")
            status = fresh_monitor.observe(spectrum)
        print(f"  after recalibration: drifted={status.drifted} "
              f"(severity {status.severity:.1f}x)")


if __name__ == "__main__":
    main()

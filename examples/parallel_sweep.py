#!/usr/bin/env python
"""A tour of the compute layer: parallel sweeps and the artifact cache.

The paper's offline work — bulk dataset generation and multi-topology
training — is embarrassingly parallel and perfectly memoizable.  This
example walks both halves of :mod:`repro.compute`:

1. generate a simulated MS dataset through an
   :class:`~repro.compute.cache.ArtifactCache` twice — the first call
   renders, the second is a checksummed read of the same bytes;
2. train the same topology sweep on the service's default executor (one
   serial worker, the reference) and on two-worker ``thread`` and
   ``process`` :class:`~repro.compute.executor.ParallelExecutor` backends,
   and verify the weights, optimizer state, metrics and ``select_best``
   winner are identical;
3. re-run the sweep over the cache with a seeded
   :class:`~repro.reliability.faults.FaultInjector` killing a subset of
   training tasks: the sweep completes, the dead topologies land in
   ``service.failures`` as typed records, and the survivors still rank.
   Running it again without the injector is the retry: the survivors
   come back from the cache and only the dead topologies train.

Run:  python examples/parallel_sweep.py
"""

import tempfile
import time

import numpy as np

from repro.compute import ArtifactCache, ParallelExecutor, generate_ms_dataset
from repro.core.datasets import SpectraDataset
from repro.core.topologies import mlp_topology
from repro.core.training_service import TrainingConfig, TrainingService
from repro.ms import (
    InstrumentCharacteristics,
    MassSpectrometerSimulator,
    MzAxis,
)
from repro.reliability.faults import FaultConfig, FaultInjector

COMPOUNDS = ["N2", "O2", "Ar", "CO2"]


def main():
    with tempfile.TemporaryDirectory() as root:
        # 1 -- the cache: cold render, then a verified read.
        print("[1] content-addressed dataset cache ...")
        simulator = MassSpectrometerSimulator(
            InstrumentCharacteristics(), MzAxis(1.0, 50.0, 0.2)
        )
        cache = ArtifactCache(f"{root}/artifacts")
        start = time.perf_counter()
        x, y, _ = generate_ms_dataset(
            simulator, COMPOUNDS, 3000, seed=0, cache=cache
        )
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        x2, y2, _ = generate_ms_dataset(
            simulator, COMPOUNDS, 3000, seed=0, cache=cache
        )
        warm_s = time.perf_counter() - start
        assert np.array_equal(x, x2) and np.array_equal(y, y2)
        print(f"    cold (render): {cold_s * 1e3:7.1f} ms")
        print(f"    warm (cache) : {warm_s * 1e3:7.1f} ms "
              f"({cold_s / warm_s:.0f}x faster, identical bytes)")
        print(f"    stats: {cache.stats()}")

        # 2 -- the executor: default vs thread vs process, byte-identical.
        print("[2] training sweep on the default executor vs thread and "
              "process backends ...")
        dataset = SpectraDataset(x, y, tuple(COMPOUNDS))
        topologies = [
            mlp_topology(len(COMPOUNDS), hidden_units=(32,)),
            mlp_topology(len(COMPOUNDS), hidden_units=(64,)),
            mlp_topology(len(COMPOUNDS), hidden_units=(32, 16)),
        ]
        config = TrainingConfig(epochs=3, batch_size=64, patience=None)
        services = {}
        for backend in ("default", "thread", "process"):
            executor = (
                None if backend == "default"
                else ParallelExecutor(backend=backend, max_workers=2)
            )
            service = TrainingService(config, executor=executor)
            start = time.perf_counter()
            service.train_all(topologies, dataset)
            elapsed = time.perf_counter() - start
            best = service.select_best()
            services[backend] = service
            print(f"    {backend:10s}: {elapsed:6.2f} s, best "
                  f"{best.topology_name} (val_mae "
                  f"{best.metrics['val_mae']:.5f})")
            if executor is not None:
                executor.close()
        reference = services.pop("default")
        for service in services.values():
            assert (
                service.select_best().topology_name
                == reference.select_best().topology_name
            )
            for run, ref in zip(service.runs, reference.runs):
                assert run.metrics == ref.metrics
                for got, want in zip(
                    run.model.get_weights(), ref.model.get_weights()
                ):
                    assert np.array_equal(got, want)
                got = run.model.optimizer.get_state()
                want = ref.model.optimizer.get_state()
                assert got["iterations"] == want["iterations"]
                for slot, entries in want["slots"].items():
                    for key, value in entries.items():
                        assert np.array_equal(got["slots"][slot][key], value)
        print("    -> identical weights, optimizer state, metrics and "
              "winner on every path")

        # 3 -- chaos: a fault injector kills tasks; the sweep survives.
        print("[3] sweep with injected worker crashes ...")
        injector = FaultInjector(
            lambda index: np.zeros(4),
            FaultConfig(dropped_scan=0.5),
            seed=4,
        )
        executor = ParallelExecutor(
            backend="thread", max_workers=1, chaos=injector
        )
        service = TrainingService(config, cache=cache, executor=executor)
        service.train_all(topologies, dataset, sweep_name="chaos")
        survivors = [r.topology_name for r in service.runs]
        dead = [f.topology_name for f in service.failures]
        print(f"    survived: {survivors}")
        for failure in service.failures:
            print(f"    dead    : {failure.topology_name} "
                  f"({failure.error_type}: {failure.message})")
        if service.runs:
            best = service.select_best()
            print(f"    best survivor: {best.topology_name}")

        # Re-running over the same cache is the retry.
        retry = TrainingService(config, cache=cache)
        runs = retry.train_all(topologies, dataset, sweep_name="chaos")
        assert retry.failures == []
        assert sorted(r.topology_name for r in runs if r.resumed) == sorted(
            survivors
        )
        assert sorted(r.topology_name for r in runs if not r.resumed) == sorted(
            dead
        )
        print(f"    retry   : reused {len(survivors)} from the cache, "
              f"trained {len(dead)}")
        print("done.")


if __name__ == "__main__":
    main()

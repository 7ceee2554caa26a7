#!/usr/bin/env python
"""Artifact storage and provenance tracing (the paper's MongoDB role).

"To handle the big amounts of data ... a MongoDB database is used to store
the data of all tools in the presented toolflow.  In addition to the actual
data, all objects stored in the database also store metadata that make it
possible to trace the basis on which the respective data was generated."

This example runs two small toolchain variants, stores every artifact with
lineage, then answers the audit questions the paper cares about: which
measurements trained which simulator, and which data trained which network.

Run:  python examples/database_provenance.py
"""

import tempfile

from repro.db import DocumentStore, ProvenanceTracker


def main():
    with tempfile.NamedTemporaryFile(suffix=".db") as handle:
        store = DocumentStore(handle.name)
        tracker = ProvenanceTracker(store)

        # A calibration campaign feeds two simulator variants.
        campaign = tracker.record(
            "measurement_series",
            {"mixtures": 14, "samples_per_mixture": 25, "device": "MMS-proto-2"},
        )
        simulator_a = tracker.record(
            "simulator", {"noise_model": "gaussian+shot"}, parents=[campaign]
        )
        simulator_b = tracker.record(
            "simulator", {"noise_model": "gaussian"}, parents=[campaign]
        )

        # Each simulator generates a dataset; each dataset trains networks.
        networks = []
        for simulator, tag in ((simulator_a, "A"), (simulator_b, "B")):
            dataset = tracker.record(
                "dataset", {"n": 100_000, "variant": tag}, parents=[simulator]
            )
            for activation in ("selu", "relu"):
                networks.append(
                    tracker.record(
                        "network",
                        {"activation": activation, "variant": tag,
                         "mae": 0.0015 if activation == "selu" else 0.0016},
                        parents=[dataset],
                    )
                )

        # Audit question 1: full lineage of the best network.
        best = min(networks, key=lambda n: tracker.get(n)["metadata"]["mae"])
        print("lineage of the best network:")
        print(tracker.lineage_report(best))

        # Audit question 2: everything derived from the campaign.
        descendants = tracker.descendants(campaign)
        print(f"\nthe campaign fed {len(descendants)} downstream artifacts:")
        for artifact_id in descendants:
            doc = tracker.get(artifact_id)
            print(f"  [{artifact_id}] {doc['kind']} {doc['metadata']}")

        # Audit question 3: query networks by metadata.
        selu_nets = tracker.find("network", activation="selu")
        print(f"\nnetworks using SELU: {[d['_id'] for d in selu_nets]}")

        # Everything survives a round-trip through the snapshot archive.
        store.save()
        reloaded = ProvenanceTracker(DocumentStore(handle.name))
        assert reloaded.ancestors(best) == tracker.ancestors(best)
        print("\nstore round-trip OK — lineage identical after reload")


if __name__ == "__main__":
    main()

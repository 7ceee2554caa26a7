"""Every public name in ``repro`` has a caller outside ``tests/``.

The scan reads every Python file under ``src/``, ``benchmarks/``,
``examples/`` and ``tools/`` as a syntax tree.  A public module-level
function or class is reached when its name is spelled as a name or an
attribute anywhere there outside its own definition; a public method or
property is reached only when its name is spelled as an attribute.
Imports and ``__all__`` strings do not count, so re-exporting a name does
not keep it alive.  Matching is by name, not by type: a method shares its
references with every attribute of the same name, so the guard finds the
names nothing spells, not every dead method.

A name that stays without such a caller goes on ``ALLOWED`` with the
reason it stays.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "benchmarks", "examples", "tools")

_REFERENCE_SOURCE = "reference source that tests compare against"
_INSPECTION = "inspection helper for tests"
_CRUD = "DocumentStore/Collection CRUD (journal-before-apply contract)"

ALLOWED = {
    # Reference sources that tests compare against.
    "repro.nmr.hard_model.HardModelSet.mixture_spectrum": _REFERENCE_SOURCE,
    "repro.nmr.hard_model.PureComponentModel.total_area": _REFERENCE_SOURCE,
    "repro.nmr.acquisition.VirtualNMRSpectrometer.highfield":
        "clean-spectrum source for the quantification tests",
    "repro.nmr.lineshapes.gaussian": _REFERENCE_SOURCE,
    "repro.nmr.lineshapes.lorentzian": _REFERENCE_SOURCE,
    "repro.nmr.lineshapes.pseudo_voigt": _REFERENCE_SOURCE,
    "repro.nn.layers.windows.window_indices":
        "the tests' reference gather for im2col/col2im",
    # Inspection helpers for tests.
    "repro.observability.tracing.Span.ended": _INSPECTION,
    "repro.observability.tracing.Span.set_status": _INSPECTION,
    "repro.observability.tracing.Tracer.trace_ids": _INSPECTION,
    "repro.observability.metrics.Counter.total": _INSPECTION,
    "repro.serving.batching.BrownoutGovernor.level": _INSPECTION,
    "repro.orchestration.orchestrator.CampaignRunResult.complete": _INSPECTION,
    "repro.db.provenance.ProvenanceTracker.counts_by_kind": _INSPECTION,
    "repro.ms.mixtures.MixturePlan.as_matrix": _INSPECTION,
    "repro.ms.compounds.Compound.base_peak_mz": _INSPECTION,
    "repro.observability.runtime.enable": "telemetry isolation for tests",
    "repro.observability.runtime.disable": "telemetry isolation for tests",
    "repro.observability.runtime.scoped": "telemetry isolation for tests",
    "repro.reliability.storage_faults.StorageFaultInjector":
        "storage fault injection for the chaos tests",
    "repro.reliability.storage_faults.truncate_file":
        "storage fault injection for the chaos tests",
    # Documented API.
    "repro.inference.engine.InferenceEngine.ensure_accuracy":
        "README's per-dtype accuracy contract",
    "repro.core.training_service.TrainingService.export_results":
        "the paper's Tool-4 spreadsheet export",
    "repro.db.document_store.DocumentStore.collection_names": _CRUD,
    "repro.db.document_store.DocumentStore.compact": _CRUD,
    "repro.db.document_store.DocumentStore.drop": _CRUD,
    "repro.db.document_store.DocumentStore.recover": _CRUD,
    "repro.db.document_store.Collection.delete": _CRUD,
    "repro.db.document_store.Collection.distinct": _CRUD,
    "repro.db.document_store.Collection.insert_many": _CRUD,
    "repro.db.document_store.Collection.update_one": _CRUD,
    "repro.adaptation.scenarios.shifted_nmr_simulator":
        "the NMR half of the documented drift-scenario API",
    "repro.nn.metrics.per_output_mae": "documented metric API",
    "repro.nn.metrics.root_mean_squared_error": "documented metric API",
}


def _public(node):
    return isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ) and not node.name.startswith("_")


def _references(node):
    """``(names, attributes)`` spelled anywhere inside ``node``."""
    names, attributes = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            attributes[sub.attr] += 1
    return names, attributes


def _unreached():
    """Qualified names of the public definitions nothing outside tests spells."""
    names, attributes = Counter(), Counter()
    definitions = []  # (qualified name, node, is_member)
    for top in SEARCHED:
        for path in sorted((REPO / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            file_names, file_attributes = _references(tree)
            names += file_names
            attributes += file_attributes
            if top != "src":
                continue
            module = ".".join(path.relative_to(REPO / "src").with_suffix("").parts)
            for node in filter(_public, tree.body):
                definitions.append((f"{module}.{node.name}", node, False))
                if isinstance(node, ast.ClassDef):
                    for member in filter(_public, node.body):
                        if not isinstance(member, ast.ClassDef):
                            qualified = f"{module}.{node.name}.{member.name}"
                            definitions.append((qualified, member, True))
    unreached = set()
    for qualified, node, is_member in definitions:
        own_names, own_attributes = _references(node)
        count = attributes[node.name] - own_attributes[node.name]
        if not is_member:
            count += names[node.name] - own_names[node.name]
        if count <= 0:
            unreached.add(qualified)
    return unreached


@pytest.fixture(scope="module")
def unreached():
    return _unreached()


def test_every_public_name_has_a_caller_outside_tests(unreached):
    missing = sorted(unreached - set(ALLOWED))
    assert not missing, (
        "public names with no caller in src/, benchmarks/, examples/ or "
        "tools/ (delete them, or add each to ALLOWED with its reason):\n  "
        + "\n  ".join(missing)
    )


def test_every_allowed_name_is_still_unreached(unreached):
    assert all(reason.strip() for reason in ALLOWED.values())
    stale = sorted(set(ALLOWED) - unreached)
    assert not stale, (
        "ALLOWED names that are gone or now have a caller (remove them):\n  "
        + "\n  ".join(stale)
    )

"""Unit tests for the command-line toolchain."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.storage.integrity import CorruptArtifactError, read_archive


@pytest.fixture()
def ms_dataset(tmp_path):
    path = tmp_path / "ms.npz"
    code = main([
        "ms-generate", "--compounds", "N2,O2,Ar", "--n", "200",
        "--mz-step", "0.5", "--out", str(path),
    ])
    assert code == 0
    return path


class TestMsGenerate:
    def test_writes_dataset(self, ms_dataset):
        arrays, docs = read_archive(ms_dataset)
        assert arrays["x"].shape[0] == 200
        assert arrays["y"].shape == (200, 3)
        assert docs["meta"]["compounds"] == ["N2", "O2", "Ar"]

    def test_seed_reproducibility(self, tmp_path):
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        for path in (a, b):
            main(["ms-generate", "--n", "20", "--seed", "7",
                  "--mz-step", "0.5", "--out", str(path)])
        np.testing.assert_array_equal(
            read_archive(a)[0]["x"], read_archive(b)[0]["x"]
        )

    def test_damaged_dataset_is_refused(self, ms_dataset, tmp_path):
        blob = bytearray(ms_dataset.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        ms_dataset.write_bytes(bytes(blob))
        with pytest.raises(CorruptArtifactError):
            main(["train", "--data", str(ms_dataset), "--topology", "mlp",
                  "--epochs", "1", "--out", str(tmp_path / "m.npz")])


class TestTrainEvaluate:
    def test_train_then_evaluate(self, ms_dataset, tmp_path, capsys):
        model_path = tmp_path / "model.npz"
        code = main([
            "train", "--data", str(ms_dataset), "--topology", "mlp",
            "--epochs", "3", "--out", str(model_path),
        ])
        assert code == 0
        assert model_path.exists()
        code = main([
            "evaluate", "--model", str(model_path), "--data", str(ms_dataset),
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "MAE" in output
        assert "N2" in output

    def test_non_finite_learning_rate_rejected(self, ms_dataset, tmp_path,
                                               capsys):
        model_path = tmp_path / "m.npz"
        code = main(["train", "--data", str(ms_dataset), "--topology", "mlp",
                     "--learning-rate", "nan", "--epochs", "1",
                     "--out", str(model_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            "invalid training option: learning_rate must be positive and "
            "finite, got nan\n"
        )
        assert not model_path.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--epochs", "0", "epochs must be positive, got 0"),
        ("--batch-size", "0", "batch_size must be positive, got 0"),
        ("--learning-rate", "-1",
         "learning_rate must be positive and finite, got -1.0"),
    ])
    def test_bad_training_option_refused(self, flag, value, message,
                                         tmp_path, capsys):
        # Refused before the dataset is read: the file does not exist.
        model_path = tmp_path / "m.npz"
        code = main(["train", "--data", str(tmp_path / "missing.npz"),
                     flag, value, "--out", str(model_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid training option: {message}\n"
        assert not model_path.exists()

    def test_unknown_topology_rejected(self, ms_dataset, tmp_path):
        with pytest.raises(SystemExit):
            main(["train", "--data", str(ms_dataset),
                  "--topology", "transformer", "--out", str(tmp_path / "m.npz")])


class TestTable2:
    def test_prints_four_platforms(self, ms_dataset, tmp_path, capsys):
        model_path = tmp_path / "model.npz"
        main(["train", "--data", str(ms_dataset), "--topology", "mlp",
              "--epochs", "1", "--out", str(model_path)])
        capsys.readouterr()
        code = main(["table2", "--model", str(model_path),
                     "--samples", "1000"])
        assert code == 0
        output = capsys.readouterr().out
        for name in ("Nano (CPU)", "Nano (GPU)", "TX2 (CPU)", "TX2 (GPU)"):
            assert name in output


class TestNmrCampaign:
    def test_campaign_written(self, tmp_path, capsys):
        path = tmp_path / "campaign.npz"
        code = main(["nmr-campaign", "--spectra-per-plateau", "2",
                     "--out", str(path)])
        assert code == 0
        arrays, _ = read_archive(path)
        assert arrays["x"].shape == (54, 1700)  # 27 plateaus x 2
        assert arrays["y"].shape == (54, 4)


class TestUncertaintyDemo:
    def test_demo_serves_or_abstains_every_request(self, capsys):
        code = main(["uncertainty", "--demo", "--n", "64", "--epochs", "1",
                     "--members", "2"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        summary = [line for line in lines if line.startswith("served:")]
        assert len(summary) == 1
        words = summary[0].split()
        served = int(words[words.index("served:") + 1])
        abstained = int(words[words.index("abstained:") + 1])
        assert served + abstained == 16
        assert "abstention rate: " in summary[0]
        assert summary[0].endswith("%")


class TestCache:
    @pytest.fixture()
    def cache_dir(self, tmp_path):
        from repro.compute import ArtifactCache
        from repro.compute.cache import get_or_compute

        root = tmp_path / "cache"
        get_or_compute(
            ArtifactCache(root),
            {"kind": "demo", "n": 4, "seed": 0},
            lambda: {"x": np.arange(4.0), "y": np.ones((4, 1))},
        )
        return root

    def test_stats_lists_entries(self, cache_dir, capsys):
        code = main(["cache", "stats", "--dir", str(cache_dir)])
        assert code == 0
        output = capsys.readouterr().out
        assert "entries: 1" in output
        assert "bytes" in output

    def test_verify_clean_cache(self, cache_dir, capsys):
        code = main(["cache", "verify", "--dir", str(cache_dir)])
        assert code == 0
        output = capsys.readouterr().out
        assert "verified 1 entries, 0 corrupt" in output

    def test_verify_corrupt_exits_nonzero(self, cache_dir, capsys):
        entry = next(cache_dir.glob("*.npz.env"))
        blob = bytearray(entry.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        entry.write_bytes(bytes(blob))
        code = main(["cache", "verify", "--dir", str(cache_dir)])
        assert code == 1
        output = capsys.readouterr().out
        assert "1 corrupt" in output
        assert (cache_dir / "quarantine").is_dir()

    def test_clear_removes_entries(self, cache_dir, capsys):
        code = main(["cache", "clear", "--dir", str(cache_dir)])
        assert code == 0
        assert "removed 1 entries" in capsys.readouterr().out
        assert not list(cache_dir.glob("*.npz.env"))

    def test_unknown_action_rejected(self, cache_dir):
        with pytest.raises(SystemExit):
            main(["cache", "prune", "--dir", str(cache_dir)])


class TestParser:
    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_help_lists_commands(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        output = capsys.readouterr().out
        for command in ("ms-generate", "train", "evaluate", "table2",
                        "nmr-campaign", "cache"):
            assert command in output


class TestSweep:
    """The sweep subcommand: plan, journaled run/resume, report."""

    ARGS = [
        "--compounds", "N2,O2",
        "--activations", "relu:softmax,selu:softmax",
        "--sample-sizes", "48",
        "--topologies", "6",
        "--n-eval", "24",
        "--epochs", "1",
        "--seed", "5",
    ]

    def _invoke(self, action, tmp_path, *extra):
        return main([
            "sweep", action,
            "--cache-dir", str(tmp_path / "cache"),
            "--journal", str(tmp_path / "campaign.journal"),
            *self.ARGS, *extra,
        ])

    def test_plan_lists_cells(self, tmp_path, capsys):
        assert self._invoke("plan", tmp_path) == 0
        output = capsys.readouterr().out
        assert "2 cells (0 cached, 2 pending)" in output
        assert "pending  relu-softmax/n48/h6" in output
        assert "pending  selu-softmax/n48/h6" in output

    def test_run_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = self._invoke("run", tmp_path, "--out", str(out))
        assert code == 0
        output = capsys.readouterr().out
        assert "computed 2  cached 0  failed 0" in output
        assert "best cell:" in output
        payload = json.loads(out.read_text())
        assert payload["cells_completed"] == 2
        assert "accuracy_vs_samples" in payload

    def test_paused_run_requires_resume_then_completes(self, tmp_path, capsys):
        assert self._invoke("run", tmp_path, "--max-cells", "1") == 0
        assert "paused with cells pending" in capsys.readouterr().out

        # reopening without --resume is refused
        assert self._invoke("run", tmp_path) == 1
        assert "refused:" in capsys.readouterr().out

        assert self._invoke("run", tmp_path, "--resume") == 0
        assert "computed 1  cached 1" in capsys.readouterr().out

    def test_resumed_report_matches_uninterrupted_run(self, tmp_path, capsys):
        self._invoke("run", tmp_path, "--max-cells", "1")
        resumed = tmp_path / "resumed.json"
        self._invoke("run", tmp_path, "--resume", "--out", str(resumed))

        control_dir = tmp_path / "control"
        control = tmp_path / "control.json"
        assert main([
            "sweep", "run",
            "--cache-dir", str(control_dir / "cache"),
            "--journal", str(control_dir / "campaign.journal"),
            *self.ARGS, "--out", str(control),
        ]) == 0
        capsys.readouterr()
        assert resumed.read_text() == control.read_text()

    def test_report_refuses_incomplete_campaign(self, tmp_path, capsys):
        self._invoke("run", tmp_path, "--max-cells", "1")
        capsys.readouterr()
        assert self._invoke("report", tmp_path) == 1
        assert "incomplete:" in capsys.readouterr().out

    def test_partial_report_renders(self, tmp_path, capsys):
        self._invoke("run", tmp_path, "--max-cells", "1")
        capsys.readouterr()
        assert self._invoke("report", tmp_path, "--partial") == 0
        assert "1/2 cells" in capsys.readouterr().out

    @pytest.mark.parametrize("activations", ["foo:softmax", "relu"])
    @pytest.mark.parametrize("action", ["plan", "run"])
    def test_bad_activations_refused(self, action, activations, tmp_path,
                                     capsys):
        code = self._invoke(action, tmp_path, "--activations", activations)
        assert code != 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid sweep spec: ")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "cache").exists()
        assert not (tmp_path / "campaign.journal").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--activations", "relu:softmax,relu:softmax"),
        ("--sample-sizes", "48,48"),
        ("--topologies", "6,6"),
    ])
    @pytest.mark.parametrize("action", ["plan", "run"])
    def test_repeated_grid_values_refused(self, action, flag, value,
                                          tmp_path, capsys):
        code = self._invoke(action, tmp_path, flag, value)
        assert code != 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid sweep spec: ")
        assert "repeats" in captured.err
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--workers", "0"),
        ("--max-cells", "-1"),
    ])
    def test_out_of_range_run_counts_refused(self, flag, value, tmp_path,
                                             capsys):
        code = self._invoke("run", tmp_path, "--backend", "process", flag,
                            value)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"invalid sweep option: {flag} must be >= "
            f"{1 if flag == '--workers' else 0}, got {value}\n"
        )
        # Refused before the prewarm wrote any dataset entry.
        assert not (tmp_path / "cache").exists()
        assert not (tmp_path / "campaign.journal").exists()

    @pytest.mark.parametrize("action", ["plan", "run"])
    def test_unknown_compound_refused(self, action, tmp_path, capsys):
        code = self._invoke(action, tmp_path, "--compounds", "N2,XX")
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid sweep spec: unknown compound")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "cache").exists()

    def test_report_renders_surfaces(self, tmp_path, capsys):
        self._invoke("run", tmp_path)
        capsys.readouterr()
        assert self._invoke("report", tmp_path) == 0
        output = capsys.readouterr().out
        assert "activation (mean mae)" in output
        assert "topology (mean mae)" in output
        assert "n=48" in output

"""Experiment registry, report formatting and the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.registry import EXPERIMENTS, list_experiments, run_experiment
from repro.experiments.report import format_series, format_table


class TestRegistry:
    def test_every_paper_table_and_figure_is_registered(self):
        expected = {f"table{i}" for i in range(1, 6)} | {f"figure{i}" for i in range(1, 15)}
        # The paper-conclusion SAT extension and its policy family.
        expected |= {"sat_flips", "sat_portfolio", "sat_policies"}
        assert expected == set(EXPERIMENTS)

    def test_entries_declare_valid_observation_kinds(self):
        for entry in EXPERIMENTS.values():
            assert entry.observations in (None, "benchmarks", "sat", "sat_policies")
        assert EXPERIMENTS["table1"].observations == "benchmarks"
        assert EXPERIMENTS["figure3"].observations is None
        assert EXPERIMENTS["sat_portfolio"].observations == "sat"
        assert EXPERIMENTS["sat_policies"].observations == "sat_policies"

    def test_list_experiments_descriptions(self):
        listing = dict(list_experiments())
        assert len(listing) == len(EXPERIMENTS)
        assert all(description for description in listing.values())

    def test_run_experiment_model_figure(self):
        result = run_experiment("figure3")
        assert "Figure 3" in result.format()

    def test_run_experiment_with_observations(self, tiny_config, tiny_observations):
        result = run_experiment("table2", tiny_config, observations=tiny_observations)
        assert "Table 2" in result.format()

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("table99")


class TestReportFormatting:
    def test_format_table_alignment_and_title(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, 4.25]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "30" in text and "4.2" in text

    def test_format_table_float_format(self):
        text = format_table(["x"], [[3.14159]], float_format="{:.3f}")
        assert "3.142" in text

    def test_format_series_contains_bars(self):
        text = format_series([1, 2, 4], {"speed-up": [1.0, 1.9, 3.5]}, title="S")
        assert "S" in text
        assert "#" in text
        assert "speed-up" in text

    def test_format_series_without_series(self):
        text = format_series([1, 2], {}, title="empty")
        assert "empty" in text


class TestCLI:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "figure3", "--profile", "tiny"])
        assert args.command == "run"
        assert args.experiments == ["figure3"]

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table5" in out
        assert "figure14" in out

    def test_run_model_figure(self, capsys):
        assert main(["run", "figure5", "--profile", "tiny"]) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_run_unknown_experiment_fails(self, capsys):
        assert main(["run", "figure99", "--profile", "tiny"]) == 2

    def test_run_solver_experiment_tiny_profile(self, capsys, tiny_observations, tiny_cache_dir):
        # The session-scoped fixture has already warmed the disk cache for
        # the tiny profile, so this does not re-run the solvers.
        assert main(["run", "table2", "--profile", "tiny", "--cache", str(tiny_cache_dir)]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_predict_from_file(self, tmp_path, capsys, rng):
        values = rng.exponential(1000.0, 200)
        path = tmp_path / "runtimes.txt"
        path.write_text("\n".join(str(v) for v in values))
        assert main(["predict", "--input", str(path), "--cores", "16", "64"]) == 0
        out = capsys.readouterr().out
        assert "family" in out
        assert "64" in out

    def test_predict_empirical_mode(self, tmp_path, capsys, rng):
        path = tmp_path / "runtimes.txt"
        path.write_text(" ".join(str(v) for v in rng.exponential(10.0, 50)))
        assert main(["predict", "--input", str(path), "--empirical"]) == 0
        assert "empirical" in capsys.readouterr().out

    def test_campaign_command(self, capsys, tiny_cache_dir):
        assert main(["campaign", "--profile", "tiny", "--cache", str(tiny_cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "success-rate" in out

    def test_list_shows_sat_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "sat_flips" in out
        assert "sat_portfolio" in out

    def test_run_sat_experiments(self, capsys, tiny_cache_dir):
        argv = ["run", "sat_flips", "sat_portfolio", "--profile", "tiny"]
        assert main(argv + ["--cache", str(tiny_cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "Sequential WalkSAT flips" in out
        assert "portfolio speed-ups" in out

    def test_campaign_includes_the_sat_workload(self, capsys, tiny_cache_dir):
        assert main(["campaign", "--profile", "tiny", "--cache", str(tiny_cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "3-SAT" in out

    def test_campaign_disk_cache_hits_on_second_invocation(self, tmp_path, capsys):
        assert main(["campaign", "--profile", "tiny", "--cache", str(tmp_path)]) == 0
        files = sorted(tmp_path.glob("observations-*.json"))
        # MS, AI, Costas, the SAT workload, and the three non-default
        # policies of the policy family (walksat shares the SAT entry).
        assert len(files) == 7
        stamps = [f.stat().st_mtime_ns for f in files]
        assert main(["campaign", "--profile", "tiny", "--cache", str(tmp_path)]) == 0
        # A warm cache answers without re-running or re-writing any campaign.
        assert [f.stat().st_mtime_ns for f in sorted(tmp_path.glob("*.json"))] == stamps

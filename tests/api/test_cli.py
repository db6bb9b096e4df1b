"""The `repro` command line: run/sweep/compare/export/cache subcommands.

Drives :func:`repro.cli.main` in-process (argv list + capsys) — the same
entry the ``[project.scripts] repro`` console script invokes.
"""

import csv
import json

import pytest

from repro.cli import main

QUICKSTART_TOML = """\
name = "cli_quickstart"

[scenario]
factory = "charging"
duration_s = 0.05
"""

SWEEP_TOML = """\
name = "cli_sweep"

[scenario]
factory = "charging"
duration_s = 0.05

[sweep]
metric = "harvested_energy"

[sweep.axes]
excitation_frequency_hz = [66.0, 70.0]
"""

COMPARE_TOML = """\
name = "cli_compare"
compare = ["proposed", "reference"]

[scenario]
factory = "charging"
duration_s = 0.02
"""


@pytest.fixture
def experiment_dir(tmp_path):
    (tmp_path / "quickstart.toml").write_text(QUICKSTART_TOML)
    (tmp_path / "sweep.toml").write_text(SWEEP_TOML)
    (tmp_path / "compare.toml").write_text(COMPARE_TOML)
    return tmp_path


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def test_run_twice_reports_cache_hit_with_identical_finals(
    experiment_dir, capsys
):
    argv = [
        "run",
        str(experiment_dir / "quickstart.toml"),
        "--cache-dir",
        str(experiment_dir / "cache"),
        "--json",
    ]
    first = run_json(capsys, argv)
    second = run_json(capsys, argv)
    assert first["cache"] == "miss"
    assert second["cache"] == "hit"
    assert second["finals"] == first["finals"]
    assert second["content_hash"] == first["content_hash"]


def test_cli_run_is_byte_identical_to_the_fluent_study(experiment_dir, capsys):
    from repro import Study, charging_scenario

    report = run_json(
        capsys, ["run", str(experiment_dir / "quickstart.toml"), "--json"]
    )
    run = Study.scenario(charging_scenario(duration_s=0.05)).run()
    assert report["finals"] == {
        name: run.final(name) for name in run.trace_names()
    }


def test_run_text_report_mentions_cache(experiment_dir, capsys):
    assert (
        main(["run", str(experiment_dir / "quickstart.toml")]) == 0
    )
    out = capsys.readouterr().out
    assert "cache: off" in out
    assert "final trace values" in out


def test_sweep_command_ranks_and_caches(experiment_dir, capsys):
    argv = [
        "sweep",
        str(experiment_dir / "sweep.toml"),
        "--cache-dir",
        str(experiment_dir / "cache"),
        "--json",
    ]
    cold = run_json(capsys, argv)
    warm = run_json(capsys, argv)
    assert cold["kind"] == "sweep"
    assert warm["cache"].startswith("hit")
    assert warm["best_score"] == cold["best_score"]
    assert warm["points"] == cold["points"]


def test_sweep_command_rejects_single_run_experiments(experiment_dir, capsys):
    code = main(["sweep", str(experiment_dir / "quickstart.toml")])
    assert code == 2
    assert "sweep experiment" in capsys.readouterr().err


def test_compare_command(experiment_dir, capsys):
    report = run_json(
        capsys, ["compare", str(experiment_dir / "compare.toml"), "--json"]
    )
    assert report["kind"] == "compare"
    assert set(report["cpu_times"]) == {"proposed", "reference"}


def test_export_writes_csv(experiment_dir, capsys):
    out_csv = experiment_dir / "out.csv"
    code = main(
        [
            "export",
            str(experiment_dir / "quickstart.toml"),
            "--csv",
            str(out_csv),
        ]
    )
    assert code == 0
    with out_csv.open() as handle:
        header = next(csv.reader(handle))
    assert header[0] == "time"
    assert "storage_voltage" in header


def test_export_without_csv_errors(experiment_dir, capsys):
    assert main(["export", str(experiment_dir / "quickstart.toml")]) == 2
    assert "--csv" in capsys.readouterr().err


def test_cache_ls_gc_clear(experiment_dir, capsys):
    cache_dir = str(experiment_dir / "cache")
    main(
        [
            "run",
            str(experiment_dir / "quickstart.toml"),
            "--cache-dir",
            cache_dir,
        ]
    )
    capsys.readouterr()

    listing = run_json(capsys, ["cache", "ls", "--cache-dir", cache_dir, "--json"])
    assert listing["stats"]["n_entries"] == 1
    assert listing["entries"][0]["kind"] == "run"

    assert main(["cache", "gc", "--cache-dir", cache_dir]) == 0
    assert "removed 0 entries" in capsys.readouterr().out

    # clear refuses without --yes, then removes with it
    assert main(["cache", "clear", "--cache-dir", cache_dir]) == 2
    capsys.readouterr()
    assert main(["cache", "clear", "--cache-dir", cache_dir, "--yes"]) == 0
    assert "removed 1 entries" in capsys.readouterr().out
    listing = run_json(capsys, ["cache", "ls", "--cache-dir", cache_dir, "--json"])
    assert listing["stats"]["n_entries"] == 0


def test_missing_experiment_file_is_a_config_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.toml")]) == 2
    assert "no such experiment file" in capsys.readouterr().err


def test_unknown_experiment_field_is_named(tmp_path, capsys):
    path = tmp_path / "bad.toml"
    path.write_text("frobnicate = true\n\n[scenario]\nfactory = \"charging\"\n")
    assert main(["run", str(path)]) == 2
    assert "frobnicate" in capsys.readouterr().err


def test_experiment_with_store_url_option_is_rejected(tmp_path, capsys):
    # options are validated by name: a field this version lacks is an error
    path = tmp_path / "old.toml"
    path.write_text(
        '[scenario]\nfactory = "charging"\n\n'
        '[options]\ncache = "readwrite"\nstore_url = "kv://127.0.0.1:7077"\n'
    )
    assert main(["run", str(path)]) == 2
    assert "store_url" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("backend", ["queue", "batched", "process"])
def test_experiment_with_backend_option_is_rejected(
    tmp_path, capsys, command, backend
):
    # every sweep packs same-topology lanes: a stored experiment that still
    # picks a backend is refused by the unknown-field check, naming it
    path = tmp_path / "old.toml"
    path.write_text(
        '[scenario]\nfactory = "charging"\n\n'
        f'[options]\nbackend = "{backend}"\n'
    )
    assert main([command, str(path)]) == 2
    assert "unknown fields ['backend']" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["worker", "kv-serve"])
def test_removed_subcommands_are_unknown(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_experiment_with_lease_timeout_option_is_rejected(tmp_path, capsys):
    path = tmp_path / "old.toml"
    path.write_text(
        '[scenario]\nfactory = "charging"\n\n'
        '[options]\ncache = "readwrite"\nlease_timeout_s = 30.0\n'
    )
    assert main(["run", str(path)]) == 2
    assert "lease_timeout_s" in capsys.readouterr().err


@pytest.mark.parametrize("backend", ["queue", "batched"])
def test_backend_flag_is_unrecognised(experiment_dir, capsys, backend):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", str(experiment_dir / "sweep.toml"), "--backend", backend])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --backend" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "quickstart.toml"],
        ["sweep", "sweep.toml"],
        ["cache", "stats"],
        ["cache", "gc"],
    ],
    ids=["run", "sweep", "cache-stats", "cache-gc"],
)
def test_removed_store_url_flag_is_unrecognised(experiment_dir, argv, capsys):
    argv = [
        str(experiment_dir / arg) if arg.endswith(".toml") else arg for arg in argv
    ]
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--store-url", "kv://127.0.0.1:7077"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --store-url" in capsys.readouterr().err


def test_cache_listing_ignores_stray_directories(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    (cache_dir / "zz" / "notakey").mkdir(parents=True)
    (cache_dir / ".queue" / "pending").mkdir(parents=True)
    # the same report the CI smoke job checks for torn entries
    listing = run_json(capsys, ["cache", "ls", "--cache-dir", str(cache_dir), "--json"])
    assert listing["entries"] == []
    assert listing["stats"]["n_entries"] == 0
    assert listing["stats"]["n_corrupt"] == 0
    assert main(["cache", "gc", "--cache-dir", str(cache_dir)]) == 0
    capsys.readouterr()
    assert (cache_dir / "zz" / "notakey").is_dir()

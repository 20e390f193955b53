import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qptycho import load_dataset, load_state, named_state
from qptycho import cli
from qptycho.cli import main
from qptycho.mitigation import load_calibration

from conftest import JSON_VALUES


def run_cli(*argv):
    return main(list(argv))


def test_prepare_named_state(tmp_path):
    out = tmp_path / "ghz.json"
    assert run_cli("prepare-state", "--kind", "named", "--tag", "ghz", "-n", "3", "--out", str(out)) == 0
    state = load_state(out)
    np.testing.assert_allclose(state.amps, named_state("ghz", 3).amps)
    doc = json.loads(out.read_text())
    assert doc["provenance"] == {"kind": "named", "tag": "ghz"}


def test_prepare_random_state_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run_cli("prepare-state", "--kind", "arbitrary", "-n", "2", "--seed", "5", "--out", str(path)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_protocol_and_estimate_pipeline(tmp_path, capsys):
    state_path = tmp_path / "state.json"
    data_path = tmp_path / "data.json"
    est_path = tmp_path / "estimate.json"
    trace_path = tmp_path / "trace.csv"
    run_cli("prepare-state", "--kind", "named", "--tag", "psi5", "-n", "2", "--out", str(state_path))
    assert run_cli(
        "run-protocol", "--state", str(state_path), "--unitary", "qft",
        "--shots", "8192", "--seed", "3", "--out", str(data_path),
    ) == 0
    dataset = load_dataset(data_path)
    assert dataset.shots_per_circuit == 8192
    assert len(dataset.records) == 6

    assert run_cli(
        "estimate", "--data", str(data_path), "--reference", str(state_path),
        "--seed", "1", "--out", str(est_path), "--trace-out", str(trace_path),
    ) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-2])
    assert summary["fidelity"] > 0.99
    estimate = load_state(est_path)
    assert abs(np.linalg.norm(estimate.amps) - 1.0) < 1e-12
    assert trace_path.read_text().startswith("iteration,beta,distance,fidelity")


def test_exact_shots_sentinel(tmp_path):
    state_path = tmp_path / "state.json"
    data_path = tmp_path / "data.json"
    run_cli("prepare-state", "--kind", "named", "--tag", "w", "-n", "3", "--out", str(state_path))
    assert run_cli(
        "run-protocol", "--state", str(state_path), "--shots", "0", "--out", str(data_path)
    ) == 0
    dataset = load_dataset(data_path)
    assert dataset.shots_per_circuit == 0


def test_exact_runs_without_a_seed_repeat_byte_for_byte(tmp_path):
    # Nothing is sampled, so no entropy is drawn and the seed is recorded as null.
    state_path = tmp_path / "state.json"
    run_cli("prepare-state", "--kind", "named", "--tag", "w", "-n", "3", "--out", str(state_path))
    commands = {
        "cal": ("calibrate", "-n", "3", "--readout-error", "0.025", "--shots", "0"),
        "data": ("run-protocol", "--state", str(state_path), "--shots", "0"),
    }
    for name, argv in commands.items():
        a, b = tmp_path / f"{name}-a.json", tmp_path / f"{name}-b.json"
        for path in (a, b):
            assert run_cli(*argv, "--out", str(path)) == 0
        assert a.read_bytes() == b.read_bytes(), name
    assert json.loads((tmp_path / "cal-a.json").read_text())["provenance"]["seed"] is None
    assert json.loads((tmp_path / "data-a.json").read_text())["seed"] is None


def test_calibrate_and_mitigate(tmp_path):
    state_path = tmp_path / "state.json"
    data_path = tmp_path / "data.json"
    cal_path = tmp_path / "cal.json"
    mit_path = tmp_path / "mitigated.json"
    run_cli("prepare-state", "--kind", "named", "--tag", "ghz", "-n", "2", "--out", str(state_path))
    run_cli(
        "run-protocol", "--state", str(state_path), "--shots", "4096",
        "--readout-error", "0.05", "--seed", "9", "--out", str(data_path),
    )
    assert run_cli(
        "calibrate", "-n", "2", "--readout-error", "0.05", "--shots", "0", "--out", str(cal_path)
    ) == 0
    cal = load_calibration(cal_path)
    assert cal.n == 2
    assert run_cli(
        "mitigate", "--data", str(data_path), "--calibration", str(cal_path), "--out", str(mit_path)
    ) == 0
    mitigated = load_dataset(mit_path)
    assert mitigated.mitigated
    assert load_dataset(data_path).noise_model_id == "symmetric-0.05"


def test_mitigate_takes_no_seed(tmp_path, capsys):
    # Mitigation draws nothing, so a seed as a flag or a config key is an
    # option the command lacks.
    argv = ["mitigate", "--data", "d.json", "--calibration", "c.json", "--out", str(tmp_path / "m.json")]
    with pytest.raises(SystemExit) as exit_info:
        run_cli(*argv, "--seed", "77")
    assert exit_info.value.code == 2
    assert json.loads(capsys.readouterr().err) == {"error": "unrecognized arguments: --seed 77"}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 77}))
    assert run_cli(*argv, "--config", str(config)) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == f"ValueError: config file {config}: mitigate has no option 'seed'"
    assert not (tmp_path / "m.json").exists()


def test_sweep_command(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli(
        "sweep", "-n", "2", "--shots", "0", "--ensemble", "arbitrary",
        "--states", "2", "--runs", "2", "--seed", "4", "--out", str(out),
    ) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,shots,mean_fidelity,std_fidelity"
    assert len(lines) == 2


def test_aqft_study_command(tmp_path):
    out = tmp_path / "aqft.csv"
    assert run_cli(
        "aqft-study", "-n", "3", "-m", "2", "--shots", "0", "--runs", "2",
        "--seed", "4", "--out", str(out),
    ) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "state,n,m,mean_fidelity,std_fidelity"
    assert len(lines) == 6


def test_unitary_flag_variants(tmp_path):
    state_path = tmp_path / "state.json"
    run_cli("prepare-state", "--kind", "named", "--tag", "psi1_n", "-n", "3", "--out", str(state_path))
    for unitary in ("aqft:2", "hadamard", "separable"):
        data_path = tmp_path / f"{unitary.replace(':', '_')}.json"
        assert run_cli(
            "run-protocol", "--state", str(state_path), "--unitary", unitary,
            "--shots", "0", "--seed", "2", "--out", str(data_path),
        ) == 0
    separable = load_dataset(tmp_path / "separable.json")
    assert separable.unitary.kind == "separable"
    assert len(separable.unitary.angles) == 3


def test_error_is_machine_readable(tmp_path, capsys):
    code = run_cli("run-protocol", "--state", str(tmp_path / "missing.json"), "--out", str(tmp_path / "x.json"))
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert "error" in err


def test_bad_unitary_rejected(tmp_path, capsys):
    state_path = tmp_path / "state.json"
    run_cli("prepare-state", "--kind", "named", "--tag", "ghz", "-n", "2", "--out", str(state_path))
    code = run_cli(
        "run-protocol", "--state", str(state_path), "--unitary", "dft",
        "--out", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "error" in json.loads(capsys.readouterr().err.strip())


def test_unknown_state_tag_is_one_value_error_line(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert run_cli("prepare-state", "-n", "2", "--tag", "foo", "--out", str(out)) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == (
        "ValueError: unknown state tag 'foo', expected one of psi1, psi2, psi3, psi4, psi5, psi6, "
        "psi7, psi8, psi9, psi10, psi1_n, psi2_n, psi3_n, psi4_n, psi5_n, ghz, w"
    )
    assert not out.exists()


def test_table_sweep_rejects_n_1_before_any_cell(tmp_path, capsys, engine_passes):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ensemble": "table"}))
    out = tmp_path / "s.csv"
    assert run_cli("sweep", "-n", "3", "1", "--config", str(config), "--out", str(out)) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ValueError: n_values must hold integers >= 2, got 1"
    assert engine_passes == [] and not out.exists()


def test_missing_required_option(tmp_path, capsys):
    code = run_cli("prepare-state", "--kind", "named", "--tag", "ghz", "-n", "2")
    assert code == 2
    assert "--out" in json.loads(capsys.readouterr().err.strip())["error"]


def test_config_file_supplies_defaults(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"qubits": 2, "tag": "ghz", "kind": "named"}))
    out = tmp_path / "state.json"
    assert run_cli("prepare-state", "--config", str(config), "--out", str(out)) == 0
    np.testing.assert_allclose(load_state(out).amps, named_state("ghz", 2).amps)


def test_flag_overrides_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"qubits": 2, "tag": "ghz", "kind": "named"}))
    out = tmp_path / "state.json"
    assert run_cli(
        "prepare-state", "--config", str(config), "--tag", "psi7", "--out", str(out)
    ) == 0
    np.testing.assert_allclose(load_state(out).amps, named_state("psi7", 2).amps)


@pytest.mark.parametrize("argv, config, keys", [
    (("sweep", "-n", "2"), {"full_scale": True}, "'full_scale'"),
    (("sweep", "-n", "2"), {"repeats": 5, "runs": 2}, "'repeats'"),
    (("prepare-state", "-n", "2"), {"qubit": 3, "tag": "ghz"}, "'qubit'"),
    (("calibrate", "-n", "2"), {"readout-error": 0.1, "Shots": 0}, "'Shots', 'readout-error'"),
    (("prepare-state", "-n", "2", "--tag", "ghz"), {"command": "calibrate"}, "'command'"),
    (("prepare-state", "-n", "2", "--tag", "ghz"), {"config": "other.json"}, "'config'"),
], ids=["full_scale", "other-command", "misspelt", "two-keys", "command", "config"])
def test_config_key_that_no_option_reads_is_rejected(tmp_path, capsys, argv, config, keys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run_cli(*argv, "--config", str(path), "--out", str(out)) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == (
        f"ValueError: config file {path}: {argv[0]} has no option {keys}"
    )
    assert not out.exists()


# The full 100 x 100 scale has no switch of its own: it is --states 100 --runs 100.
@pytest.mark.parametrize("flags, config, count", [
    ((), {}, 20),
    (("--states", "100", "--runs", "100"), {}, 100),
    ((), {"states": 100, "runs": 100}, 100),
    (("--states", "100"), {"states": 3, "runs": 100}, 100),
    (("--states", "3"), {"runs": 4}, None),
])
def test_sweep_full_scale_from_flag_or_config(tmp_path, monkeypatch, flags, config, count):
    captured = []
    monkeypatch.setattr(cli, "run_fidelity_sweep", lambda cfg: captured.append(cfg) or [])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run_cli(
        "sweep", "-n", "2", *flags, "--config", str(path), "--out", str(tmp_path / "s.csv")
    ) == 0
    (cfg,) = captured
    expected = (count, count) if count is not None else (3, 4)
    assert (cfg.states_per_n, cfg.runs_per_state) == expected


def test_estimate_rejects_nan_beta0(tmp_path, capsys):
    state_path = tmp_path / "state.json"
    data_path = tmp_path / "data.json"
    run_cli("prepare-state", "--kind", "named", "--tag", "ghz", "-n", "2", "--out", str(state_path))
    run_cli("run-protocol", "--state", str(state_path), "--shots", "0", "--out", str(data_path))
    capsys.readouterr()
    code = run_cli(
        "estimate", "--data", str(data_path), "--beta0", "nan", "--out", str(tmp_path / "e.json")
    )
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert "beta0" in json.loads(lines[0])["error"]
    assert not (tmp_path / "e.json").exists()


def test_estimate_rejects_a_delta_beta_that_overflows_the_iteration_count(tmp_path, capsys):
    state_path = tmp_path / "state.json"
    data_path = tmp_path / "data.json"
    run_cli("prepare-state", "--kind", "named", "--tag", "ghz", "-n", "2", "--out", str(state_path))
    run_cli("run-protocol", "--state", str(state_path), "--shots", "0", "--out", str(data_path))
    capsys.readouterr()
    code = run_cli(
        "estimate", "--data", str(data_path), "--delta-beta", "1e-310", "--out", str(tmp_path / "e.json")
    )
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error.startswith("ValueError: ") and "delta_beta" in error
    assert not (tmp_path / "e.json").exists()


def test_estimate_rejects_a_schedule_of_no_iterations(tmp_path, capsys):
    # round(0.01 / 0.04) is 0: the estimate file was once written before an IndexError.
    state_path = tmp_path / "state.json"
    data_path = tmp_path / "data.json"
    run_cli("prepare-state", "--kind", "named", "--tag", "ghz", "-n", "2", "--out", str(state_path))
    run_cli("run-protocol", "--state", str(state_path), "--shots", "0", "--out", str(data_path))
    capsys.readouterr()
    code = run_cli(
        "estimate", "--data", str(data_path), "--beta0", "0.01", "--out", str(tmp_path / "e.json")
    )
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error.startswith("ValueError: ") and "beta0 / delta_beta" in error
    assert not (tmp_path / "e.json").exists()


@pytest.mark.parametrize("command", ["run-protocol", "calibrate"])
def test_shot_budget_past_int64_is_one_value_error_line(tmp_path, capsys, command):
    state_path, out = tmp_path / "state.json", tmp_path / "out.json"
    run_cli("prepare-state", "--kind", "named", "--tag", "ghz", "-n", "2", "--out", str(state_path))
    capsys.readouterr()
    inputs = {"run-protocol": ["--state", str(state_path)], "calibrate": ["-n", "2", "--readout-error", "0.1"]}
    code = run_cli(command, *inputs[command], "--shots", str(1 << 63), "--seed", "1", "--out", str(out))
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert [json.loads(line)["error"] for line in lines] == [
        f"ValueError: shots must be at most 2^63 - 1, the most numpy draws, got {1 << 63}"
    ]
    assert not out.exists()


def test_config_iterations_must_be_an_integer(tmp_path, capsys):
    state_path = tmp_path / "state.json"
    data_path = tmp_path / "data.json"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"iterations": "20"}))
    run_cli("prepare-state", "--kind", "named", "--tag", "ghz", "-n", "2", "--out", str(state_path))
    run_cli("run-protocol", "--state", str(state_path), "--shots", "0", "--out", str(data_path))
    capsys.readouterr()
    code = run_cli(
        "estimate", "--config", str(config), "--data", str(data_path),
        "--out", str(tmp_path / "e.json"),
    )
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error == f"ValueError: config file {config}: iterations must be an integer, got '20'"
    assert not (tmp_path / "e.json").exists()


def test_aqft_degree_error_is_the_same_for_every_command(tmp_path, capsys):
    state_path = tmp_path / "state.json"
    run_cli("prepare-state", "--kind", "named", "--tag", "ghz", "-n", "2", "--out", str(state_path))
    capsys.readouterr()
    commands = [
        ("run-protocol", "--state", str(state_path), "--unitary", "aqft:x",
         "--out", str(tmp_path / "d.json")),
        ("sweep", "-n", "2", "--unitary", "aqft:x", "--out", str(tmp_path / "s.csv")),
    ]
    for argv in commands:
        assert run_cli(*argv) == 2
        error = json.loads(capsys.readouterr().err.strip())["error"]
        assert "bad aqft degree in 'aqft:x'; use aqft:<m>" in error


def test_bad_payload_is_one_json_error_line(tmp_path, capsys):
    state_path, data_path = tmp_path / "state.json", tmp_path / "data.json"
    cal_path = tmp_path / "cal.json"
    run_cli("prepare-state", "--kind", "named", "--tag", "ghz", "-n", "2", "--out", str(state_path))
    run_cli("run-protocol", "--state", str(state_path), "--shots", "64", "--out", str(data_path))
    run_cli("calibrate", "-n", "2", "--shots", "0", "--out", str(cal_path))
    doc = json.loads(data_path.read_text())
    doc["records"][0]["counts"]["data"] = "not base64!"
    data_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = run_cli(
        "mitigate", "--data", str(data_path), "--calibration", str(cal_path),
        "--out", str(tmp_path / "m.json"),
    )
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error.startswith("ValueError: dataset file ")
    assert "records[0].counts: data is not valid base64" in error
    assert not (tmp_path / "m.json").exists()


def test_calibrate_rejects_bool_readout_error(tmp_path, capsys):
    config, out = tmp_path / "config.json", tmp_path / "cal.json"
    config.write_text(json.dumps({"readout_error": False}))
    assert run_cli("calibrate", "-n", "2", "--config", str(config), "--out", str(out)) == 2
    error = json.loads(capsys.readouterr().err.strip())["error"]
    assert error == f"ValueError: config file {config}: readout_error must be a number, got False"
    assert not out.exists()


# A value no flag could give names the file and the key; 0 is one that -n can give.
@pytest.mark.parametrize("qubits, message", [
    ("2", "config file {config}: qubits must be an integer, got '2'"),
    (2.0, "config file {config}: qubits must be an integer, got 2.0"),
    (True, "config file {config}: qubits must be an integer, got True"),
    (0, "qubit count must be an integer >= 1, got 0"),
], ids=["2", "2.0", "True", "0"])
def test_calibrate_rejects_a_non_integer_qubit_count_from_config(tmp_path, capsys, qubits, message):
    config, out = tmp_path / "config.json", tmp_path / "cal.json"
    config.write_text(json.dumps({"qubits": qubits}))
    assert run_cli("calibrate", "--config", str(config), "--out", str(out)) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ValueError: " + message.format(config=config)
    assert not out.exists()


def test_calibrate_zero_readout_error_writes_the_identity_model(tmp_path):
    out = tmp_path / "cal.json"
    assert run_cli("calibrate", "-n", "2", "--readout-error", "0", "--out", str(out)) == 0
    cal = load_calibration(out)
    assert np.array_equal(cal.register, np.eye(4)) and cal.provenance["model_id"] == "identity"


# Each value below is one that no flag of its option could give.
@pytest.mark.parametrize("argv, config, message", [
    (("prepare-state", "-n", "2", "--seed", "3"), {"kind": "seperable"},
     "kind must be one of 'named', 'separable', 'arbitrary', got 'seperable'"),
    (("prepare-state", "-n", "2"), {"tag": 7}, "tag must be a string, got 7"),
    (("prepare-state", "-n", "2", "--tag", "ghz"), {"out": 7}, "out must be a string, got 7"),
    (("sweep", "-n", "2"), {"shots": 8192}, "shots must be a non-empty list, each an integer, got 8192"),
    (("sweep",), {"qubits": 4}, "qubits must be a non-empty list, each an integer, got 4"),
    (("aqft-study", "-n", "3"), {"degrees": 2}, "degrees must be a non-empty list, each an integer, got 2"),
    (("sweep", "-n", "2"), {"shots": []}, "shots must be a non-empty list, each an integer, got []"),
    (("sweep", "-n", "2"), {"shots": [512, 2.5]},
     "shots must be a non-empty list, each an integer, got [512, 2.5]"),
    (("sweep", "-n", "2"), {"beta0": "2"}, "beta0 must be a number, got '2'"),
    (("sweep", "-n", "2"), {"ensemble": ["table"]},
     "ensemble must be one of 'separable', 'arbitrary', 'table', got ['table']"),
    (("estimate", "--data", "d.json"), {"iterations": None}, "iterations must be an integer, got None"),
    (("calibrate", "-n", "2"), {"readout_error": 10**400}, f"readout_error must be a number, got {10**400}"),
], ids=["kind", "tag", "out", "sweep-shots", "sweep-qubits", "degrees", "empty-list", "list-entry",
        "float-string", "choice-list", "null", "past-float-range"])
def test_config_value_that_no_flag_could_give_is_rejected(tmp_path, capsys, argv, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run_cli(*argv, "--config", str(path), "--out", str(out)) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == f"ValueError: config file {path}: {message}"
    assert not out.exists()


def test_config_values_reach_the_command_as_their_flags_give_them(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "sweep", lambda opts: seen.append(vars(opts)))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"qubits": [2, 3], "shots": [0], "beta0": 3, "unitary": "hadamard"}))
    out = str(tmp_path / "s.csv")
    assert run_cli("sweep", "--config", str(path), "--out", out) == 0
    assert run_cli("sweep", "-n", "2", "3", "--shots", "0", "--beta0", "3", "--unitary", "hadamard",
                   "--out", out) == 0
    from_config, from_flags = seen
    assert type(from_config["beta0"]) is float
    assert {**from_config, "config": None} == from_flags


def commands() -> dict:
    """Each subcommand's parser, by name."""
    parser = cli.build_parser()
    (subparsers,) = (action for action in parser._actions if action.dest == "command")
    return subparsers.choices


def declared_defaults(parser) -> dict:
    """The options of ``parser`` whose declared default is not None."""
    return {
        action.dest: action.default for action in parser._actions
        if action.default is not None and action.dest != "help"
    }


@pytest.mark.parametrize("command", sorted(commands()))
def test_a_config_that_restates_the_declared_defaults_changes_nothing(tmp_path, monkeypatch, command):
    seen = []
    monkeypatch.setitem(cli._COMMANDS, command, lambda opts: seen.append(vars(opts)))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(declared_defaults(commands()[command])))
    out = str(tmp_path / "out")
    assert run_cli(command, "--config", str(path), "--out", out) == 0
    assert run_cli(command, "--out", out) == 0
    with_config, without = seen
    assert {**with_config, "config": None} == without
    assert commands()[command].format_help().startswith(f"usage: qptycho {command} ")


@pytest.mark.parametrize("argv", [
    ("prepare-state", "-n", "2", "--tag", "ghz"),
    ("calibrate", "-n", "2", "--readout-error", "0.1", "--shots", "64", "--seed", "5"),
    ("sweep", "-n", "2"),
], ids=lambda argv: argv[0])
def test_restated_defaults_write_the_same_file(tmp_path, monkeypatch, argv):
    # The sweep is stubbed: its CSV then holds the whole config the command built.
    monkeypatch.setattr(cli, "run_fidelity_sweep", lambda cfg: [(repr(cfg),)])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(declared_defaults(commands()[argv[0]])))
    with_config, without = tmp_path / "a", tmp_path / "b"
    assert run_cli(*argv, "--config", str(path), "--out", str(with_config)) == 0
    assert run_cli(*argv, "--out", str(without)) == 0
    assert with_config.read_bytes() == without.read_bytes()


#: A working config per fuzzed command, at n = 2.
FUZZ_BASES = {
    "prepare-state": {"kind": "named", "tag": "ghz", "qubits": 2, "seed": 1},
    "calibrate": {"qubits": 2, "readout_error": 0.025, "shots": 16, "seed": 1},
}


@st.composite
def fuzzed_configs(draw):
    command = draw(st.sampled_from(sorted(FUZZ_BASES)))
    options = sorted(a.dest for a in commands()[command]._actions if a.dest not in ("help", "config"))
    changes = draw(st.dictionaries(st.sampled_from(options), JSON_VALUES, max_size=3))
    return command, {**FUZZ_BASES[command], **changes}


@settings(max_examples=80, deadline=None)
@given(case=fuzzed_configs())
@example(case=("prepare-state", {**FUZZ_BASES["prepare-state"], "tag": 7}))
@example(case=("prepare-state", {**FUZZ_BASES["prepare-state"], "out": 7}))
@example(case=("prepare-state", {**FUZZ_BASES["prepare-state"], "kind": "seperable"}))
@example(case=("calibrate", {**FUZZ_BASES["calibrate"], "readout_error": 10**400}))
def test_any_config_value_gives_a_file_or_one_error_line(tmp_path_factory, case):
    command, config = case
    tmp = tmp_path_factory.mktemp("fuzz")
    path, out = tmp / "config.json", tmp / "out.json"
    path.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run_cli(command, "--config", str(path), "--out", str(out))
    if code == 0:
        assert out.exists()
        return
    assert code == 2
    lines = err.getvalue().splitlines()
    assert len(lines) == 1
    assert not json.loads(lines[0])["error"].startswith(("TypeError", "AttributeError"))
    assert not out.exists()

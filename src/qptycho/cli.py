"""Command-line interface.

Subcommands cover the full workflow: prepare a state file, run the
measurement protocol into a dataset file, build a calibration, mitigate a
dataset, reconstruct an estimate, and run the batch studies. Every command
is deterministic given its flags and ``--seed``; on failure a single JSON
error line goes to stderr and the exit code is nonzero.
"""
from __future__ import annotations

import argparse
import json
import sys

from .experiments import (
    AQFT_HEADER,
    BENCH_HEADER,
    ENSEMBLES,
    SWEEP_HEADER,
    SweepConfig,
    run_aqft_study,
    run_fidelity_sweep,
    run_timing_bench,
    write_csv,
)
from .mitigation import ReadoutNoiseModel, build_calibration, load_calibration, save_calibration
from .pie import PieConfig, pie_run
from .protocol import (
    generate_dataset,
    load_dataset,
    mitigate_dataset,
    save_dataset,
)
from .seeding import derive_seed
from .stateprep import named_state, random_arbitrary, random_separable
from .states import _integer, load_state, save_state
from .transforms import UnitarySpec


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(json.dumps({"error": message}), file=sys.stderr)
        raise SystemExit(2)


def _aqft_degree(text: str) -> int:
    """The degree m of ``aqft:<m>``."""
    try:
        return int(text.split(":", 1)[1])
    except ValueError:
        raise CliError(f"bad aqft degree in {text!r}; use aqft:<m>")


def parse_unitary(text: str, n: int, seed) -> UnitarySpec:
    """Parse qft | aqft:<m> | hadamard | separable into a spec for n qubits.

    The separable kind draws its per-qubit angles deterministically from the
    command seed; the angles end up serialized in the dataset file.
    """
    text = text.lower()
    if text == "qft":
        return UnitarySpec.qft()
    if text == "hadamard":
        return UnitarySpec.hadamard()
    if text.startswith("aqft:"):
        return UnitarySpec.aqft(_aqft_degree(text))
    if text == "separable":
        return UnitarySpec.random_separable(
            n, derive_seed(seed if seed is not None else 0, "separable-unitary", n)
        )
    raise CliError(f"unknown unitary {text!r}; use qft, aqft:<m>, hadamard, or separable")


def _load_config(path) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise CliError("config file must hold a JSON object")
    return doc


def _resolve(args, config: dict, name: str, default=None):
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in config:
        return config[name]
    return default


def _require(value, flag: str):
    if value is None:
        raise CliError(f"missing required option {flag}")
    return value


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=None, help="master RNG seed")
    p.add_argument("--out", default=None, help="output file path")
    p.add_argument("--config", default=None, help="JSON file with default option values")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qptycho", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare-state", help="write a state file")
    p.add_argument("--kind", choices=("named", "separable", "arbitrary"), default=None)
    p.add_argument("--tag", default=None, help="state tag for --kind named (e.g. ghz, psi5)")
    p.add_argument("-n", "--qubits", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("run-protocol", help="generate a measurement dataset for a state")
    p.add_argument("--state", default=None, help="input state file")
    p.add_argument("--unitary", default=None, help="qft | aqft:<m> | hadamard | separable")
    p.add_argument("--shots", type=int, default=None, help="shots per circuit; 0 = exact")
    p.add_argument(
        "--readout-error", type=float, default=None,
        help="symmetric per-bit readout flip probability (default: noiseless)",
    )
    p.add_argument("--csv", default=None, help="also export the dataset as CSV here")
    _add_common(p)

    p = sub.add_parser("calibrate", help="build a readout calibration matrix")
    p.add_argument("-n", "--qubits", type=int, default=None)
    p.add_argument("--readout-error", type=float, default=None)
    p.add_argument("--shots", type=int, default=None, help="shots per calibration circuit; 0 = exact")
    _add_common(p)

    p = sub.add_parser("mitigate", help="apply a calibration to a dataset")
    p.add_argument("--data", default=None, help="input dataset file")
    p.add_argument("--calibration", default=None, help="calibration file")
    _add_common(p)

    p = sub.add_parser("estimate", help="reconstruct a state from a dataset")
    p.add_argument("--data", default=None, help="input dataset file")
    p.add_argument("--reference", default=None, help="optional reference state file")
    p.add_argument("--beta0", type=float, default=None)
    p.add_argument("--delta-beta", type=float, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--shuffle-seed", type=int, default=None)
    p.add_argument("--trace-out", default=None, help="write per-iteration CSV here")
    _add_common(p)

    p = sub.add_parser("sweep", help="fidelity sweep over qubit counts and shot budgets")
    p.add_argument("-n", "--qubits", type=int, nargs="+", default=None)
    p.add_argument("--shots", type=int, nargs="+", default=None)
    p.add_argument("--ensemble", choices=ENSEMBLES, default=None)
    p.add_argument("--states", type=int, default=None, help="states per qubit count")
    p.add_argument("--runs", type=int, default=None, help="engine runs per state")
    p.add_argument("--unitary", default=None)
    p.add_argument("--beta0", type=float, default=None)
    p.add_argument("--delta-beta", type=float, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument(
        "--full-scale", action="store_true",
        help="use 100 states x 100 runs instead of the 20 x 20 default",
    )
    _add_common(p)

    p = sub.add_parser("aqft-study", help="benchmark states vs approximation degree")
    p.add_argument("-n", "--qubits", type=int, nargs="+", default=None)
    p.add_argument("-m", "--degrees", type=int, nargs="+", default=None)
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--runs", type=int, default=None)
    p.add_argument("--delta-beta", type=float, default=None)
    p.add_argument("--iterations", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("bench", help="wall-clock benchmark of the reconstruction engine")
    p.add_argument("-n", "--qubits", type=int, nargs="+", default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--shots", type=int, default=None)
    _add_common(p)

    return parser


def _cmd_prepare_state(args, cfg, out):
    kind = _resolve(args, cfg, "kind", "named")
    n = _require(_resolve(args, cfg, "qubits"), "--qubits")
    seed = _resolve(args, cfg, "seed")
    if kind == "named":
        tag = _require(_resolve(args, cfg, "tag"), "--tag")
        state = named_state(tag, n)
        provenance = {"kind": "named", "tag": tag.lower()}
    elif kind == "separable":
        state = random_separable(n, seed)
        provenance = {"kind": "separable", "seed": seed}
    else:
        state = random_arbitrary(n, seed)
        provenance = {"kind": "arbitrary", "seed": seed}
    save_state(state, out, provenance=provenance)


def _cmd_run_protocol(args, cfg, out):
    state = load_state(_require(_resolve(args, cfg, "state"), "--state"))
    seed = _resolve(args, cfg, "seed")
    shots = _resolve(args, cfg, "shots", 2**13)
    unitary = parse_unitary(_resolve(args, cfg, "unitary", "qft"), state.n, seed)
    eps = _resolve(args, cfg, "readout_error")
    noise = (
        ReadoutNoiseModel.symmetric(state.n + 1, eps) if eps is not None else None
    )
    dataset = generate_dataset(state, unitary, shots, noise=noise, seed=seed)
    save_dataset(dataset, out)
    csv_path = _resolve(args, cfg, "csv")
    if csv_path is not None:
        from .protocol import dataset_to_csv

        dataset_to_csv(dataset, csv_path)


def _cmd_calibrate(args, cfg, out):
    # A config file can hold any JSON value; check it before n + 1 below.
    n = _require(_resolve(args, cfg, "qubits"), "--qubits")
    n = _integer(n, "qubit count must be an integer", 1)
    eps = _resolve(args, cfg, "readout_error", 0.0)
    shots = _resolve(args, cfg, "shots", 0)
    seed = _resolve(args, cfg, "seed")
    model = ReadoutNoiseModel.symmetric(n + 1, eps)  # rejects a bool or non-real eps
    if eps == 0.0:
        model = ReadoutNoiseModel.identity(n + 1)
    cal = build_calibration(n, model, shots, seed=seed)
    save_calibration(cal, out)


def _cmd_mitigate(args, cfg, out):
    dataset = load_dataset(_require(_resolve(args, cfg, "data"), "--data"))
    cal = load_calibration(_require(_resolve(args, cfg, "calibration"), "--calibration"))
    save_dataset(mitigate_dataset(dataset, cal), out)


def _cmd_estimate(args, cfg, out):
    dataset = load_dataset(_require(_resolve(args, cfg, "data"), "--data"))
    ref_path = _resolve(args, cfg, "reference")
    reference = load_state(ref_path) if ref_path is not None else None
    pie_cfg = PieConfig(
        beta0=_resolve(args, cfg, "beta0", 2.0),
        delta_beta=_resolve(args, cfg, "delta_beta", 0.04),
        iterations=_resolve(args, cfg, "iterations"),
        shuffle_seed=_resolve(args, cfg, "shuffle_seed"),
        init_seed=_resolve(args, cfg, "seed", 0),
    )
    estimate, trace = pie_run(dataset, pie_cfg, reference=reference)
    save_state(estimate, out, provenance={"source": "estimate", "init_seed": pie_cfg.init_seed})
    trace_path = _resolve(args, cfg, "trace_out")
    if trace_path is not None:
        trace.to_csv(trace_path)
    last = trace.rows[-1]
    summary = {"iterations": last.iteration, "distance": last.distance}
    if last.fidelity is not None:
        summary["fidelity"] = last.fidelity
    print(json.dumps(summary))


def _sweep_pie(args, cfg) -> PieConfig:
    return PieConfig(
        beta0=_resolve(args, cfg, "beta0", 2.0),
        delta_beta=_resolve(args, cfg, "delta_beta", 0.1),
        iterations=_resolve(args, cfg, "iterations"),
    )


def _cmd_sweep(args, cfg, out):
    unitary = _resolve(args, cfg, "unitary", "qft").lower()
    family, aqft_m = unitary, None
    if unitary.startswith("aqft:"):
        family, aqft_m = "aqft", _aqft_degree(unitary)
    full_scale = bool(_resolve(args, cfg, "full_scale", False))
    default_count = 100 if full_scale else 20
    sweep_cfg = SweepConfig(
        n_values=tuple(_require(_resolve(args, cfg, "qubits"), "--qubits")),
        ensemble=_resolve(args, cfg, "ensemble", "arbitrary"),
        states_per_n=_resolve(args, cfg, "states", default_count),
        runs_per_state=_resolve(args, cfg, "runs", default_count),
        shots=tuple(_resolve(args, cfg, "shots", [2**13])),
        unitary_family=family,
        aqft_m=aqft_m,
        pie=_sweep_pie(args, cfg),
        master_seed=_resolve(args, cfg, "seed", 0),
    )
    write_csv(out, SWEEP_HEADER, run_fidelity_sweep(sweep_cfg))


def _cmd_aqft_study(args, cfg, out):
    n_values = _require(_resolve(args, cfg, "qubits"), "--qubits")
    m_values = _require(_resolve(args, cfg, "degrees"), "--degrees")
    pie_cfg = PieConfig(
        delta_beta=_resolve(args, cfg, "delta_beta", 0.04),
        iterations=_resolve(args, cfg, "iterations"),
    )
    rows = run_aqft_study(
        n_values,
        m_values,
        shots=_resolve(args, cfg, "shots", 20_000),
        runs_per_state=_resolve(args, cfg, "runs", 10),
        pie=pie_cfg,
        master_seed=_resolve(args, cfg, "seed", 0),
    )
    write_csv(out, AQFT_HEADER, rows)


def _cmd_bench(args, cfg, out):
    rows = run_timing_bench(
        _require(_resolve(args, cfg, "qubits"), "--qubits"),
        iterations=_resolve(args, cfg, "iterations", 20),
        repeats=_resolve(args, cfg, "repeats", 10),
        shots=_resolve(args, cfg, "shots", 2**13),
        master_seed=_resolve(args, cfg, "seed", 0),
    )
    write_csv(out, BENCH_HEADER, rows)


_COMMANDS = {
    "prepare-state": _cmd_prepare_state,
    "run-protocol": _cmd_run_protocol,
    "calibrate": _cmd_calibrate,
    "mitigate": _cmd_mitigate,
    "estimate": _cmd_estimate,
    "sweep": _cmd_sweep,
    "aqft-study": _cmd_aqft_study,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        out = _require(_resolve(args, cfg, "out"), "--out")
        _COMMANDS[args.command](args, cfg, out)
        print(f"wrote {out}")
    except SystemExit:
        raise
    except Exception as exc:  # deliberate catch-all: one JSON error line, nonzero exit
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

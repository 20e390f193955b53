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
    AQFT_HEADER, ENSEMBLES, SWEEP_HEADER, SweepConfig, run_aqft_study, run_fidelity_sweep, write_csv,
)
from .mitigation import ReadoutNoiseModel, build_calibration, load_calibration, save_calibration
from .pie import PieConfig, pie_run
from .protocol import dataset_to_csv, generate_dataset, load_dataset, mitigate_dataset, save_dataset
from .seeding import derive_seed
from .stateprep import named_state, random_arbitrary, random_separable
from .states import _integer, _json_object, _load, load_state, save_state
from .transforms import UnitarySpec


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(json.dumps({"error": message}), file=sys.stderr)
        raise SystemExit(2)


def _require(value, flag: str):
    if value is None:
        raise CliError(f"missing required option {flag}")
    return value


def _add_common(p: argparse.ArgumentParser, seed=None):
    p.add_argument("--seed", type=int, default=seed, help="master RNG seed")
    p.add_argument("--out", default=None, help="output file path")
    p.add_argument("--config", default=None, help="JSON file with default option values")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qptycho", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare-state", help="write a state file")
    p.add_argument("--kind", choices=("named", "separable", "arbitrary"), default="named")
    p.add_argument("--tag", default=None, help="state tag for --kind named (e.g. ghz, psi5)")
    p.add_argument("-n", "--qubits", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("run-protocol", help="generate a measurement dataset for a state")
    p.add_argument("--state", default=None, help="input state file")
    p.add_argument("--unitary", default="qft", help="qft | aqft:<m> | hadamard | separable")
    p.add_argument("--shots", type=int, default=2**13, help="shots per circuit; 0 = exact")
    p.add_argument("--readout-error", type=float, default=None,
                   help="symmetric per-bit readout flip probability (default: noiseless)")
    p.add_argument("--csv", default=None, help="also export the dataset as CSV here")
    _add_common(p)

    p = sub.add_parser("calibrate", help="build a readout calibration matrix")
    p.add_argument("-n", "--qubits", type=int, default=None)
    p.add_argument("--readout-error", type=float, default=0.0)
    p.add_argument("--shots", type=int, default=0, help="shots per calibration circuit; 0 = exact")
    _add_common(p)

    p = sub.add_parser("mitigate", help="apply a calibration to a dataset")
    p.add_argument("--data", default=None, help="input dataset file")
    p.add_argument("--calibration", default=None, help="calibration file")
    _add_common(p)

    p = sub.add_parser("estimate", help="reconstruct a state from a dataset")
    p.add_argument("--data", default=None, help="input dataset file")
    p.add_argument("--reference", default=None, help="optional reference state file")
    p.add_argument("--beta0", type=float, default=2.0)
    p.add_argument("--delta-beta", type=float, default=0.04)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--shuffle-seed", type=int, default=None)
    p.add_argument("--trace-out", default=None, help="write per-iteration CSV here")
    _add_common(p, seed=0)

    p = sub.add_parser("sweep", help="fidelity sweep over qubit counts and shot budgets")
    p.add_argument("-n", "--qubits", type=int, nargs="+", default=None)
    p.add_argument("--shots", type=int, nargs="+", default=[2**13])
    p.add_argument("--ensemble", choices=ENSEMBLES, default="arbitrary")
    p.add_argument("--states", type=int, default=20, help="states per qubit count")
    p.add_argument("--runs", type=int, default=20, help="engine runs per state")
    p.add_argument("--unitary", default="qft")
    p.add_argument("--beta0", type=float, default=2.0)
    p.add_argument("--delta-beta", type=float, default=0.1)
    p.add_argument("--iterations", type=int, default=None)
    _add_common(p, seed=0)

    p = sub.add_parser("aqft-study", help="benchmark states vs approximation degree")
    p.add_argument("-n", "--qubits", type=int, nargs="+", default=None)
    p.add_argument("-m", "--degrees", type=int, nargs="+", default=None)
    p.add_argument("--shots", type=int, default=20_000)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--delta-beta", type=float, default=0.04)
    p.add_argument("--iterations", type=int, default=None)
    _add_common(p, seed=0)

    return parser


#: By option ``type``, the JSON values its flag could give (never a bool), and their name.
_FLAG_VALUES = {int: (int, "an integer"), float: ((int, float), "a number"), None: (str, "a string")}


def _config_defaults(parser: argparse.ArgumentParser, command: str, doc) -> dict:
    """``doc`` as defaults for ``parser``'s options, each value as its flag would
    store it. A key that names no option, or a value no flag could give, raises."""
    actions = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    unknown = sorted(set(_json_object(doc)) - set(actions))
    if unknown:
        raise ValueError(f"{command} has no option {', '.join(map(repr, unknown))}")
    defaults = {}
    for key, value in doc.items():
        action = actions[key]
        types, what = _FLAG_VALUES[action.type]
        many = action.nargs == "+"
        items = value if many else [value]
        fits = isinstance(items, list) and items and all(
            isinstance(v, types) and not isinstance(v, bool)
            and (action.choices is None or v in action.choices)
            for v in items
        )
        try:
            if fits:
                items = [float(v) if action.type is float else v for v in items]
        except OverflowError:  # an int past the float range
            fits = False
        if not fits:
            if action.choices is not None:
                what = "one of " + ", ".join(map(repr, action.choices))
            if many:
                what = f"a non-empty list, each {what}"
            raise ValueError(f"{key} must be {what}, got {value!r}")
        defaults[key] = items if many else items[0]
    return defaults


def _cmd_prepare_state(opts):
    n = _require(opts.qubits, "--qubits")
    if opts.kind == "named":
        tag = _require(opts.tag, "--tag")
        state, provenance = named_state(tag, n), {"kind": "named", "tag": tag.lower()}
    else:
        draw = random_separable if opts.kind == "separable" else random_arbitrary
        state, provenance = draw(n, opts.seed), {"kind": opts.kind, "seed": opts.seed}
    save_state(state, opts.out, provenance=provenance)


def _cmd_run_protocol(opts):
    state = load_state(_require(opts.state, "--state"))
    # A separable basis draws its angles from the command seed; the dataset file keeps them.
    seed = derive_seed(opts.seed if opts.seed is not None else 0, "separable-unitary", state.n)
    unitary = UnitarySpec.parse(opts.unitary, state.n, seed)
    eps = opts.readout_error
    noise = ReadoutNoiseModel.symmetric(state.n + 1, eps) if eps is not None else None
    dataset = generate_dataset(state, unitary, opts.shots, noise=noise, seed=opts.seed)
    save_dataset(dataset, opts.out)
    if opts.csv is not None:
        dataset_to_csv(dataset, opts.csv)


def _cmd_calibrate(opts):
    # Checked before the n + 1 bits' model is built: n = -1 would fail there, on the model.
    n = _integer(_require(opts.qubits, "--qubits"), "qubit count must be an integer", 1)
    eps = opts.readout_error
    model = ReadoutNoiseModel.identity(n + 1) if eps == 0.0 else ReadoutNoiseModel.symmetric(n + 1, eps)
    save_calibration(build_calibration(n, model, opts.shots, seed=opts.seed), opts.out)


def _cmd_mitigate(opts):
    dataset = load_dataset(_require(opts.data, "--data"))
    cal = load_calibration(_require(opts.calibration, "--calibration"))
    save_dataset(mitigate_dataset(dataset, cal), opts.out)


def _cmd_estimate(opts):
    dataset = load_dataset(_require(opts.data, "--data"))
    reference = load_state(opts.reference) if opts.reference is not None else None
    pie_cfg = PieConfig(
        beta0=opts.beta0,
        delta_beta=opts.delta_beta,
        iterations=opts.iterations,
        shuffle_seed=opts.shuffle_seed,
        init_seed=opts.seed,
    )
    estimate, trace = pie_run(dataset, pie_cfg, reference=reference)
    provenance = {"source": "estimate", "init_seed": pie_cfg.init_seed}
    save_state(estimate, opts.out, provenance=provenance)
    if opts.trace_out is not None:
        trace.to_csv(opts.trace_out)
    last = trace.rows[-1]
    summary = {"iterations": last.iteration, "distance": last.distance}
    if last.fidelity is not None:
        summary["fidelity"] = last.fidelity
    print(json.dumps(summary))


def _cmd_sweep(opts):
    sweep_cfg = SweepConfig(
        n_values=_require(opts.qubits, "--qubits"),
        ensemble=opts.ensemble,
        states_per_n=opts.states,
        runs_per_state=opts.runs,
        shots=opts.shots,
        unitary_family=opts.unitary,
        pie=PieConfig(beta0=opts.beta0, delta_beta=opts.delta_beta, iterations=opts.iterations),
        master_seed=opts.seed,
    )
    write_csv(opts.out, SWEEP_HEADER, run_fidelity_sweep(sweep_cfg))


def _cmd_aqft_study(opts):
    rows = run_aqft_study(
        _require(opts.qubits, "--qubits"),
        _require(opts.degrees, "--degrees"),
        shots=opts.shots,
        runs_per_state=opts.runs,
        pie=PieConfig(delta_beta=opts.delta_beta, iterations=opts.iterations),
        master_seed=opts.seed,
    )
    write_csv(opts.out, AQFT_HEADER, rows)


_COMMANDS = {
    "prepare-state": _cmd_prepare_state, "run-protocol": _cmd_run_protocol, "calibrate": _cmd_calibrate,
    "mitigate": _cmd_mitigate, "estimate": _cmd_estimate, "sweep": _cmd_sweep, "aqft-study": _cmd_aqft_study,
}


def main(argv=None) -> int:
    parser = build_parser()
    opts = parser.parse_args(argv)
    try:
        if opts.config is not None:
            # The file's values become the command's defaults, so flags given still win.
            subparser = next(a for a in parser._actions if a.dest == "command").choices[opts.command]
            subparser.set_defaults(**_load(
                opts.config, "config", lambda doc: _config_defaults(subparser, opts.command, doc)
            ))
            opts = parser.parse_args(argv)
        _require(opts.out, "--out")
        _COMMANDS[opts.command](opts)
        print(f"wrote {opts.out}")
    except Exception as exc:  # deliberate catch-all: one JSON error line, nonzero exit
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

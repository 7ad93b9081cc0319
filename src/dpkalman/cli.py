"""Command-line front end.

    dpkalman <calibrate|bounds|simulate|dare|compose> --config <path>
             [--kind apriori|aposteriori] [--out CSV] [--summary JSON]
             [--json] [--threads N] [--seed N]

Exit codes: 0 success, 1 validation error, 2 infeasible calibration,
3 numerical failure. With ``--json`` stdout carries exactly one JSON
document; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from .bounds import all_bounds, to_json
from .calibration import CALIBRATORS, CalibrationTarget
from .config import build_agents, build_privacy, load_config
from .errors import (
    ConfigError,
    DPKalmanError,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_VALIDATION,
)
from .filtering import solve_filter
from .linalg import solve_dare  # noqa: F401 (bench/test_bench.py looks it up here)
from .network import compose, per_agent_slices
from .privacy import noise_scales
from .simulation import SimulationConfig, simulate, write_csv


class _Parser(argparse.ArgumentParser):
    # Usage problems are validation errors (exit 1), not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dpkalman", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, func):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--json", action="store_true", help="emit a single JSON document on stdout")
        p.set_defaults(func=func)
        return p

    p = add("calibrate", "select an epsilon interval for a target MSE range", _cmd_calibrate)
    p.add_argument("--kind", choices=list(CALIBRATORS), help="override the configured target kind")

    add("bounds", "evaluate all four error/entropy bound reports", _cmd_bounds)

    p = add("simulate", "run the seeded Monte Carlo experiment", _cmd_simulate)
    p.add_argument("--out", help="write per-step CSV here")
    p.add_argument("--summary", help="write the summary JSON here")
    p.add_argument("--threads", type=int, default=1, help="worker threads (default: 1)")
    p.add_argument("--seed", type=int, help="override the configured seed")

    add("dare", "solve the steady-state Riccati equation and summarize", _cmd_dare)
    add("compose", "compose a multi-agent network and report per-agent traces", _cmd_compose)
    return parser


def _fmt(value) -> str:
    if isinstance(value, bool) or not isinstance(value, float):
        return str(value)
    return format(value, ".6g")


def _print_human(doc: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key, value in doc.items():
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _print_human(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{pad}{key}:")
            for item in value:
                _print_human(item, indent + 1)
                print()
        elif isinstance(value, list):
            print(f"{pad}{key}: [{', '.join(_fmt(v) for v in value)}]")
        else:
            print(f"{pad}{key}: {_fmt(value)}")


@contextlib.contextmanager
def _stdout_reader_may_close():
    try:
        yield
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (e.g. `| head`): that is not an error of
        # the command. Point stdout at the null device so the interpreter's
        # final flush does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _dumps(doc: dict) -> str:
    # one strict JSON document: a non-finite value the JSON rule missed fails here
    return json.dumps(to_json(doc), indent=2, allow_nan=False)


def _emit(doc: dict, as_json: bool) -> None:
    with _stdout_reader_may_close():
        if as_json:
            print(_dumps(doc))
        else:
            _print_human(to_json(doc))


def _need(section, name: str):
    if section is None:
        article = "an" if name[0] in "aeiou" else "a"
        raise ConfigError(f"this command requires {article} '{name}' section in the config")
    return section


def _cmd_calibrate(args, config) -> int:
    system = _need(config.system, "system")
    privacy = _need(config.privacy, "privacy")
    cal = _need(config.calibration, "calibration")
    kind = args.kind or cal.kind
    target = CalibrationTarget(
        kind=kind, B_l=cal.B_l, B_u=cal.B_u,
        delta=privacy.delta, adjacency_B=privacy.adjacency_B,
    )
    interval = CALIBRATORS[kind](system, target)
    doc = {"kind": kind, "B_l": cal.B_l, "B_u": cal.B_u, **interval.to_dict()}
    _emit(doc, args.json)
    if not interval.feasible:
        print("calibration target is infeasible under the sufficient conditions", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _system_and_scales(config):
    # the configured system, its noise scales, and whether they are compliant
    system = _need(config.system, "system")
    privacy = _need(config.privacy, "privacy")
    return (system, *noise_scales(system, privacy.epsilon, privacy.delta,
                                  privacy.adjacency_B, privacy.sigma))


def _cmd_bounds(args, config) -> int:
    system, sigma, compliant = _system_and_scales(config)
    _emit({**all_bounds(system, sigma), "sigma": sigma, "privacy_compliant": compliant}, args.json)
    return EXIT_OK


def _riccati_summary(ric) -> dict:
    return {
        "trace_prior": np.trace(ric.sigma),
        "trace_posterior": np.trace(ric.sigma_bar),
        "logdet_prior": np.linalg.slogdet(ric.sigma)[1],
        "logdet_posterior": np.linalg.slogdet(ric.sigma_bar)[1],
        "iterations": ric.iterations,
        "residual": ric.residual,
    }


def _cmd_dare(args, config) -> int:
    system, sigma, compliant = _system_and_scales(config)
    doc = {**_riccati_summary(solve_filter(system, sigma).riccati), "privacy_compliant": compliant}
    _emit(doc, args.json)
    return EXIT_OK


def _cmd_simulate(args, config) -> int:
    sim = _need(config.simulation, "simulation")
    if config.agents is not None:
        system, privacy = compose(build_agents(config.agents)), None
    else:
        system = _need(config.system, "system")
        privacy = build_privacy(system, _need(config.privacy, "privacy"))
    sim_config = SimulationConfig(
        system=system, privacy=privacy,
        horizon_T=sim.horizon_T, trials=sim.trials,
        seed=args.seed if args.seed is not None else sim.seed,
    )
    # per-step paths are kept only when the CSV needs them
    result = simulate(sim_config, threads=args.threads, paths=bool(args.out))
    if args.out:
        write_csv(result, args.out)
        print(f"wrote {result.trials * result.horizon_T} rows to {args.out}", file=sys.stderr)
    doc = {**result.summary.to_dict(), "seed": result.seed,
           "bound_prior": result.bound_prior, "bound_post": result.bound_post}
    if args.summary:
        with open(args.summary, "w", encoding="ascii", newline="") as fh:
            fh.write(_dumps(doc) + "\n")
    _emit(doc, args.json)
    return EXIT_OK


def _cmd_compose(args, config) -> int:
    network = compose(build_agents(_need(config.agents, "agents")))
    sol = solve_filter(network.system, network.sigma)
    slices = per_agent_slices(network, sol)
    doc = {
        "n": network.system.n,
        "q": network.system.q,
        "agents": [
            {
                "id": agent.id,
                "state_offset": [int(a), int(b)],
                "trace_prior": slices[agent.id][0],
                "trace_posterior": slices[agent.id][1],
            }
            for agent, (a, b) in zip(network.agents, network.offsets)
        ],
        "riccati": _riccati_summary(sol.riccati),
        "bounds": all_bounds(network.system, network.sigma),
    }
    _emit(doc, args.json)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    with _stdout_reader_may_close():  # argparse prints --help itself
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        return args.func(args, load_config(args.config))
    except DPKalmanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front-end.

Subcommands: ``build`` (model summary), ``run`` (best-response dynamics
to the Nash equilibrium), ``sweep`` (equilibria across a list of
weights), ``detect`` (Monte-Carlo ROC of the joint likelihood-ratio
test against a stored equilibrium).

Exit codes: 0 success, 2 usage error, 3 reached t_max without
convergence, 4 input-data error.  Every command is deterministic given
its full flag set; CSV floats are printed with 17 significant digits so
files round-trip doubles losslessly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .detection import llr_samples, threshold_curve
from .dynamics import NonFiniteUpdateError, run_brd
from .games import GameSpec
from .grid import NetworkFormatError, build_dc_jacobian, load_matrix, parse_network
from .metrics import kl_global, mi_global
from .model import StatePriorSpec, build_model, calibrate_noise, toeplitz_cov

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INPUT = 4

__all__ = ["main", "console_main"]


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--case", help="network file (bus/slack/branch format)")
    src.add_argument("--h-matrix", help="dense measurement-matrix file")
    parser.add_argument(
        "--rho",
        type=float,
        required=True,
        help="state-prior correlation decay in [0, 1)",
    )
    noise = parser.add_mutually_exclusive_group(required=True)
    noise.add_argument("--snr-db", type=float, help="target SNR in dB")
    noise.add_argument("--sigma2", type=float, help="noise variance")


def _load_H(args) -> tuple[np.ndarray, str]:
    if args.case is not None:
        with open(args.case, encoding="utf-8") as fh:
            net = parse_network(fh.read())
        return build_dc_jacobian(net).H, args.case
    with open(args.h_matrix, encoding="utf-8") as fh:
        return load_matrix(fh.read()).H, args.h_matrix


def _build_from_args(args):
    H, source = _load_H(args)
    Sigma_XX = toeplitz_cov(StatePriorSpec(n=H.shape[1], rho=args.rho))
    if args.sigma2 is not None:
        sigma2 = args.sigma2
    else:
        sigma2 = calibrate_noise(H, Sigma_XX, args.snr_db)
    return build_model(H, Sigma_XX, sigma2), source


def _game_spec(parser: argparse.ArgumentParser, game: int, lam: float) -> GameSpec:
    try:
        return GameSpec(game=game, lam=lam)
    except ValueError as exc:
        parser.error(str(exc))


def _model_header_lines(args, model, source: str) -> list[str]:
    noise = (
        f"snr_db={_fmt(args.snr_db)}"
        if args.snr_db is not None
        else f"sigma2={_fmt(args.sigma2)}"
    )
    return [
        f"# source={source} rho={_fmt(args.rho)} {noise}",
        f"# m={model.m} n={model.n} sigma2={_fmt(model.sigma2)}",
    ]


def cmd_build(parser, args) -> int:
    model, source = _build_from_args(args)
    summary = {
        "source": source,
        "m": model.m,
        "n": model.n,
        "rho": args.rho,
        "sigma2": model.sigma2,
        "snr_db": model.snr_db(),
        "cond_H": float(np.linalg.cond(model.H)),
        "cond_Sigma_YY": float(np.linalg.cond(model.Sigma_YY)),
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def _write_trajectory(path: str, header: list[str], trajectory, m: int) -> None:
    cols = ["t", "player"] + [f"v_{j + 1}" for j in range(m)]
    cols += ["potential", "mi_global", "kl_global"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in header:
            fh.write(line + "\n")
        fh.write(",".join(cols) + "\n")
        for rec in trajectory:
            row = [str(rec.round), str(rec.player + 1)]
            row += [_fmt(x) for x in rec.v_snapshot]
            row += [_fmt(rec.potential), _fmt(rec.mi_global), _fmt(rec.kl_global)]
            fh.write(",".join(row) + "\n")


def cmd_run(parser, args) -> int:
    spec = _game_spec(parser, args.game, args.lam)
    model, source = _build_from_args(args)
    variant = "literal" if args.br3_literal else "gamma"
    v_star, trajectory, report = run_brd(
        spec,
        model,
        t_max=args.tmax,
        tol=args.tol,
        br3_literal=args.br3_literal,
    )

    header = ["# stealthgame trajectory"]
    header += _model_header_lines(args, model, source)
    header.append(
        f"# game={spec.game} lambda={_fmt(spec.lam)} tmax={args.tmax} "
        f"tol={_fmt(args.tol)} br3={variant}"
    )
    _write_trajectory(f"{args.out}.trajectory.csv", header, trajectory, model.m)

    result = {
        "game": spec.game,
        "lambda": spec.lam,
        "br3_variant": variant,
        "v_star": [float(x) for x in v_star],
        "ne_residual": report.ne_residual,
        "rounds": report.rounds_used,
        "converged": report.converged,
        "potential": trajectory[-1].potential,
        "mi_global": trajectory[-1].mi_global,
        "kl_global": trajectory[-1].kl_global,
    }
    with open(f"{args.out}.ne.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(
        f"game {spec.game} lambda {_fmt(spec.lam)}: "
        f"{'converged' if report.converged else 'NOT converged'} "
        f"in {report.rounds_used} rounds, residual {report.ne_residual:.3e}"
    )
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def cmd_sweep(parser, args) -> int:
    try:
        lambdas = [float(tok) for tok in args.lambda_list.replace(",", " ").split()]
    except ValueError:
        parser.error(f"bad --lambda-list {args.lambda_list!r}")
    if not lambdas:
        parser.error("--lambda-list must contain at least one value")
    specs = [_game_spec(parser, args.game, lam) for lam in lambdas]
    model, source = _build_from_args(args)
    variant = "literal" if args.br3_literal else "gamma"

    ordered = sorted(specs, key=lambda sp: sp.lam)
    results = [
        run_brd(
            spec, model, t_max=args.tmax, tol=args.tol, br3_literal=args.br3_literal
        )
        for spec in ordered
    ]

    tag = variant if args.game == 3 else "-"
    all_converged = True
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# stealthgame lambda sweep\n")
        for line in _model_header_lines(args, model, source):
            fh.write(line + "\n")
        fh.write(f"# game={args.game} tmax={args.tmax} tol={_fmt(args.tol)}\n")
        fh.write("lambda,v_min,v_mean,v_max,mi_global,kl_global,br3_variant\n")
        for spec, (v_star, trajectory, report) in zip(ordered, results):
            all_converged &= report.converged
            fh.write(
                ",".join(
                    [
                        _fmt(spec.lam),
                        _fmt(np.min(v_star)),
                        _fmt(np.mean(v_star)),
                        _fmt(np.max(v_star)),
                        _fmt(trajectory[-1].mi_global),
                        _fmt(trajectory[-1].kl_global),
                        tag,
                    ]
                )
                + "\n"
            )
    return EXIT_OK if all_converged else EXIT_NO_CONVERGENCE


def cmd_detect(parser, args) -> int:
    model, source = _build_from_args(args)
    with open(args.ne, encoding="utf-8") as fh:
        ne = json.load(fh)
    if "v_star" not in ne:
        raise ValueError(f"{args.ne}: missing 'v_star' field")
    v = np.asarray(ne["v_star"], dtype=float)
    if v.size != model.m:
        raise ValueError(
            f"{args.ne}: profile length {v.size} does not match model m={model.m}"
        )

    # A profile whose divergence overflows would overflow the sampler
    # too; reject it before drawing.
    with np.errstate(over="ignore", invalid="ignore"):
        kl = kl_global(model, v)
    if not math.isfinite(kl):
        raise ValueError(f"{args.ne}: 'v_star' gives a non-finite kl_global ({kl})")

    # One draw per hypothesis gives both the threshold grid, spanning
    # the observed LLR range, and the curve.
    llr_null, llr_attacked = llr_samples(model, v, args.samples, args.seed)
    lo = float(min(llr_null.min(), llr_attacked.min()))
    hi = float(max(llr_null.max(), llr_attacked.max()))
    if hi - lo < 1e-9:
        lo, hi = -1.0, 1.0
    log_taus = np.linspace(max(lo - 1e-9, -700.0), min(hi + 1e-9, 700.0), args.grid)
    curve = threshold_curve(llr_null, llr_attacked, np.exp(log_taus))

    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# stealthgame detection curve\n")
        for line in _model_header_lines(args, model, source):
            fh.write(line + "\n")
        fh.write(
            f"# ne={args.ne} n_samples={args.samples} seed={args.seed} "
            f"kl_global={_fmt(kl)}\n"
        )
        fh.write("tau,alpha_hat,beta_hat\n")
        for tau, alpha_hat, beta_hat in curve:
            fh.write(f"{_fmt(tau)},{_fmt(alpha_hat)},{_fmt(beta_hat)}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stealthgame",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a model and print its summary")
    _add_model_args(p_build)
    p_build.set_defaults(func=cmd_build)

    p_run = sub.add_parser("run", help="run best-response dynamics to the NE")
    _add_model_args(p_run)
    p_run.add_argument("--game", type=int, choices=(1, 2, 3), required=True)
    p_run.add_argument("--lambda", type=float, required=True, dest="lam")
    p_run.add_argument("--tmax", type=int, default=100)
    p_run.add_argument("--tol", type=float, default=1e-9)
    p_run.add_argument(
        "--br3-literal",
        action="store_true",
        help="use the literal alpha-paired stationarity condition in game 3",
    )
    p_run.add_argument("--out", required=True, help="output file prefix")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="solve the NE for a list of weights")
    _add_model_args(p_sweep)
    p_sweep.add_argument("--game", type=int, choices=(1, 2, 3), required=True)
    p_sweep.add_argument(
        "--lambda-list", required=True, help="comma- or space-separated weights"
    )
    p_sweep.add_argument("--tmax", type=int, default=100)
    p_sweep.add_argument("--tol", type=float, default=1e-9)
    p_sweep.add_argument("--br3-literal", action="store_true")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_detect = sub.add_parser("detect", help="Monte-Carlo ROC for a stored NE")
    _add_model_args(p_detect)
    p_detect.add_argument("--ne", required=True, help="NE JSON produced by run")
    p_detect.add_argument("--samples", type=int, default=10_000)
    p_detect.add_argument("--seed", type=int, default=0)
    p_detect.add_argument("--grid", type=int, default=101, help="threshold count")
    p_detect.add_argument("--out", required=True, help="output CSV path")
    p_detect.set_defaults(func=cmd_detect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except (
        NetworkFormatError,
        ValueError,  # includes numpy.linalg.LinAlgError
        OSError,
        json.JSONDecodeError,
        NonFiniteUpdateError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()

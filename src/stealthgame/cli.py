"""Command-line front-end.

Subcommands: ``build`` (model summary), ``run`` (best-response dynamics
to the Nash equilibrium), ``sweep`` (equilibria across a list of
weights), ``detect`` (Monte-Carlo ROC of the joint likelihood-ratio
test against a stored equilibrium).

Exit codes: 0 success, 2 usage error, 3 reached t_max without
convergence, 4 input-data error, an input too large for memory included;
one reader names the file in any error about its data.  Every command is
deterministic given its full flag set; CSV floats are printed with 17
significant digits so files round-trip doubles losslessly, and JSON
output has no NaN or infinity.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .detection import MIN_CURVE_SAMPLES, llr_samples, threshold_curve
from .dynamics import DEFAULT_T_MAX, DEFAULT_TOL, NonFiniteUpdateError, run_brd
from .games import GameSpec
from .grid import build_dc_jacobian, load_matrix, parse_network
from .metrics import kl_global, mi_global
from .model import (
    StatePriorSpec,
    as_profile,
    attacked_cov,
    build_model,
    calibrate_noise,
    toeplitz_cov,
)

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


def _read(path: str, parse):
    """``parse`` of the file's UTF-8 text; any error about the text names the
    path, a model too large for memory included."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except (ValueError, RecursionError) as exc:  # deeply nested JSON recurses
        raise ValueError(f"{path}: {exc}") from None
    except MemoryError as exc:
        raise ValueError(f"{path}: {_out_of_memory(exc)}") from None


def _out_of_memory(exc: MemoryError) -> str:
    return f"out of memory: {exc}" if str(exc) else "out of memory"


def _build_from_args(args):
    """The model of the --case or --h-matrix file and the model flags, and
    the file's path, which every error on the way, flag values included, names."""
    def build(text):
        if args.case is not None:
            H = build_dc_jacobian(parse_network(text)).H
        else:
            H = load_matrix(text).H
        Sigma_XX = toeplitz_cov(StatePriorSpec(n=H.shape[1], rho=args.rho))
        sigma2 = args.sigma2
        if sigma2 is None:
            sigma2 = calibrate_noise(H, Sigma_XX, args.snr_db)
        return build_model(H, Sigma_XX, sigma2)

    path = args.case if args.case is not None else args.h_matrix
    return _read(path, build), path


def _add_solver_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--game", type=int, choices=(1, 2, 3), required=True)
    parser.add_argument("--tmax", type=int, default=DEFAULT_T_MAX)
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL)


def _game_spec(parser: argparse.ArgumentParser, args, lam: float) -> GameSpec:
    try:
        return GameSpec(game=args.game, lam=lam)
    except ValueError as exc:
        parser.error(str(exc))


def _header(title: str, args, model, source: str, settings: str) -> list[str]:
    """A CSV file's comment lines: its title, the model and the command's
    own settings."""
    noise = (
        f"snr_db={_fmt(args.snr_db)}"
        if args.snr_db is not None
        else f"sigma2={_fmt(args.sigma2)}"
    )
    return [
        f"# stealthgame {title}",
        f"# source={source} rho={_fmt(args.rho)} {noise}",
        f"# m={model.m} n={model.n} sigma2={_fmt(model.sigma2)}",
        f"# {settings}",
    ]


def cmd_build(parser, args) -> int:
    model, source = _build_from_args(args)
    cond_H = float(np.linalg.cond(model.H))
    Sigma_YY = attacked_cov(model, np.zeros(model.m))
    summary = {
        "source": source,
        "m": model.m,
        "n": model.n,
        "rho": args.rho,
        "sigma2": model.sigma2,
        "snr_db": model.snr_db(),
        "cond_H": cond_H if math.isfinite(cond_H) else None,  # None: H singular
        "cond_Sigma_YY": float(np.linalg.cond(Sigma_YY)),
    }
    print(json.dumps(summary, indent=2, sort_keys=True, allow_nan=False))
    return EXIT_OK


def _write_csv(path: str, header: list[str], columns: list[str], lines):
    """Write the header, the column line, then ``lines``, each ending in a
    newline; ``%.17g`` prints the digits :func:`_fmt` prints."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in [*header, ",".join(columns)])
        fh.writelines(lines)


def _trajectory_lines(trajectory):
    """The trajectory CSV's data lines.  A record's profile differs from
    the previous record's in at most the moved player's cell, so only
    that cell is formatted again; a start record formats every cell."""
    cells = []
    for rec in trajectory:
        if rec.player < 0:
            cells = ["%.17g" % x for x in rec.v_snapshot.tolist()]
        else:
            cells[rec.player] = "%.17g" % rec.end[rec.player]
        yield "%d,%d,%s,%.17g,%.17g,%.17g\n" % (
            rec.round, rec.player + 1, ",".join(cells), rec.potential,
            rec.mi_global, rec.kl_global,
        )


def cmd_run(parser, args) -> int:
    spec = _game_spec(parser, args, args.lam)
    model, source = _build_from_args(args)
    v_star, trajectory, report = run_brd(spec, model, t_max=args.tmax, tol=args.tol)

    settings = (f"game={spec.game} lambda={_fmt(spec.lam)} tmax={args.tmax} "
                f"tol={_fmt(args.tol)}")
    columns = ["t", "player"] + [f"v_{j + 1}" for j in range(model.m)]
    columns += ["potential", "mi_global", "kl_global"]
    header = _header("trajectory", args, model, source, settings)
    _write_csv(f"{args.out}.trajectory.csv", header, columns,
               _trajectory_lines(trajectory))

    result = {
        "game": spec.game,
        "lambda": spec.lam,
        "v_star": [float(x) for x in v_star],
        "ne_residual": report.ne_residual,
        "rounds": report.rounds_used,
        "converged": report.converged,
        "potential": trajectory[-1].potential,
        "mi_global": trajectory[-1].mi_global,
        "kl_global": trajectory[-1].kl_global,
    }
    ne_json = json.dumps(result, indent=2, sort_keys=True, allow_nan=False)
    with open(f"{args.out}.ne.json", "w", encoding="utf-8") as fh:
        fh.write(ne_json + "\n")

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
    specs = [_game_spec(parser, args, lam) for lam in lambdas]
    model, source = _build_from_args(args)

    # Each run is reduced to its row as it returns, so no trajectory
    # outlives its run; the file is written only once every run is done.
    runs = [
        _sweep_row(spec, *run_brd(spec, model, t_max=args.tmax, tol=args.tol))
        for spec in sorted(specs, key=lambda sp: sp.lam)
    ]
    converged, rows = zip(*runs)
    settings = f"game={args.game} tmax={args.tmax} tol={_fmt(args.tol)}"
    header = _header("lambda sweep", args, model, source, settings)
    columns = ["lambda", "v_min", "v_mean", "v_max", "mi_global", "kl_global", "rounds"]
    row = "%.17g," * (len(columns) - 1) + "%d\n"
    _write_csv(args.out, header, columns, (row % r for r in rows))
    return EXIT_OK if all(converged) else EXIT_NO_CONVERGENCE


def _sweep_row(spec: GameSpec, v_star, trajectory, report) -> tuple[bool, tuple]:
    """Whether one sweep run converged, and its CSV row."""
    last = trajectory[-1]
    row = (spec.lam, np.min(v_star), np.mean(v_star), np.max(v_star),
           last.mi_global, last.kl_global, report.rounds_used)
    return report.converged, row


def _read_profile(model, text: str) -> tuple[np.ndarray, float]:
    """An NE file's 'v_star' profile, checked against the model, and its kl_global."""
    ne = json.loads(text)
    if not isinstance(ne, dict) or "v_star" not in ne:
        raise ValueError("expected a JSON object with a 'v_star' field")
    raw = ne["v_star"]
    if not isinstance(raw, list) or any(
        isinstance(x, bool) or not isinstance(x, (int, float)) for x in raw
    ):
        raise ValueError("'v_star' must be a list of numbers")
    try:
        v = as_profile(model, raw)
    except OverflowError:
        raise ValueError("'v_star' has a number beyond double range") from None
    except ValueError as exc:
        raise ValueError(f"'v_star': {exc}") from None
    # A divergence that overflows would overflow the sampler too.
    with np.errstate(over="ignore", invalid="ignore"):
        kl = kl_global(model, v)
    if not math.isfinite(kl):
        raise ValueError(f"'v_star' gives a non-finite kl_global ({kl})")
    return v, kl


def cmd_detect(parser, args) -> int:
    if args.samples < MIN_CURVE_SAMPLES:
        raise ValueError(
            f"--samples must be at least {MIN_CURVE_SAMPLES}, got {args.samples}"
        )
    if args.grid < 1:
        raise ValueError(f"--grid must be at least 1, got {args.grid}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    model, source = _build_from_args(args)
    v, kl = _read(args.ne, lambda text: _read_profile(model, text))

    # One draw per hypothesis gives both the threshold grid, spanning
    # the observed LLR range, and the curve.
    llr_null, llr_attacked = llr_samples(model, v, args.samples, args.seed)
    lo = float(min(llr_null.min(), llr_attacked.min()))
    hi = float(max(llr_null.max(), llr_attacked.max()))
    if hi - lo < 1e-9:
        lo, hi = -1.0, 1.0
    log_taus = np.linspace(max(lo - 1e-9, -700.0), min(hi + 1e-9, 700.0), args.grid)
    llr_null.sort()  # the draw is ours: sorted in place, not copied
    llr_attacked.sort()
    curve = threshold_curve(llr_null, llr_attacked, np.exp(log_taus))

    settings = (
        f"ne={args.ne} n_samples={args.samples} seed={args.seed} kl_global={_fmt(kl)}"
    )
    header = _header("detection curve", args, model, source, settings)
    columns = ["tau", "alpha_hat", "beta_hat"]
    _write_csv(args.out, header, columns, ("%.17g,%.17g,%.17g\n" % r for r in curve))
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
    _add_solver_args(p_run)
    p_run.add_argument("--lambda", type=float, required=True, dest="lam")
    p_run.add_argument("--out", required=True, help="output file prefix")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="solve the NE for a list of weights")
    _add_model_args(p_sweep)
    _add_solver_args(p_sweep)
    p_sweep.add_argument(
        "--lambda-list", required=True, help="comma- or space-separated weights"
    )
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
    except (ValueError, OSError, NonFiniteUpdateError) as exc:
        # ValueError includes NetworkFormatError, json.JSONDecodeError,
        # UnicodeDecodeError and numpy.linalg.LinAlgError.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:  # an input too large for memory, such as --samples
        print(f"error: {_out_of_memory(exc)}", file=sys.stderr)
        return EXIT_INPUT


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()

"""Fresh worker process for the in-process workloads.

    python3 bench/worker.py <workload> <seed> <seconds> [<spans file>]

The worker imports the package, builds its inputs and prints ``ready``.
The parent times that as set-up.  On ``run`` from standard input the
worker runs one untimed operation, measures for about ``seconds`` and
prints one JSON line; on anything else it exits.  Given a spans file, it measures
untraced and traced operations in pairs and writes the spans there.

solve-m149: one operation is run_brd to the NE of games 1, 2 and 3 at
lambda 2 on a 60-bus synthetic network (m=149), starting from v=0.
detect-m74: one operation is llr_samples for a threshold grid,
error_curve on 101 thresholds and roc_auc, 100,000 samples per
hypothesis, at the game-1 lambda-2 NE of a 30-bus network (m=74).
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import stealthgame as sg  # noqa: E402
from synthnet import network_text  # noqa: E402
from tracer import OP_BINDINGS, SETUP_BINDINGS, Tracer, layer_metrics  # noqa: E402

LAM = 2.0
RHO = 0.9
SNR_DB = 30.0
N_BUS = {"solve-m149": 60, "detect-m74": 30}
DETECT_SAMPLES = 100_000
DETECT_GRID = 101
RESIDUAL_MAX = 1e-8
METRIC_RTOL = 1e-12
LLR_SE_MAX = 5.0


def build(text: str):
    """Model of a network file's text, as the README's library example builds it."""
    net = sg.parse_network(text)
    H = sg.build_dc_jacobian(net).H
    Sigma_XX = sg.toeplitz_cov(sg.StatePriorSpec(n=H.shape[1], rho=RHO))
    return sg.build_model(H, Sigma_XX, sg.calibrate_noise(H, Sigma_XX, SNR_DB))


def setup(workload: str, seed: int) -> dict:
    state = {"model": build(network_text(N_BUS[workload], seed)), "seed": seed}
    if workload == "detect-m74":
        v, _, report = sg.run_brd(sg.GameSpec(1, LAM), state["model"])
        if not report.converged:
            raise RuntimeError("detect-m74: the game-1 NE solve did not converge")
        state["v"] = v
        state["kl"] = sg.kl_global(state["model"], v)
    return state


# --- solve-m149 ------------------------------------------------------------

def solve_game(state: dict, game: int):
    t0 = time.perf_counter()
    result = sg.run_brd(sg.GameSpec(game, LAM), state["model"])
    return time.perf_counter() - t0, result


def check_solve(model, game: int, result) -> list[str]:
    v, trajectory, report = result
    errors = []
    if not report.converged:
        errors.append(f"game {game}: not converged")
    if not report.ne_residual <= RESIDUAL_MAX:
        errors.append(f"game {game}: ne_residual {report.ne_residual:.3e}")
    if sg.potential_audit(trajectory):
        errors.append(f"game {game}: potential audit not empty")
    last = trajectory[-1]
    for label, recorded, fresh in (
        ("mi_global", last.mi_global, sg.mi_global(model, v)),
        ("kl_global", last.kl_global, sg.kl_global(model, v)),
    ):
        if not math.isclose(recorded, fresh, rel_tol=METRIC_RTOL, abs_tol=0.0):
            errors.append(f"game {game}: recorded {label} {recorded!r} != {fresh!r}")
    return errors


# --- detect-m74 ------------------------------------------------------------

def detect_op(state: dict):
    model, v, seed = state["model"], state["v"], state["seed"]
    t0 = time.perf_counter()
    llr_null, llr_attacked = sg.llr_samples(model, v, DETECT_SAMPLES, seed)
    lo = float(min(llr_null.min(), llr_attacked.min()))
    hi = float(max(llr_null.max(), llr_attacked.max()))
    log_taus = np.linspace(max(lo - 1e-9, -700.0), min(hi + 1e-9, 700.0), DETECT_GRID)
    taus = np.exp(log_taus)
    curve = sg.error_curve(model, v, DETECT_SAMPLES, seed, taus)
    auc = sg.roc_auc(model, v, DETECT_SAMPLES, seed)
    return time.perf_counter() - t0, (llr_attacked, curve, auc)


def check_detect(state: dict, result) -> list[str]:
    llr_attacked, curve, auc = result
    errors = []
    alphas = [a for _, a, _ in curve]
    betas = [b for _, _, b in curve]
    if any(b > a for a, b in zip(alphas, alphas[1:])):
        errors.append("alpha_hat increases with tau")
    if any(b < a for a, b in zip(betas, betas[1:])):
        errors.append("beta_hat decreases with tau")
    if not 0.5 <= auc <= 1.0:
        errors.append(f"AUC {auc} outside [0.5, 1]")
    mean = float(np.mean(llr_attacked))
    se = float(np.std(llr_attacked, ddof=1)) / math.sqrt(llr_attacked.size)
    if not abs(mean - state["kl"]) <= LLR_SE_MAX * se:
        errors.append(f"mean attacked LLR {mean} vs kl_global {state['kl']} (SE {se})")
    return errors


# --- measurement loops -----------------------------------------------------

def units(workload: str, state: dict) -> list:
    """(run, check) pairs making up one operation: run() returns (wall
    seconds, result) and check(result) the list of failed checks."""
    if workload == "solve-m149":
        return [(lambda g=g: solve_game(state, g),
                 lambda r, g=g: check_solve(state["model"], g, r)) for g in (1, 2, 3)]
    return [(lambda: detect_op(state), lambda r: check_detect(state, r))]


def checked(run, check, outcomes: list) -> float:
    """Runs and checks one unit; appends its failed checks to ``outcomes``
    (an empty list if it passed) and returns its wall time."""
    dt, result = run()
    outcomes.append(check(result))
    return dt


def tally(outcomes: list) -> dict:
    errors = [e for unit_errors in outcomes for e in unit_errors]
    return {"attempted": len(outcomes), "failed": sum(map(bool, outcomes)),
            "errors": errors[:10]}


def warm_up(todo: list, outcomes: list) -> None:
    """One untimed operation, run and checked like the timed ones.

    In a fresh worker the solves of the first ~15 s ran 10-40% slower
    than later ones on a 2-core VM; a single untimed game-1 solve did
    not remove that.
    """
    for run, check in todo:
        checked(run, check, outcomes)


def measure(workload: str, state: dict, seconds: float) -> dict:
    """Runs the units of an operation in turn for about ``seconds``.

    An operation's time is the sum over its units of each unit's median
    wall time, so a slow spell of the host moves one sample of a unit,
    not the whole figure.  At least one whole operation runs.
    """
    todo, outcomes = units(workload, state), []
    warm_up(todo, outcomes)
    walls = [[] for _ in todo]
    t_start = time.perf_counter()
    k = 0
    while True:
        walls[k % len(todo)].append(checked(*todo[k % len(todo)], outcomes))
        k += 1
        # Start another unit only if it should end inside the window.
        if k >= len(todo) and (time.perf_counter() - t_start
                               + statistics.median(walls[k % len(todo)]) > seconds):
            break
    return {
        **tally(outcomes),
        "op_s": sum(statistics.median(w) for w in walls),
        "walls": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_traced(workload: str, state: dict, seconds: float, spans_path: Path) -> dict:
    """Each unit runs untraced, then traced right after, for the overhead.

    Checks run after the wrappers are restored, so they add no spans.
    """
    todo, outcomes = units(workload, state), []
    warm_up(todo, outcomes)
    tracer = Tracer()
    plain = traced = 0.0
    n_ops = 0
    t_start = time.perf_counter()
    while True:
        for run, check in todo:
            plain += checked(run, check, outcomes)
            tracer.install(OP_BINDINGS)
            try:
                dt, result = run()
            finally:
                tracer.restore()
            traced += dt
            outcomes.append(check(result))
        n_ops += 1
        if time.perf_counter() - t_start + (plain + traced) / n_ops > seconds:
            break
    samples_used = 2 * DETECT_SAMPLES * n_ops if workload == "detect-m74" else 0
    layers = layer_metrics(tracer.spans, n_ops, samples_used)
    layers["trace.overhead_s"] = (traced - plain) / n_ops
    layers["trace.overhead_share"] = (traced - plain) / plain
    spans_path.write_text(json.dumps(tracer.spans))
    return {**tally(outcomes), "layers": layers}


def main(argv: list[str]) -> int:
    workload, seed, seconds = argv[0], int(argv[1]), float(argv[2])
    spans_path = Path(argv[3]) if len(argv) > 3 else None
    trace = spans_path is not None
    setup_tracer = Tracer()
    if trace:
        setup_tracer.install(SETUP_BINDINGS)
    try:
        state = setup(workload, seed)
    finally:
        setup_tracer.restore()
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "run":
        return 0
    if not trace:
        result = measure(workload, state, seconds)
    else:
        result = measure_traced(workload, state, seconds, spans_path)
        # The inputs are built once per run, so set-up layers count per set-up.
        setup_layers = layer_metrics(setup_tracer.spans, 1, 0)
        result["layers"].update({k: v for k, v in setup_layers.items()
                                 if k.startswith(("grid.", "model.build_model."))})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Benchmark of the stealthgame package, driven from outside it.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from its
``src`` directory, nothing is installed.  The load is a closed loop: one
operation at a time, each waiting for the previous one.  The benchmark
sets no BLAS or thread variable.

Workloads:

- ``solve-m149``: in-process run_brd to the NE of games 1, 2 and 3 at
  lambda 2 on a seeded 60-bus synthetic network (m=149).  Kernel-bound.
- ``cli-run``, ``cli-sweep``: one of the README's commands as fresh
  processes on the bundled 9-bus case: run for games 1, 2 and 3, or the
  sweep of game 1 over 12 weights.  Start-up-bound.  The case is fixed,
  so the seed does not change their inputs.
- ``detect-m74``: in-process llr_samples, error_curve on 101 thresholds
  and roc_auc with 100,000 samples per hypothesis at the game-1 NE of a
  seeded 30-bus network (m=74).  Sampling- and LLR-bound.

With ``--trace 0`` the last line reports, per workload:

- ``op_s``: wall time of one operation, from the medians over the run:
  for solve-m149 the sum over the three games of each game's median
  solve, for cli-run the median of its three games' commands, else the
  median operation.  In-process workloads first run one untimed
  operation;
- ``setup_s``: median over several fresh starts of the time until the
  inputs are ready (import, network, model and, for detect-m74, the NE
  solve; for the cli workloads a fresh ``import stealthgame.cli``);
- ``peak_rss_mb``: peak resident memory of the worker, or of the
  largest command process of an operation.

The line before it, ``detail {...}``, repeats these under per-workload
names (``solve_s``, ``cli_run_s``, ``cli_sweep_s``, ``detect_s``) with
the failure share.  ``--trace 1`` runs traced and untraced operations
in pairs and reports the per-layer figures of ``tracer.PER_LAYER`` per
operation, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

CLI_WORKLOADS = {"cli-run": "run", "cli-sweep": "sweep"}
WORKLOADS = ("solve-m149", *CLI_WORKLOADS, "detect-m74")
SETUP_REPEATS = 5
PROCESS_TIMEOUT = 170.0

LAM = 2.0
CLI_MODEL = ["--rho", "0.9", "--snr-db", "30"]
SWEEP_LAMBDAS = "1,1.5,2,3,5,7,10,15,20,30,50,100"
V_STAR_RTOL = 1e-12
CONSOLE = "from stealthgame.cli import console_main; console_main()"


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def timed_process(cmd: list, cwd: Path, stem: Path) -> tuple[float, float, int]:
    """Run a fresh process to completion: (wall s, peak RSS MB, exit code).

    Standard output and error go to ``stem``.stdout / .stderr.
    """
    with open(f"{stem}.stdout", "wb") as out, open(f"{stem}.stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err, env=child_env())
        timer = threading.Timer(PROCESS_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


# --- in-process workloads -------------------------------------------------

def worker_workload(workload: str, seed: int, seconds: float,
                    trace: bool) -> tuple[dict, list]:
    """Set up in several fresh workers; measure in the last one."""
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(seconds)]
    if trace:
        cmd.append(str(WORK / f"spans-{workload}.json"))
    setups = []
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True, env=child_env())
        try:
            ready = proc.stdout.readline().strip()
            setups.append(time.perf_counter() - t0)
            last = k == SETUP_REPEATS - 1
            out, _ = proc.communicate("run\n" if last else "exit\n",
                                      timeout=PROCESS_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if ready != "ready" or proc.returncode != 0:
            raise BenchError(f"{workload} worker failed (exit {proc.returncode})")
    return json.loads(out.strip().splitlines()[-1]), setups


# --- cli workloads --------------------------------------------------------

def cli_steps(command: str, case: str) -> list[tuple[str, list]]:
    """(step name, arguments) of one operation of a CLI workload."""
    model = ["--case", case] + CLI_MODEL
    if command == "run":
        return [(f"run-g{g}", ["run"] + model + ["--game", str(g), "--lambda", "2",
                                                 "--out", f"g{g}"]) for g in (1, 2, 3)]
    return [("sweep", ["sweep"] + model + ["--game", "1", "--lambda-list",
                                           SWEEP_LAMBDAS, "--out", "sweep.csv"])]


def read_rows(path: Path) -> list[list[str]]:
    """Data rows of a stealthgame CSV: comment lines and the header dropped."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return rows[1:]


def float_rows(path: Path, width: int, count: int | None = None,
               numeric: int | None = None) -> list[list[float]]:
    """Rows of ``width`` fields whose first ``numeric`` (default all) are floats."""
    rows = read_rows(path)
    if count is not None and len(rows) != count:
        raise ValueError(f"{path.name}: {len(rows)} rows, expected {count}")
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path.name}: a row is not {width} fields wide")
    return [[float(x) for x in r[:numeric]] for r in rows]


def check_cli_outputs(command: str, op_dir: Path, codes: dict, refs: dict,
                      m: int) -> list[str]:
    errors = [f"{step} exited {code}" for step, code in codes.items() if code != 0]
    if errors:
        return errors
    try:
        for g, v_ref in refs.items():
            ne = json.loads((op_dir / f"g{g}.ne.json").read_text())
            float_rows(op_dir / f"g{g}.trajectory.csv", 2 + m + 3)
            v = ne["v_star"]
            if not ne["converged"] or len(v) != m:
                errors.append(f"run game {g}: not converged or wrong length")
            elif any(abs(a - b) > V_STAR_RTOL * abs(b) for a, b in zip(v, v_ref)):
                errors.append(f"run game {g}: v_star differs from in-process run_brd")
        if command == "sweep":
            float_rows(op_dir / "sweep.csv", 7, len(SWEEP_LAMBDAS.split(",")), numeric=6)
    except (OSError, ValueError, KeyError) as exc:
        errors.append(f"unparsable output: {exc}")
    return errors


def same_files(a: Path, b: Path) -> list[str]:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return ["operations wrote different file sets"]
    return [f"{n} differs between identical runs" for n in names
            if (a / n).read_bytes() != (b / n).read_bytes()]


def cli_op(steps, op_dir: Path, spans_dir: Path | None) -> dict:
    op_dir.mkdir(parents=True)
    walls, rss, codes, sizes = {}, {}, {}, {}
    for step, argv in steps:
        before = {p.name for p in op_dir.iterdir()}
        if spans_dir is None:
            cmd = [sys.executable, "-c", CONSOLE] + argv
        else:
            cmd = [sys.executable, str(BENCH / "cli_launcher.py"),
                   str(spans_dir / f"{step}.json")] + argv
        walls[step], rss[step], codes[step] = timed_process(cmd, op_dir, op_dir / step)
        sizes[step] = sum(p.stat().st_size for p in op_dir.iterdir()
                          if p.name not in before and not p.name.endswith(".stderr"))
    return {"walls": walls, "rss": rss, "codes": codes, "sizes": sizes}


def load_cli_spans(spans_dir: Path, steps) -> tuple[list, list]:
    """All spans of one traced operation, ids made unique per step, and
    the self time of cli.main per step."""
    from tracer import self_times

    spans, main_self = [], []
    for k, (step, _) in enumerate(steps):
        own = json.loads((spans_dir / f"{step}.json").read_text())
        for s in own:
            s[0] = (k, s[0])
            s[4] = None if s[4] is None else (k, s[4])
        main_self.append(sum(self_s for s, _, self_s in self_times(own)
                             if s[1] == "cli.main"))
        spans += own
    return spans, main_self


def fresh_python(code: str, work: Path, repeats: int) -> float:
    walls = []
    for k in range(repeats):
        wall, _, rc = timed_process([sys.executable, "-c", code], work, work / "probe")
        if rc != 0:
            raise BenchError(f"python -c {code!r} exited {rc}")
        walls.append(wall)
    return statistics.median(walls)


def cli_workload(command: str, seconds: float, work: Path, trace: bool) -> dict:
    """One command as fresh processes; an operation's time is the median
    of its steps (the three games of ``run``, else the one command)."""
    import stealthgame as sg
    from worker import LAM, build

    case = sg.bundled_case("ieee9")
    model = build(Path(case).read_text(encoding="utf-8"))
    refs = {}
    if command == "run":
        refs = {g: sg.run_brd(sg.GameSpec(g, LAM), model)[0].tolist() for g in (1, 2, 3)}
    steps = cli_steps(command, case)

    fresh_python("import stealthgame.cli", work, 1)  # warm the file cache
    result = {"setup_s": fresh_python("import stealthgame.cli", work,
                                      SETUP_REPEATS)}
    if trace:
        result["interpreter_s"] = fresh_python("pass", work, 5)

    ops, failed, errors, traced_ops = [], 0, [], []
    reference = None
    t_start = time.perf_counter()
    while True:
        for spans_dir in ([None, work / f"spans{len(ops)}"] if trace else [None]):
            if spans_dir is not None:
                spans_dir.mkdir()
            op_dir = work / f"op{len(ops) + len(traced_ops)}"
            op = cli_op(steps, op_dir, spans_dir)
            op_errors = check_cli_outputs(command, op_dir, op["codes"], refs, model.m)
            if reference is None:
                reference = op_dir
            else:
                op_errors += same_files(reference, op_dir)
                shutil.rmtree(op_dir)
            if op_errors:
                failed += 1
                errors += op_errors
            op["spans_dir"] = spans_dir
            (traced_ops if spans_dir is not None else ops).append(op)
        elapsed = time.perf_counter() - t_start
        # At least two operations, so that reruns are compared byte for byte.
        if len(ops) + len(traced_ops) >= 2 and elapsed + elapsed / len(ops) > seconds:
            break

    result.update(attempted=len(ops) + len(traced_ops), failed=failed, errors=errors[:10])
    result["walls"] = [statistics.median(op["walls"].values()) for op in ops]
    result["op_s"] = statistics.median(result["walls"])
    result["peak_rss_mb"] = statistics.median(max(op["rss"].values()) for op in ops)
    if trace:
        result["layers"] = cli_layers(command, steps, ops, traced_ops, result)
    return result


def cli_layers(command: str, steps, ops, traced_ops, result) -> dict:
    from tracer import layer_metrics

    n = len(traced_ops)
    spans, main_self = [], []
    for op in traced_ops:
        op_spans, op_self = load_cli_spans(op["spans_dir"], steps)
        spans += op_spans
        main_self += op_self
    layers = layer_metrics(spans, n, 0)
    layers[f"cli.main.{command}.self_s"] = statistics.mean(main_self)
    layers[f"cli.output_bytes.{command}"] = statistics.mean(ops[0]["sizes"].values())
    layers[f"cli.{command}.wall_s"] = result["op_s"]
    layers["cli.interpreter_s"] = result["interpreter_s"]
    layers["cli.import_s"] = result["setup_s"] - result["interpreter_s"]
    plain = sum(sum(op["walls"].values()) for op in ops[:n])
    traced = sum(sum(op["walls"].values()) for op in traced_ops)
    layers["trace.overhead_s"] = (traced - plain) / n
    layers["trace.overhead_share"] = (traced - plain) / plain
    return layers


# --- output ---------------------------------------------------------------

E2E_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
DETAIL_NAMES = {"solve-m149": "solve_s", "detect-m74": "detect_s",
                **{w: f"cli_{c}_s" for w, c in CLI_WORKLOADS.items()}}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "stealthgame" / "__init__.py").is_file():
        raise BenchError(f"no package source under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        if workload in CLI_WORKLOADS:
            return cli_workload(CLI_WORKLOADS[workload], seconds, work, trace)
        result, setups = worker_workload(workload, seed, seconds, trace)
        result["setup_s"] = statistics.median(setups)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(workload: str, result: dict, trace: bool) -> dict:
    if trace:
        from tracer import PER_LAYER

        layers = result["layers"]
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": float(result[name]), "unit": unit}
                   for name, unit in E2E_UNITS.items()}
        detail = {"workload": workload, "setup_s": result["setup_s"],
                  "peak_rss_mb": result["peak_rss_mb"],
                  "fail_share": result["failed"] / result["attempted"],
                  "walls": result["walls"],
                  DETAIL_NAMES[workload]: result["op_s"]}
        print("detail " + json.dumps(detail))
    for err in result["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args.workload, result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run every workload and write one results file.

    python3 bench/report.py --out bench/results/<name>.json

For each workload: ten untraced runs with seeds 1 to 10, then one traced
run, each for BENCHMARK.json's run_seconds.  Prints every end-to-end
metric by name and unit, and writes a JSON file with the machine block, each metric's median, quartiles and
spread, the per-layer figures mapped to the end-to-end metric and
workload they should move, the tracing overhead, and the project's
re-anchor figures next to this machine's.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from run import CLI_MODEL, CONSOLE, WORKLOADS, child_env  # noqa: E402
from worker import build  # noqa: E402

RUNS = 10

# Which end-to-end figure (detail name) on which workload each per-layer
# metric should move.  The names are prefixes of PER_LAYER names.
LAYER_TARGETS = [
    ("bestresponse.", "solve_s", "solve-m149"),
    ("dynamics.record_s", "solve_s", "solve-m149"),
    ("dynamics.run_brd.", "solve_s, cli_sweep_s", "solve-m149, cli-sweep"),
    ("dynamics.verify_ne.", "solve_s, cli_sweep_s", "solve-m149, cli-sweep"),
    ("dynamics.rounds", "solve_s, cli_sweep_s", "solve-m149, cli-sweep"),
    ("games.potential.", "solve_s", "solve-m149"),
    ("metrics.", "solve_s", "solve-m149"),
    ("model.build_model.", "setup_s", "all"),
    ("grid.", "setup_s", "all"),
    ("model.attacked_cov.", "solve_s, detect_s", "solve-m149, detect-m74"),
    ("detection.", "detect_s", "detect-m74"),
    ("cli.interpreter_s", "none (floor)", "cli-*"),
    ("cli.import_s", "cli_*_s", "cli-*"),
    ("cli.run.wall_s", "cli_run_s", "cli-run"),
    ("cli.sweep.wall_s", "cli_sweep_s", "cli-sweep"),
    ("cli.main.", "cli_run_s, cli_sweep_s", "cli-run, cli-sweep"),
    ("cli.output_bytes.", "cli_run_s, cli_sweep_s", "cli-run, cli-sweep"),
    ("trace.", "none (tracing cost)", "all"),
]

# ROADMAP item 1's re-anchor figures, in seconds.
REANCHOR = {
    "ieee9 run_brd game 1": 0.058,
    "ieee9 run_brd game 2": 0.065,
    "ieee9 run_brd game 3": 0.092,
    "m=149 game-1 solve": 4.1,
    "cli run (9-bus)": 0.71,
    "cli detect, 200k samples (9-bus)": 0.83,
}


def machine() -> dict:
    """Where the numbers come from.  BLAS threads are read, never set."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    blas = []
    maps = Path("/proc/self/maps").read_text() if Path("/proc/self/maps").exists() else ""
    for path in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if getter is not None and "threads" not in entry:
                    getter.restype = ctypes.c_int
                    entry["threads"] = getter()
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode().strip()
        blas.append(entry)
    cpu = re.search(r"model name\s*:\s*(.*)", Path("/proc/cpuinfo").read_text()
                    if Path("/proc/cpuinfo").exists() else "")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu.group(1) if cpu else platform.processor(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    details = [json.loads(line[len("detail "):]) for line in lines if line.startswith("detail ")]
    out["detail"] = details[0] if details else {}
    return out


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "n": len(values), "values": values}


def reanchor(results: dict) -> list:
    """This machine's figures next to the re-anchor ones."""
    import stealthgame as sg

    model = build(Path(sg.bundled_case("ieee9")).read_text())
    here = {}
    for g in (1, 2, 3):
        walls = []
        for _ in range(5):
            t0 = time.perf_counter()
            sg.run_brd(sg.GameSpec(g, 2.0), model)
            walls.append(time.perf_counter() - t0)
        here[f"ieee9 run_brd game {g}"] = statistics.median(walls)
    here["m=149 game-1 solve"] = results["solve-m149"]["e2e"]["game1_s"]["median"]
    here["cli run (9-bus)"] = results["cli-run"]["e2e"]["cli_run_s"]["median"]
    here["cli detect, 200k samples (9-bus)"] = cli_detect_200k()
    rows = []
    for name, then in REANCHOR.items():
        ratio = here[name] / then
        rows.append({"figure": name, "reanchor_s": then, "measured_s": here[name],
                     "ratio": ratio, "differs_over_20pct": abs(ratio - 1.0) > 0.2})
    return rows


def cli_detect_200k() -> float:
    """Median of three fresh ``detect --samples 200000`` processes."""
    import stealthgame as sg

    work = ROOT / ".bench_work" / "report"
    work.mkdir(parents=True, exist_ok=True)
    case = sg.bundled_case("ieee9")
    base = [sys.executable, "-c", CONSOLE]
    model_args = ["--case", case] + CLI_MODEL
    subprocess.run(base + ["run"] + model_args + ["--game", "1", "--lambda", "2",
                                                  "--out", "g1"],
                   cwd=work, env=child_env(), check=True, capture_output=True)
    walls = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run(base + ["detect"] + model_args + ["--ne", "g1.ne.json", "--samples",
                                                         "200000", "--out", "roc.csv"],
                       cwd=work, env=child_env(), check=True, capture_output=True)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    from tracer import PER_LAYER

    results = {}
    for workload in WORKLOADS:
        runs = [bench_run(workload, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        traced = bench_run(workload, 1, seconds, 1)
        e2e = {}
        for name in runs[0]["metrics"]:
            e2e[name] = summary([r["metrics"][name]["value"] for r in runs])
            e2e[name]["unit"] = runs[0]["metrics"][name]["unit"]
        for name in runs[0]["detail"]:
            if name.endswith("_s") and name not in e2e:
                e2e[name] = summary([r["detail"][name] for r in runs])
                e2e[name]["unit"] = "s"
        if workload == "solve-m149":
            # Untraced game-1 solves, for the re-anchor comparison.
            e2e["game1_s"] = summary([statistics.median(r["detail"]["walls"][0])
                                      for r in runs])
            e2e["game1_s"]["unit"] = "s"
        attempted = sum(r["attempted"] for r in runs + [traced])
        failed = sum(r["failed"] for r in runs + [traced])
        results[workload] = {
            "e2e": e2e,
            "attempted": attempted,
            "failed": failed,
            "fail_share": failed / attempted,
            "layers": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(f"{workload}: attempted {attempted}, failed {failed}, "
              f"fail_share {failed / attempted:g}")
        for name, s in e2e.items():
            print(f"  {name:<14} {s['median']:.4f} {s['unit']:<3} "
                  f"(q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, spread {s['spread']:.3f}, n={s['n']})")

    targets = {}
    for name, unit, better in PER_LAYER:
        moves, on = next((m, w) for prefix, m, w in LAYER_TARGETS if name.startswith(prefix))
        targets[name] = {"unit": unit, "better": better, "moves": moves, "on": on}
    out = {
        "machine": machine(),
        "run_seconds": seconds,
        "seeds": list(range(1, RUNS + 1)),
        "workloads": results,
        "per_layer_targets": targets,
        "reanchor": reanchor(results),
    }
    for row in out["reanchor"]:
        flag = "  <-- differs by more than 20%" if row["differs_over_20pct"] else ""
        print(f"  {row['figure']:<34} {row['reanchor_s']:.3f} s -> "
              f"{row['measured_s']:.3f} s{flag}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

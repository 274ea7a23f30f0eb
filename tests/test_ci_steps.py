"""The CI workflow's "Console script" step and the README's commands,
run as part of the suite.

The step's ``run:`` block is read from ``.github/workflows/tests.yml``
by indentation (no YAML parser is needed) and run under
``bash -eo pipefail``, as a GitHub Actions ``run:`` step is, in a
temporary directory (also its ``TMPDIR``) with the step's ``env``.
``stealthgame`` on ``PATH`` is a shim for ``python -m stealthgame.cli`` with the package's
sources on ``PYTHONPATH``, in place of the installed entry point.  The
README's first ``sh`` block under "## Command line" runs the same way,
with no extra ``env``.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import stealthgame

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
README = ROOT / "README.md"
STEP = "Console script"


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip(" "))


def _block(lines: list[str], start: int) -> list[str]:
    """The lines after ``lines[start]`` indented deeper than it, dedented;
    blank lines inside the block are kept."""
    body = []
    for line in lines[start + 1:]:
        if line.strip() and _indent(line) <= _indent(lines[start]):
            break
        body.append(line)
    return textwrap.dedent("\n".join(body)).splitlines()


def _key(lines: list[str], key: str) -> int:
    """Index of the top-level ``key:`` line of a dedented mapping."""
    return next(k for k, line in enumerate(lines) if line.split(":")[0] == key)


def console_step() -> tuple[str, dict[str, str]]:
    """The step's ``run:`` script and its ``env`` mapping."""
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    start = next(k for k, line in enumerate(lines) if line.strip() == f"- name: {STEP}")
    step = _block(lines, start)
    env = {}
    for line in _block(step, _key(step, "env")):
        if line.strip() and not line.lstrip().startswith("#"):
            name, value = line.split(":", 1)
            env[name.strip()] = value.strip()
    return "\n".join(_block(step, _key(step, "run"))) + "\n", env


def run_step(script: str, env: dict[str, str], cwd: Path) -> subprocess.CompletedProcess:
    """Run ``script`` under ``bash -eo pipefail`` with the shims on ``PATH``."""
    bin_dir = cwd / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "stealthgame"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m stealthgame.cli "$@"\n')
    shim.chmod(0o755)
    (bin_dir / "python").symlink_to(sys.executable)
    src = str(Path(stealthgame.__file__).resolve().parents[1])
    full_env = dict(
        os.environ,
        PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
        PYTHONPATH=src,
        TMPDIR=str(cwd),  # the step's mktemp -d
        **env,
    )
    return subprocess.run(
        ["bash", "-eo", "pipefail", "-c", script],
        cwd=cwd, env=full_env, capture_output=True, text=True, timeout=300,
    )


def test_step_is_found_with_its_env():
    script, env = console_step()
    assert env == {"PYTHONWARNINGS": "error::RuntimeWarning"}
    assert script.startswith("case=$(python -c")
    assert "stealthgame detect" in script


def test_console_script_step_passes(tmp_path):
    script, env = console_step()
    result = run_step(script, env, tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr


def test_a_broken_step_fails(tmp_path):
    # rho must lie in [0, 1): the step's first command then exits 2.
    script, env = console_step()
    assert "--rho 0.9" in script
    result = run_step(script.replace("--rho 0.9", "--rho 1.5"), env, tmp_path)
    assert result.returncode != 0


def readme_commands() -> str:
    """The first ``sh`` block under the README's "## Command line"."""
    text = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    return text.split("```sh\n", 1)[1].split("```", 1)[0]


def test_readme_commands_run_as_written(tmp_path):
    script = readme_commands()
    assert script.startswith("CASE=$(python -c") and "stealthgame detect" in script
    result = run_step(script, {}, tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr

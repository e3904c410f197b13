"""The CLI gives the same bytes under every CPython the package supports.

``requires-python`` in ``pyproject.toml`` declares the oldest supported
version. This test finds every other CPython at or above it that it can
start: the ones under ``$PYENV_ROOT/versions`` (``~/.pyenv`` by default)
and any ``python3.X`` on ``PATH``. Each runs a derive and a check, and its
stdout and exit codes must equal the running interpreter's. The test skips
when it finds no other interpreter.
"""

import glob
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import obscon
from obscon.fixtures import write_examples

SRC = os.path.dirname(os.path.dirname(obscon.__file__))
PYPROJECT = os.path.join(os.path.dirname(SRC), "pyproject.toml")

# prints the version and the interpreter's real path, on any Python 3
PROBE = "import os, sys; print(*sys.version_info[:3], os.path.realpath(sys.executable))"


def declared_minimum() -> tuple[int, ...]:
    with open(PYPROJECT, encoding="utf-8") as fh:
        found = re.search(r'^requires-python = ">=([\d.]+)"$', fh.read(), re.MULTILINE)
    return tuple(map(int, found.group(1).split(".")))


def candidate_paths() -> list[str]:
    root = os.environ.get("PYENV_ROOT") or os.path.expanduser("~/.pyenv")
    paths = sorted(glob.glob(os.path.join(root, "versions", "*", "bin", "python3")))
    for directory in os.environ.get("PATH", "").split(os.pathsep):
        paths += sorted(path for path in glob.glob(os.path.join(directory or ".", "python3.*"))
                        if re.fullmatch(r"python3\.\d+", os.path.basename(path)))
    return paths


def probe(path: str) -> tuple[tuple[int, ...], str] | None:
    """(version, real path) of the interpreter at ``path``, or None if it
    does not start."""
    try:
        proc = subprocess.run([path, "-c", PROBE], capture_output=True, text=True,
                              timeout=30)
    except OSError:
        return None
    fields = proc.stdout.split(maxsplit=3)
    if proc.returncode != 0 or len(fields) != 4:
        return None
    return tuple(map(int, fields[:3])), fields[3].strip()


def other_interpreters() -> list[str]:
    """Real paths of the startable CPythons at or above the declared
    minimum, the running one excluded."""
    minimum = declared_minimum()
    running = os.path.realpath(sys.executable)
    with ThreadPoolExecutor(max_workers=2) as pool:
        found = {real for version, real in filter(None, pool.map(probe, candidate_paths()))
                 if version >= minimum and real != running}
    return sorted(found)


def test_other_interpreters_give_the_same_bytes(tmp_path):
    others = other_interpreters()
    if not others:
        pytest.skip("no other CPython at or above requires-python found")
    write_examples(str(tmp_path))
    commands = [
        ["derive", "--merge", str(tmp_path / "mixed_cdegree.graph")],
        ["check", str(tmp_path / "iv.graph"), str(tmp_path / "iv_violator.csv")],
    ]
    # nothing from the running interpreter's environment but the package;
    # no bytecode is written into the source tree
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")

    def run(job):
        python, command = job
        proc = subprocess.run([python, "-m", "obscon", *command], capture_output=True,
                              env=env, timeout=60)
        return proc.returncode, proc.stdout

    jobs = [(python, command) for python in [sys.executable, *others] for command in commands]
    with ThreadPoolExecutor(max_workers=2) as pool:
        outcomes = list(pool.map(run, jobs))
    expected = outcomes[:len(commands)]
    assert [code for code, _ in expected] == [0, 1]  # the check finds a violation
    for (python, command), outcome in zip(jobs, outcomes):
        assert outcome == expected[commands.index(command)], (python, command[0])

"""The benchmark trajectory stamp: a run on uncommitted code is marked dirty."""

import importlib.util
import pathlib
import shutil
import subprocess

import pytest

CONFTEST = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "conftest.py"


def _bench_conftest():
    spec = importlib.util.spec_from_file_location("bench_conftest", CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(shutil.which("git") is None, reason="git not installed")
def test_git_rev_marks_tracked_changes_dirty_but_not_trajectory_appends(tmp_path):
    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=tmp_path, check=True, capture_output=True,
        )

    (tmp_path / "code.py").write_text("x = 1\n")
    (tmp_path / "BENCH_S01.json").write_text("[]\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "--no-gpg-sign", "-m", "seed")
    git_rev = _bench_conftest()._git_rev
    clean = git_rev(tmp_path)
    assert clean != "unknown" and not clean.endswith("-dirty")
    # Appending a trajectory record or leaving untracked files stays clean.
    (tmp_path / "BENCH_S01.json").write_text("[{}]\n")
    (tmp_path / "scratch.txt").write_text("untracked\n")
    assert git_rev(tmp_path) == clean
    (tmp_path / "code.py").write_text("x = 2\n")
    assert git_rev(tmp_path) == f"{clean}-dirty"

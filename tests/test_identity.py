"""tests/identity.py, the byte-identity check between two revisions, on
two calls: the same src/ on both sides is identical, and a copy of src/
with one changed report field or one changed error message is named;
and its base src/, extracted without touching .git."""

import shutil
import subprocess
from pathlib import Path

import pytest

import identity
import loopwitt
from test_reports_pinned import CALLS, PINNED

SRC = Path(loopwitt.__file__).resolve().parent.parent
TWO = {name: CALLS[name]
       for name in ("verify-all/1/trivial", "module-info/1/trivial")}


def test_the_same_src_is_identical(capsys):
    assert identity.compare(SRC, SRC, TWO) == []
    out = capsys.readouterr().out
    # the digests are those test_reports_pinned pins
    for name in TWO:
        assert f"{PINNED[name]} exit 0 {name}" in out
    assert "2 calls, 0 differ" in out


def changed_src(tmp_path, module, old, new):
    """A copy of src/ with the one occurrence of old in loopwitt/module
    replaced by new."""
    changed = tmp_path / "src"
    shutil.copytree(SRC / "loopwitt", changed / "loopwitt",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = changed / "loopwitt" / module
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    return changed


def test_a_changed_report_field_is_named(tmp_path, capsys):
    changed = changed_src(tmp_path, "suites.py", '"cases": self.cases,',
                          '"cases": self.cases + 1,')
    assert identity.compare(SRC, changed, TWO) == ["verify-all/1/trivial"]
    out = capsys.readouterr().out
    assert "DIFFERS verify-all/1/trivial" in out
    assert "2 calls, 1 differ" in out


def test_a_changed_error_message_is_named(tmp_path, capsys):
    # trivial B rejects the bracket with exit 2 and empty stdout, so only
    # stderr tells the message apart
    name = "bracket/trivial/0"
    calls = {name: identity.corpus()[name],
             "module-info/1/trivial": CALLS["module-info/1/trivial"]}
    changed = changed_src(tmp_path, "coeff.py", "trivial B has only scalars",
                          "trivial B holds only scalars")
    assert identity.compare(SRC, changed, calls) == [name]
    out = capsys.readouterr().out
    assert f"DIFFERS {name}" in out and "2 calls, 1 differ" in out


@pytest.mark.skipif(not (identity.ROOT / ".git").exists(),
                    reason="needs a git checkout")
def test_the_base_src_is_extracted_without_a_worktree(tmp_path):
    worktrees = identity.ROOT / ".git" / "worktrees"

    def registered():
        return sorted(worktrees.iterdir()) if worktrees.exists() else []

    before = registered()
    src = identity.extract_src("HEAD", tmp_path)
    assert (src / "loopwitt" / "cli.py").read_bytes() == subprocess.run(
        ["git", "-C", str(identity.ROOT), "show", "HEAD:src/loopwitt/cli.py"],
        capture_output=True, check=True).stdout
    assert registered() == before

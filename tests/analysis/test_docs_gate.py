"""The plan-format rule of the ``scripts/check_docs.py`` gate."""

from __future__ import annotations

import importlib.util
import os

from repro.runtime.plan_io import PLAN_FORMAT

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def _gate():
    path = os.path.join(REPO_ROOT, "scripts", "check_docs.py")
    spec = importlib.util.spec_from_file_location("check_docs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_repo_mentions_only_current_plan_format():
    assert _gate().plan_format_drift(REPO_ROOT, PLAN_FORMAT) == []


def test_stale_plan_format_flagged(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "src").mkdir()
    (tmp_path / "docs" / "a.md").write_text(
        f"current {PLAN_FORMAT}\nold network-plan-v3\nprevious network-plan-v5\n",
        encoding="utf-8",
    )
    (tmp_path / "src" / "b.py").write_text(
        "# network-plan-v1\n", encoding="utf-8"
    )
    (tmp_path / "src" / "c.txt").write_text(
        "network-plan-v2\n", encoding="utf-8"
    )
    hits = _gate().plan_format_drift(str(tmp_path), PLAN_FORMAT)
    assert hits == [
        os.path.join("docs", "a.md") + ":2: network-plan-v3",
        os.path.join("docs", "a.md") + ":3: network-plan-v5",
        os.path.join("src", "b.py") + ":1: network-plan-v1",
    ]

"""Smoke tests: the example scripts run end to end.

The heavyweight fleet/ablation examples are exercised at reduced scope
through their building blocks elsewhere; here we run the quick ones
fully and import-check the rest.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_examples_exist(self):
        present = {p.name for p in EXAMPLES.glob("*.py")}
        assert {
            "quickstart.py",
            "secure_container_fleet.py",
            "ablation_study.py",
            "switch_anatomy.py",
            "isolation_and_operations.py",
            "cloud_features.py",
        } <= present

    def test_cloud_features(self, capsys):
        out = _run("cloud_features.py", capsys)
        assert "fewer fault dances" in out
        assert "host frames released: 1024" in out
        assert "whole-VPID flushes" in out

    def test_quickstart(self, capsys):
        out = _run("quickstart.py", capsys)
        assert "pvm (NST)" in out
        assert "exits to L0    : 0" in out

    def test_switch_anatomy(self, capsys):
        out = _run("switch_anatomy.py", capsys)
        assert "12 world switches" in out  # SPT-on-EPT: 4n+8
        assert "8 world switches" in out  # EPT-on-EPT: 2n+6
        assert "6 world switches" in out  # PVM: 2n+4
        assert "0 L0 exits" in out

    def test_isolation_and_operations(self, capsys):
        out = _run("isolation_and_operations.py", capsys)
        assert "migration BLOCKED" in out
        assert "migrated" in out

    @pytest.mark.parametrize(
        "name", ["secure_container_fleet.py", "ablation_study.py"]
    )
    def test_heavy_examples_importable(self, name):
        """Compile-check without executing __main__."""
        source = (EXAMPLES / name).read_text()
        compile(source, name, "exec")

"""Tests for the pvm-bench CLI and guest syscall registry."""

import pytest

from repro.bench.cli import main
from repro.bench.experiments import ALL_EXPERIMENTS
from repro.guest.syscalls import SYSCALLS, syscall


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig13" in out

    def test_list_describes_every_experiment(self, capsys):
        assert main(["--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == list(ALL_EXPERIMENTS)
        assert all(len(line.split()) > 1 for line in lines)

    def test_help_names_every_experiment(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for exp_id in ALL_EXPERIMENTS:
            assert exp_id in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "fig10" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_run_one(self, capsys):
        assert main(["table2", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "direct-switch" in out
        assert "wall" in out

    def test_json_output(self, capsys):
        import json

        assert main(["table2", "--json", "--scale", "0.02"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "table2" in payload
        assert payload["table2"]["data"]["kvm-ept (BM)"]["kpti"] > 0

    def test_chart_output(self, capsys):
        assert main(["table2", "--chart", "--scale", "0.02"]) == 0
        assert "|#" in capsys.readouterr().out


class TestSyscallRegistry:
    def test_known_names(self):
        for name in ("get_pid", "stat", "open_close", "sig_hndl"):
            assert syscall(name).name == name

    def test_unknown_raises_with_catalog(self):
        with pytest.raises(KeyError) as exc:
            syscall("bogus_call")
        assert "get_pid" in str(exc.value)

    def test_bodies_positive(self):
        assert all(s.body_ns > 0 for s in SYSCALLS.values())

    def test_sig_hndl_has_extra_transition(self):
        assert syscall("sig_hndl").extra_transitions == 1
        assert syscall("get_pid").extra_transitions == 0

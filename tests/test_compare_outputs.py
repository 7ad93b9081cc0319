import importlib.util
import shutil
import subprocess
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _ROOT / "scripts" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)


def test_a_checkout_matches_itself(tmp_path, monkeypatch, capsys):
    # four subprocesses: a checkout whose one config is the two-agent network
    # and two of the commands; simulate writes both files, dare fails with
    # exit 1 on a network config, so the files, stderr and exit code all compare
    change = tmp_path / "change"
    (change / "scripts" / "configs").mkdir(parents=True)
    (change / "src").symlink_to(_ROOT / "src")
    shutil.copy(_ROOT / "scripts" / "configs" / "network_two_agents.json", change / "scripts" / "configs")
    monkeypatch.setattr(compare_outputs, "COMMANDS", ("simulate", "dare"))
    code = compare_outputs.main(["--parent", str(_ROOT), "--change", str(change)])
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["simulate network_two_agents.json: identical (exit 0)",
                     "dare network_two_agents.json: identical (exit 1)",
                     "0 of 2 cases differ"]
    assert code == 0


def test_a_difference_in_the_printer_alone_is_reported(tmp_path, monkeypatch, capsys):
    # no subprocess: a stand-in CLI whose change side prints another
    # human-readable document, so only the run without --json differs
    change = tmp_path / "change"
    (change / "scripts" / "configs").mkdir(parents=True)
    (change / "scripts" / "configs" / "one.json").write_text("{}")

    def fake_run(argv, cwd, env, **kwargs):
        human = "--json" not in argv and env["PYTHONPATH"].startswith(str(change.resolve()))
        return subprocess.CompletedProcess(argv, 0, b"other\n" if human else b"same\n", b"")

    monkeypatch.setattr(compare_outputs.subprocess, "run", fake_run)
    monkeypatch.setattr(compare_outputs, "COMMANDS", ("dare",))
    code = compare_outputs.main(["--parent", str(tmp_path / "parent"), "--change", str(change)])
    assert capsys.readouterr().out.splitlines() == ["dare one.json: differ in stdout without --json (exit 0)",
                                                    "1 of 1 cases differ"]
    assert code == 1

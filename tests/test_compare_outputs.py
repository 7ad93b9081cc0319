import importlib.util
import shutil
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

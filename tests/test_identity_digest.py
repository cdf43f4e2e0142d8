"""tools/identity_digest.py: the committed digests of three fixed-clock runs,
and what --check reports when a digest differs."""
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "identity_digest.py"
RECORDED = ROOT / "tools" / "identity_digests.txt"


def _tool():
    spec = importlib.util.spec_from_file_location("identity_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_artifacts_match_the_recorded_identity_digests():
    # every artifact of the desk, wide and scale runs is bit for bit the
    # recorded one; an intended change updates tools/identity_digests.txt
    proc = subprocess.run([sys.executable, str(TOOL), "--check", str(RECORDED)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_recorded_file_has_one_line_per_artifact_after_its_header():
    lines = RECORDED.read_text().splitlines()
    assert [line.split()[1] for line in lines[:2]] == ["numpy", "blas"]
    assert len(lines) == 2 + 3 * 6
    assert {line.split()[0] for line in lines[2:]} == {"desk", "wide", "scale"}


def test_check_prints_the_differing_lines_and_both_environments(tmp_path, capsys):
    tool = _tool()
    recorded = tmp_path / "digests.txt"
    recorded.write_text("# numpy 0.0.1\n# blas none 0\ndesk  a.csv  00\ndesk  b.csv  11\n")
    assert tool.check(recorded, ["desk  a.csv  00", "desk  b.csv  11"]) == 0
    assert capsys.readouterr().out == ""
    assert tool.check(recorded, ["desk  a.csv  00", "desk  b.csv  22"]) == 1
    out = capsys.readouterr().out
    assert "-desk  b.csv  11\n" in out and "+desk  b.csv  22\n" in out
    assert "recorded under: numpy 0.0.1, blas none 0" in out
    assert "this run under: " + ", ".join(line[2:] for line in tool.environment()) in out

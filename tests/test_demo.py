"""The end-to-end demonstration script runs and prints its score table."""

import importlib.util
import os

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "run_demo.py")


def test_demo_runs_and_prints_held_out_scores(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("run_demo", SCRIPT)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    assert demo.main(["--scenes", "3", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    table = lines[lines.index("held-out scene scores:") + 2:][:5]
    names = ["unprocessed ch0", "clustering only", "combine=avg", "combine=max",
             "combine=lstm"]
    assert [line[:18].strip() for line in table] == names
    for line in table:
        assert len([float(v) for v in line[18:].split()]) == 4

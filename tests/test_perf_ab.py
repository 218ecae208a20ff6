"""benchmarks/perf_ab.py: interleaving, sides and exit codes, on stub trees
whose perf/run.py and perf/compare.py only log how they were called."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "perf_ab.py"

STUB_RUN = """\
import json, os, sys
from pathlib import Path
tree = Path(__file__).resolve().parent.parent
workload = sys.argv[sys.argv.index("--workload") + 1]
with open(os.environ["PERF_AB_LOG"], "a") as log:
    log.write(json.dumps([tree.name, workload, sys.argv[1:]]) + "\\n")
if os.environ.get("PERF_AB_NO_RECORD"):
    sys.exit(1)
out = tree / "perf" / "out"
out.mkdir(exist_ok=True)
name = f"{len(list(out.iterdir()))}.json"
(out / name).write_text("{}")
print(f"full record: perf/out/{name}")
"""

STUB_COMPARE = """\
import json, os, sys
with open(os.environ["PERF_AB_LOG"], "a") as log:
    log.write(json.dumps(["compare", sys.argv[1:]]) + "\\n")
sys.exit(int(os.environ.get("PERF_AB_VERDICT", "0")))
"""


def load_script():
    spec = importlib.util.spec_from_file_location("perf_ab", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stub_tree(path: Path) -> Path:
    (path / "perf").mkdir(parents=True)
    (path / "perf" / "run.py").write_text(STUB_RUN)
    (path / "perf" / "compare.py").write_text(STUB_COMPARE)
    (path / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "w1"}, {"name": "w2"}]}
    ))
    return path


@pytest.fixture
def log(tmp_path, monkeypatch):
    path = tmp_path / "calls.jsonl"
    monkeypatch.setenv("PERF_AB_LOG", str(path))
    return lambda: [json.loads(line) for line in path.read_text().splitlines()]


def test_pairs_interleave_and_alternate_first_side(tmp_path, log):
    parent, change = stub_tree(tmp_path / "p"), stub_tree(tmp_path / "c")
    code = load_script().main(
        [str(parent), str(change), "--pairs", "2", "--seconds", "7"]
    )
    assert code == 0
    calls = log()
    runs = [(tree, workload) for tree, workload, _ in calls[:-1]]
    assert runs == [
        ("p", "w1"), ("c", "w1"), ("p", "w2"), ("c", "w2"),
        ("c", "w1"), ("p", "w1"), ("c", "w2"), ("p", "w2"),
    ]
    assert calls[0][2] == ["--workload", "w1", "--seconds", "7.0",
                           "--trace", "0"]
    compared = calls[-1][1]
    split = compared.index("--")
    assert all(f"{parent}/" in path for path in compared[:split])
    assert all(f"{change}/" in path for path in compared[split + 1:])
    assert len(compared[:split]) == len(compared[split + 1:]) == 4


def test_same_tree_twice_keeps_two_sides(tmp_path, log):
    tree = stub_tree(tmp_path / "t")
    assert load_script().main([str(tree), str(tree), "--pairs", "1"]) == 0
    compared = log()[-1][1]
    split = compared.index("--")
    a, b = compared[:split], compared[split + 1:]
    assert len(a) == len(b) == 2
    assert not set(a) & set(b)


def test_exit_code_is_the_verdict(tmp_path, log, monkeypatch):
    monkeypatch.setenv("PERF_AB_VERDICT", "1")
    parent, change = stub_tree(tmp_path / "p"), stub_tree(tmp_path / "c")
    assert load_script().main([str(parent), str(change), "--pairs", "1"]) == 1


def test_run_without_record_exits_2(tmp_path, log, monkeypatch):
    monkeypatch.setenv("PERF_AB_NO_RECORD", "1")
    parent, change = stub_tree(tmp_path / "p"), stub_tree(tmp_path / "c")
    with pytest.raises(SystemExit) as exc_info:
        load_script().main([str(parent), str(change)])
    assert exc_info.value.code == 2

"""examples/host_time_breakdown.py: every perf/trace.py layer is printed,
and the self times add up exactly to the traced total."""

import importlib.util
import json
from pathlib import Path

EXAMPLE = (
    Path(__file__).resolve().parent.parent / "examples"
    / "host_time_breakdown.py"
)


def load_example():
    spec = importlib.util.spec_from_file_location("host_time_breakdown",
                                                  EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_printed_and_self_times_sum_to_total(tmp_path, capsys):
    example = load_example()
    chrome = tmp_path / "host.trace.json"
    example.main([
        "--mix", "gups", "--scheme", "csalt-cd", "--accesses", "2000",
        "--chrome-out", str(chrome),
    ])
    layers = (*example.load_trace_module().LAYERS, "engine")
    assert len(layers) == 18
    self_ns, total = {}, None
    for line in capsys.readouterr().out.splitlines():
        fields = line.split()
        if fields and fields[0] in layers:
            self_ns[fields[0]] = int(fields[3])
        elif fields and fields[0] == "total":
            total = int(fields[1])
    assert set(self_ns) == set(layers)
    assert total > 0
    assert sum(self_ns.values()) == total
    assert json.loads(chrome.read_text())["traceEvents"]

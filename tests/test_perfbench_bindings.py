"""The benchmark in `perfbench/` binds program names; they must all exist.

`workloads` imports names from `kdiameter`, and `tracing.PATCHES` looks
names up by string when a traced run installs its wrappers, so a deleted or
renamed function would otherwise break only the benchmark.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_bindings_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    with tracing.Tracer().installed(callers=(workloads,)):
        pass

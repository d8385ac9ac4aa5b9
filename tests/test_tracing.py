"""The benchmark's tracer still finds every function it times.

`perfbench/tracing.py` names the functions whose spans make up each
per-layer metric; a function renamed or removed here would silently read 0
there.  This test only reads that file.
"""

import importlib.util
from pathlib import Path

import knotzeta.cli  # noqa: F401  (imports every module the tracer looks in)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_finds_every_traced_function():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()

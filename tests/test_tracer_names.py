"""The benchmark tracer patches library attributes by name; a renamed or
removed one must fail here rather than only in a traced benchmark run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_then_uninstall_restores_every_attribute():
    tracer = _load_tracing().Tracer()
    tracer.install()
    patched = list(tracer._saved)
    try:
        assert patched
        assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)

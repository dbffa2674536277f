"""Every function that bench/tracing.py wraps by name still exists, so a
rename in the package cannot silently drop a span, a timed leaf or a count
from ``bench/run.py --trace 1``."""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(ROOT))
try:
    from bench import tracing
finally:
    sys.path.remove(str(ROOT))

_TARGETS = tracing.SPANS + tracing.LEAVES + tracing.COUNTS


@pytest.mark.parametrize("module, attr, name", _TARGETS,
                         ids=[f"{m}:{a}" for m, a, _ in _TARGETS])
def test_trace_target_resolves(module, attr, name):
    mod = importlib.import_module(module)
    if "." in attr:
        # Tracer.install patches the method in the class's own namespace
        cls_name, meth = attr.split(".")
        target = vars(getattr(mod, cls_name)).get(meth)
    else:
        target = getattr(mod, attr, None)
    assert callable(target), f"{module}.{attr} (span {name}) is gone"

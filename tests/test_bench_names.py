"""Every entry point a traced bench run wraps still exists.

`bench/tracing.py` resolves the names in `TRACED` on `wittcert` when a
traced run installs its wrappers, so a renamed or deleted function would
only break the bench.  This test resolves them the way `Tracer.install`
does, without installing anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module_name,attr", _traced())
def test_traced_name_resolves(module_name, attr):
    module = importlib.import_module(f"wittcert.{module_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        target = vars(getattr(module, cls_name))[meth]
        target = getattr(target, "__func__", target)  # a staticmethod wraps its function
    else:
        target = getattr(module, attr)
    assert callable(target)

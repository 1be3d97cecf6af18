"""The names the benchmark's tracer wraps exist where it looks for them.

``perfbench/tracer.py`` wraps each ``METHODS`` entry that it finds in
``vars()`` of its class and skips one that it does not, so a method moved
into a base class, or renamed, would read 0 in its per-layer metric and
fail no benchmark run.  The tracer is loaded by path, as its own file.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from jetmod.jets import SeriesContext

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("module, cls, attr, name", tracer.METHODS)
def test_every_traced_method_is_defined_on_its_class(module, cls, attr, name):
    owner = getattr(importlib.import_module(f"jetmod.{module}"), cls)
    assert attr in vars(owner), f"{name}: {cls}.{attr} is not defined on {cls} itself"


@pytest.mark.parametrize("cls, attr, cache", tracer.LAZY_TABLES)
def test_every_lazy_table_exists_on_a_built_context(cls, attr, cache):
    owner = getattr(importlib.import_module("jetmod.jets"), cls)
    ctx = SeriesContext(2, 2)  # a private context: its tables are not built yet
    assert isinstance(ctx, owner)
    assert attr in vars(owner), f"{cls}.{attr} is not defined on {cls} itself"
    assert hasattr(ctx, cache), f"a built {cls} has no cache attribute {cache}"

"""perfbench's tracer wraps package names from outside the package.

perfbench/tracing.py looks each of its TARGETS up by name when a traced
run starts, so renaming or deleting one of them in src/ would only show
as a crash of `perfbench/run.py --trace 1`.  This test resolves every
target the way Tracer.install does, without installing anything.
"""

import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracing = _load_tracing()
    assert tracing.TARGETS
    for layer, target, _ in tracing.TARGETS:
        module = tracing.MODULES[layer]
        if "." in target:
            cls_name, meth = target.split(".")
            # install wraps the method in the class's own namespace
            assert callable(vars(getattr(module, cls_name)).get(meth)), target
        else:
            assert callable(getattr(module, target, None)), target

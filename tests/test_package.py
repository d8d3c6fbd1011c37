import importlib
import importlib.util
import inspect
from pathlib import Path

import uqcm

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_export_resolves():
    missing = [name for name in uqcm.__all__ if not hasattr(uqcm, name)]
    assert not missing
    assert len(set(uqcm.__all__)) == len(uqcm.__all__)


def test_every_traced_name_resolves_at_its_call_site():
    # the benchmark's traced run wraps each of these names where its caller
    # looks it up; a rename or deletion there would break only that run
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module, path, *_ in spans.TARGETS:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        try:
            for part in outer:
                owner = getattr(owner, part)
            inspect.getattr_static(owner, attr)
        except AttributeError:
            missing.append(f"{module}.{path}")
    assert spans.TARGETS
    assert not missing

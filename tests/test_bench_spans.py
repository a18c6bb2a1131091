"""Every callable that traced benchmark runs wrap still exists in covcat.

``bench/spans.py`` looks each name up when a traced run starts, so a deleted
or renamed name would otherwise surface only as an ``AttributeError`` there.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_spanned_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # standard library imports only
    missing = []
    for module_name, path in spans.SPANNED:
        owner = importlib.import_module(f"covcat.{module_name}")
        head, _, attr = path.partition(".")
        obj = getattr(owner, head, None)
        if obj is None:
            missing.append(f"{module_name}.{path}")
        elif isinstance(obj, type) and (attr or "__init__") not in obj.__dict__:
            missing.append(f"{module_name}.{path}")
    assert not missing, missing

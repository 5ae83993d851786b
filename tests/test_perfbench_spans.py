"""perfbench/spans.py's wrapped layers still exist in rank1check."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)


def test_every_wrapped_attribute_resolves():
    # `perfbench/run.py --trace 1` wraps each of these at install time, so a
    # deleted or renamed function would break the traced benchmark run.
    modules = spans.rank1check_modules()
    missing = [(module, attribute) for module, attribute, _, _ in spans.WRAPPED
               if not callable(getattr(modules[module], attribute, None))]
    assert missing == []

"""The traced benchmark run wraps graphhom functions by (module, attribute) name.

A rename or a dropped import in graphhom breaks that run only; this test
makes it break tier-1 too.  It reads perfbench/tracing.py and changes nothing.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_hook_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        (module, attr)
        for module, attr, _ in tracing.WRAPS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []

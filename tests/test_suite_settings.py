from __future__ import annotations

import importlib
import importlib.util
import sys

import pytest


def test_hypothesis_failure_report_imports(monkeypatch):
    # hypothesis imports this module to report a falsifying example; it pulls
    # in libcst, whose mypy_extensions.TypedDict warns on import, and the
    # suite's DeprecationWarning-as-error filter must not turn the report of
    # a failing property test into a pytest INTERNALERROR
    if importlib.util.find_spec("libcst") is None:
        pytest.skip("libcst is not installed")
    fresh = ("libcst", "hypothesis.extra._patching")
    for name in [n for n in sys.modules if n in fresh or n.startswith("libcst.")]:
        monkeypatch.delitem(sys.modules, name)
    importlib.import_module("hypothesis.extra._patching")

from __future__ import annotations

import types

import alignlab


def test_all_is_the_bound_public_names():
    # every public non-module name the package binds is exported, and only those
    bound = {
        name
        for name, value in vars(alignlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(alignlab.__all__) == len(set(alignlab.__all__))
    assert set(alignlab.__all__) == bound


def test_every_export_resolves():
    namespace: dict = {}
    exec("from alignlab import *", namespace)
    assert all(getattr(alignlab, name) is namespace[name] for name in alignlab.__all__)

from __future__ import annotations

import re
import subprocess
import sys
import types
from pathlib import Path

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


def test_readme_python_blocks_run():
    # the quick tour documents the public API; an API change must keep it running
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(readme), "exec"), {})


# The top-level modules that importing alignlab and alignlab.cli adds after
# numpy.  Every start of the CLI pays for them (and, without bytecode
# caches, compiles them), so a new one must be a deliberate choice.
IMPORT_FOOTPRINT = {
    "__future__",
    "_json",
    "alignlab",
    "argparse",
    "copy",
    "dataclasses",
    "gettext",
    "json",
}


def test_import_footprint():
    probe = (
        "import sys; import numpy; before = set(sys.modules); "
        "import alignlab, alignlab.cli; "
        "print(' '.join(sorted({n.split('.')[0] for n in set(sys.modules) - before})))"
    )
    src = str(Path(alignlab.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); " + probe],
        capture_output=True,
        text=True,
        check=True,
    )
    assert set(done.stdout.split()) <= IMPORT_FOOTPRINT

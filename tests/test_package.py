import json
import os
import subprocess
import sys
from pathlib import Path

import swapinsert


def test_every_public_name_resolves():
    assert len(set(swapinsert.__all__)) == len(swapinsert.__all__)
    for name in swapinsert.__all__:
        assert getattr(swapinsert, name) is not None, name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from swapinsert import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(swapinsert.__all__)


def test_importing_the_package_loads_only_the_standard_library():
    # the top-level modules that importing swapinsert and its CLI adds to a
    # fresh interpreter, other than swapinsert itself and the stdlib's own
    code = ("import json, sys; before = set(sys.modules)\n"
            "import swapinsert, swapinsert.cli\n"
            "tops = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "print(json.dumps(sorted(tops - set(sys.stdlib_module_names))))")
    src = str(Path(swapinsert.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == ["swapinsert"]

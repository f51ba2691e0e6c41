"""The package's lazy exports, and what a fresh ``import sublexp.cli`` process starts."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import sublexp

#: The modules a benchmark or tracer reads off the package after importing the CLI.
CLI_MODULES = ("engine", "gnormal", "mdep", "conditions", "blocking", "cli", "experiments")


def fresh(code: str, **env: str | None) -> str:
    """Stdout of ``code`` run by a new interpreter, with ``env`` set (None: unset) over ours."""
    environ = dict(os.environ)
    for key, value in env.items():
        if value is None:
            environ.pop(key, None)
        else:
            environ[key] = value
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=environ).stdout


def openblas() -> bool:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        return False
    return "openblas" in blas.lower()


@pytest.mark.parametrize("name", sublexp.__all__)
def test_every_exported_name_resolves_and_is_listed(name):
    assert getattr(sublexp, name) is not None
    assert name in dir(sublexp)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sublexp.no_such_name
    assert not hasattr(sublexp, "no_such_name")
    with pytest.raises(ImportError):
        exec("from sublexp import no_such_name", {})


def test_importing_the_package_does_not_import_numpy():
    assert fresh("import sys, sublexp; print('numpy' in sys.modules)") == "False\n"


def test_each_cli_module_is_a_package_attribute_after_importing_the_cli():
    code = ("import sublexp, sublexp.cli; "
            f"print([m for m in {CLI_MODULES!r} if m not in vars(sublexp)])")
    assert fresh(code) == "[]\n"


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_the_cli_pins_openblas_threads_unless_the_user_set_them(preset, expected):
    code = "import os, sublexp.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert fresh(code, OPENBLAS_NUM_THREADS=preset) == f"{expected}\n"


@pytest.mark.skipif(not sys.platform.startswith("linux") or not openblas(),
                    reason="counts the threads of a Linux process with OpenBLAS")
def test_importing_the_cli_starts_no_thread():
    code = "import os, sublexp.cli; print(len(os.listdir('/proc/self/task')))"
    assert fresh(code, OPENBLAS_NUM_THREADS=None) == "1\n"

"""The test runners of the command line: ``run`` for tests that need a fresh
interpreter, for what a start or a first call decides and for a memory bound
that must not limit the tests, and ``in_process`` for ``cli.main`` in this one."""

import contextlib
import functools
import io
import os
import subprocess
import sys
from unittest import mock

import pytest

from codecalc import cli

try:
    import resource
except ImportError:  # not on Windows: the memory-bound cases skip
    resource = None

# the json package; JSON output needs only its C module, _json
JSON_PACKAGE = {"json", "json.decoder", "json.encoder", "json.scanner"}
# every warning raises in the child, so a deprecation fails its test
WARNINGS_ERROR = {"PYTHONWARNINGS": "error"}


def run(*args, timeout=10, env=None, memory_kib=None):
    """``python *args`` in a fresh interpreter, text captured; ``env`` adds to this
    process's environment, ``memory_kib`` bounds the child's address space."""
    limit = None
    if memory_kib is not None:
        def limit(n=memory_kib * 1024):
            resource.setrlimit(resource.RLIMIT_AS, (n, n))
    env = None if env is None else {**os.environ, **env}
    cmd = [sys.executable, *args]
    return subprocess.run(
        cmd, capture_output=True, text=True, timeout=timeout, env=env, preexec_fn=limit
    )


def in_process(*argv, env=None, argparse_only=False):
    """``cli.main(argv)`` in this process, ended as a process would end it: the
    exit code, or ("SystemExit", code) for help, with stdout and stderr.  ``env``
    is CODECALC_FORMAT's value, None to unset it; ``argparse_only`` leaves every
    argv to argparse, as if no command table took it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.dict(os.environ))
        os.environ.pop("CODECALC_FORMAT", None)
        if env is not None:
            os.environ["CODECALC_FORMAT"] = env
        if argparse_only:
            stack.enter_context(mock.patch.object(cli, "_match", lambda table, args: None))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


def case(argv, out, code=0, err=""):
    """A table row for ``python -m codecalc argv``: its stdout, exit code and stderr."""
    return pytest.param(("-m", "codecalc", *argv.split()), out, code, err, id=argv)


def _loaded(code):
    """Run code, which must exit 0 with every warning raised: its stdout lines
    and the modules it left loaded."""
    proc = run("-c", f"import sys\n{code}\nprint(*sorted(sys.modules))", env=WARNINGS_ERROR)
    assert proc.returncode == 0, proc.stderr
    *out, modules = proc.stdout.splitlines()
    return out, frozenset(modules.split())


def start(body):
    """Run body in a fresh interpreter: its stdout lines, and the modules it
    loaded that a bare interpreter does not, so site-installed extras do not count."""
    out, loaded = _loaded(body)
    return out, loaded - _bare()


@functools.cache
def _bare():
    return _loaded("pass")[1]

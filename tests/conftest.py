"""Suite-wide guard: a test that holds an ``assert`` must run one.

A passing test whose every ``assert`` sits behind a branch or a loop that
never ran proves nothing.  ``enable_assertion_pass_hook = true`` in
``pyproject.toml`` makes pytest report each assertion that passes; a test
whose source holds an ``assert`` statement and that passes without
reporting any fails here.  Tests that check only through
``pytest.raises`` or ``np.testing`` hold no ``assert`` and are not
checked.

pytest keys its rewritten bytecode by the source file alone, so a module
rewritten while the hook was off stays silent until its ``__pycache__``
is cleared.  Such a module's tests are not checked, and a warning names
it.
"""

import ast
import functools
import inspect
import textwrap
import warnings

import pytest
from _pytest.assertion import util as assertion_util

# Set while a test body runs: whether one of its assertions has passed.
_RAN_ASSERT = pytest.StashKey[bool]()


def pytest_assertion_pass(item, lineno, orig, expl):
    if _RAN_ASSERT in item.stash:
        item.stash[_RAN_ASSERT] = True
        # One pass settles the check.  Unhooking stops pytest from formatting
        # an explanation for each later pass of this test, which took a third
        # of the suite's time; pytest hooks it again for the next test.
        assertion_util._assertion_pass = None


@functools.cache
def _holds_assert(function) -> bool:
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    return any(isinstance(node, ast.Assert) for node in ast.walk(tree))


def _reports_passes(code) -> bool:
    """Whether ``code`` or a code object nested in it was rewritten with the hook on."""
    return "_call_assertion_pass" in code.co_names or any(
        _reports_passes(c) for c in code.co_consts if inspect.iscode(c)
    )


@functools.cache
def _warn_stale(path: str) -> None:
    warnings.warn(
        f"{path} was rewritten without the assertion-pass hook; clear its __pycache__ "
        "to check that its tests run their asserts",
        pytest.PytestWarning,
    )


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    item.stash[_RAN_ASSERT] = False
    result = yield
    function = getattr(item, "function", None)
    function = getattr(function, "__func__", function)  # a test method's plain function
    if item.stash[_RAN_ASSERT] or function is None or not _holds_assert(function):
        return result
    if not _reports_passes(function.__code__):
        _warn_stale(str(item.path))
        return result
    pytest.fail(f"{item.nodeid} passed without running any of its assert statements", pytrace=False)

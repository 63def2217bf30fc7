"""Run deeply recursive callables on a big-stack thread.

The paper's Tests A1/A2 recurse along a 10000-element list.  CPython's
default recursion limit (1000) and default thread stack are far too small
— especially with the extra frames each swap-cluster-proxy boundary
crossing adds — so the harness runs the test body on a dedicated thread
with a large stack and a raised recursion limit.
"""

from __future__ import annotations

import sys
import threading
from typing import Any, Callable

DEFAULT_STACK_BYTES = 512 * 1024 * 1024
DEFAULT_RECURSION_LIMIT = 200_000


def run_deep(
    fn: Callable[[], Any],
    stack_bytes: int = DEFAULT_STACK_BYTES,
    recursion_limit: int = DEFAULT_RECURSION_LIMIT,
) -> Any:
    """Execute ``fn()`` on a thread with a big stack; return its result.

    Exceptions propagate to the caller.  The recursion limit is raised
    only inside the worker thread's run (the interpreter-wide limit is
    restored afterwards).
    """
    result: list = [None]
    failure: list = [None]

    def worker() -> None:
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(recursion_limit)
        try:
            result[0] = fn()
        except BaseException as exc:  # noqa: BLE001 - transported to caller
            failure[0] = exc
        finally:
            sys.setrecursionlimit(old_limit)

    old_stack = threading.stack_size()
    try:
        threading.stack_size(stack_bytes)
        thread = threading.Thread(target=worker, name="repro-deepcall")
        thread.start()
    finally:
        threading.stack_size(old_stack)
    thread.join()
    if failure[0] is not None:
        raise failure[0]
    return result[0]

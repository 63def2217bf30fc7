"""Generated proxy classes keep CPython's attribute-load specialisation.

On CPython 3.11 and later, a class that defines ``__getattr__`` or its
own ``__getattribute__`` gets no specialised attribute loads: every slot
read of a forwarder and every method lookup on a proxy would take the
generic path.  Proxies read fields through generated accessors instead,
so no class in a generated proxy's MRO may define either hook.
"""

from __future__ import annotations

import dis
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.core.swap_proxy import GeneratedProxyBase
from repro.runtime import global_registry
from tests.core.test_mediation_reference import MediationCell
from tests.helpers import Node, Pair, build_chain, make_space


def _swapbench_classes() -> list:
    path = Path(__file__).resolve().parents[2] / "swapbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("swapbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [module.SbNode, module.SbBlob, module.SbRecord]


@pytest.mark.parametrize(
    "cls",
    [Node, Pair, MediationCell, *_swapbench_classes()],
    ids=lambda cls: cls.__name__,
)
def test_no_class_in_a_proxy_mro_hooks_attribute_lookup(cls):
    proxy_class = global_registry().proxy_class_for(cls)
    assert issubclass(proxy_class, GeneratedProxyBase)
    for klass in proxy_class.__mro__:
        assert "__getattr__" not in vars(klass), klass
        assert klass is object or "__getattribute__" not in vars(klass), klass


def _warm(function, *args) -> None:
    for _ in range(1_000):
        function(*args)


def _call_get_next(proxy):
    return proxy.get_next()


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] not in ((3, 11), (3, 12)),
    reason="the specialised instruction names are those of CPython 3.11 and 3.12",
)
def test_forwarder_slot_loads_and_proxy_method_lookups_specialise():
    space = make_space()
    handle = space.ingest(build_chain(10), cluster_size=5, root_name="h")
    # a call from swap-cluster-0 that returns a managed object: the
    # forwarder reads the slots of a proxy that is not in assign mode
    _warm(_call_get_next, handle)
    forwarder = type(handle).get_next
    loads = {}
    for instruction in dis.get_instructions(forwarder, adaptive=True):
        if str(instruction.argval).startswith("_obi_"):
            loads.setdefault(instruction.argval, set()).add(instruction.opname)
    for slot in ("_obi_space", "_obi_target", "_obi_cluster", "_obi_assign_mode",
                 "_obi_source_sid"):
        assert "LOAD_ATTR_SLOT" in loads[slot], (slot, loads[slot])
    lookups = [
        instruction.opname
        for instruction in dis.get_instructions(_call_get_next, adaptive=True)
        if instruction.argval == "get_next"
    ]
    assert lookups and all(name.endswith("METHOD_NO_DICT") for name in lookups), lookups

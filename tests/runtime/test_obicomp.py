"""The obicomp proxy compiler."""

import abc
import uuid

import pytest

from repro import managed
from repro.core.swap_proxy import SwapClusterProxyBase
from repro.runtime.obicomp import ACCESSOR_NAMES, ManagedClass, compile_proxy_class
from tests.helpers import Node, build_chain, make_space


def test_managed_sets_markers():
    assert Node._obi_managed is True
    assert Node._obi_schema is not None


def test_managed_with_size():
    @managed(size=128)
    class Sized:
        def noop(self):
            return None

    assert Sized._obi_size_hint == 128


def test_proxy_class_shape():
    proxy_class = compile_proxy_class(Node)
    assert issubclass(proxy_class, SwapClusterProxyBase)
    assert proxy_class._obi_target_class is Node
    assert hasattr(proxy_class, "get_value")
    assert proxy_class.__slots__ == ()


def test_proxy_class_rejects_unmanaged():
    class Plain:
        pass

    with pytest.raises(TypeError):
        compile_proxy_class(Plain)


def test_proxies_cannot_be_constructed_directly():
    proxy_class = compile_proxy_class(Node)
    with pytest.raises(TypeError):
        proxy_class()


def test_generated_method_forwards_and_translates():
    space = make_space()
    handle = space.ingest(build_chain(10), cluster_size=5, root_name="h")
    assert handle.get_value() == 0
    nxt = handle.get_next()
    assert nxt.get_value() == 1


def test_generated_method_with_arguments():
    space = make_space()
    handle = space.ingest(build_chain(3), cluster_size=1, root_name="h")
    assert handle.set_value(42) == 42
    assert handle.get_value() == 42


def test_exact_arity_wrapper_signature_errors():
    space = make_space()
    handle = space.ingest(build_chain(3), cluster_size=1, root_name="h")
    with pytest.raises(TypeError):
        handle.get_value(1, 2)  # too many arguments


def test_generic_fallback_for_varargs_methods():
    @managed
    class Variadic:
        def collect(self, *items, **named):
            return (items, named)

    space = make_space()
    first = Variadic()
    space.ingest(first, cluster_size=1, root_name="v")
    proxy = space.get_root("v")
    items, named = proxy.collect(1, 2, key="x")
    assert items == (1, 2) and named == {"key": "x"}


def test_default_arguments_fall_back_to_generic_wrapper():
    @managed
    class Defaulted:
        def greet(self, name="world"):
            return f"hello {name}"

    space = make_space()
    space.ingest(Defaulted(), cluster_size=1, root_name="d")
    proxy = space.get_root("d")
    assert proxy.greet() == "hello world"
    assert proxy.greet("there") == "hello there"


def test_kwargs_through_generic_wrapper_translate_references():
    space = make_space()
    handle = space.ingest(build_chain(4), cluster_size=2, root_name="h")
    other = handle.get_next().get_next()  # different cluster
    # identity_of returns its argument; passing a proxy across must
    # round-trip to something equal to the original
    assert handle.identity_of(other) == other


def test_forwarded_dunder_len():
    @managed
    class Bag:
        def __init__(self):
            self.items = [1, 2, 3]

        def __len__(self):
            return len(self.items)

        def touch(self):
            return None

    space = make_space()
    space.ingest(Bag(), cluster_size=1, root_name="bag")
    assert len(space.get_root("bag")) == 3


def test_managed_preserves_class_identity():
    node = Node(1)
    assert type(node) is Node
    assert node.get_value() == 1  # undecorated behaviour intact


def test_managed_rebuilds_the_class_under_its_metaclass():
    class Base:
        def hello(self):
            return "base"

    @managed
    class Greeter(Base):
        def hello(self):
            return "greeter+" + super().hello()

    assert isinstance(Greeter, ManagedClass)
    assert Greeter.__qualname__.endswith("<locals>.Greeter")
    assert Greeter().hello() == "greeter+base"
    assert managed(Greeter) is Greeter


def test_managed_keeps_another_metaclass():
    class Shape(abc.ABC):
        @abc.abstractmethod
        def area(self): ...

    @managed
    class Square(Shape):
        def area(self):
            return 4

    @managed
    class Unfinished(Shape):
        pass

    assert isinstance(Square, ManagedClass) and isinstance(Square, abc.ABCMeta)
    assert Square().area() == 4
    with pytest.raises(TypeError):
        Unfinished()


def test_a_class_attribute_set_later_reads_through_a_proxy():
    @managed
    class Late:
        def __init__(self):
            self.value = 1
            self.next = None

    space = make_space()
    first, second = Late(), Late()
    first.next = second
    handle = space.ingest(first, cluster_size=1, root_name="late")
    name = f"late_{uuid.uuid4().hex}"
    setattr(Late, name, 5)
    assert getattr(handle.next, name) == 5


def test_a_field_written_around_the_barrier_before_adoption_reads_through_a_proxy():
    space = make_space()
    chain = build_chain(4)
    name = f"hidden_{uuid.uuid4().hex}"
    object.__setattr__(chain.next, name, 9)
    assert name not in ACCESSOR_NAMES
    handle = space.ingest(chain, cluster_size=1, root_name="h")
    assert getattr(handle.get_next(), name) == 9

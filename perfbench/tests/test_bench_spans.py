import sys
import types

import pytest

from spans import Tracer

CORE = """
def leaf(x):
    return x + 1

def outer(x):
    return leaf(x) * 2

def boom(x):
    raise KeyError(x)

def _private(x):
    return x

alias = leaf
"""

USER = """
def run(x):
    return leaf(x) + outer(x)
"""


@pytest.fixture
def fakepkg():
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    exec(CORE, core.__dict__)
    user = types.ModuleType("fakepkg.user")
    user.leaf = core.leaf  # what ``from .core import leaf, outer`` does
    user.outer = core.outer
    exec(USER, user.__dict__)
    mods = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}
    sys.modules.update(mods)
    yield core, user
    for name in mods:
        del sys.modules[name]


def test_install_rebinds_every_copy_and_restore_puts_originals_back(fakepkg):
    core, user = fakepkg
    originals = {
        (mod, attr): getattr(mod, attr)
        for mod, attr in [
            (core, "leaf"), (core, "alias"), (core, "outer"), (core, "boom"),
            (core, "_private"), (user, "leaf"), (user, "outer"), (user, "run"),
        ]
    }
    tracer = Tracer()
    # leaf under three names, outer under two, boom and run once; _private never
    assert tracer.install("fakepkg") == 7
    assert core.alias is core.leaf is user.leaf
    assert core.leaf is not originals[(core, "leaf")]
    assert core._private is originals[(core, "_private")]
    assert tracer.restore()
    for (mod, attr), fn in originals.items():
        assert getattr(mod, attr) is fn


def test_spans_nest_through_module_globals(fakepkg):
    core, user = fakepkg
    tracer = Tracer()
    tracer.install("fakepkg")
    try:
        assert user.run(1) == 2 + 4
        s = tracer.summary()
    finally:
        tracer.restore()
    assert s["calls"] == {"core.leaf": 2, "core.outer": 1, "core.boom": 0, "user.run": 1}
    assert s["spans"] == 4
    # every span but user.run has a parent, so root time is user.run's duration
    assert s["self_total_s"] == pytest.approx(s["root_s"], abs=1e-9)
    assert s["min_self_s"] >= 0
    assert tracer.span(1) [:2] == ("core.leaf", "user.run")
    assert tracer.span(2)[:2] == ("core.outer", "user.run")
    assert tracer.span(3)[:2] == ("core.leaf", "core.outer")


def test_a_raising_call_closes_its_span_and_is_counted(fakepkg):
    core, _ = fakepkg
    tracer = Tracer()
    tracer.install("fakepkg")
    try:
        with pytest.raises(KeyError):
            core.boom(3)
        assert core.leaf(1) == 2
        s = tracer.summary()
    finally:
        tracer.restore()
    assert s["raised"] == {"core.boom": 1}
    assert tracer.span(1)[1] is None  # the stack unwound past boom


def test_reset_keeps_wrappers_and_counts_repeat(fakepkg):
    core, user = fakepkg
    tracer = Tracer()
    tracer.install("fakepkg")
    try:
        user.run(1)
        first = tracer.summary()["calls"]
        tracer.reset()
        user.run(1)
        second = tracer.summary()["calls"]
    finally:
        tracer.restore()
    assert first == second


def test_after_hook_sees_arguments_and_result(fakepkg):
    core, _ = fakepkg
    tracer = Tracer()

    def hook(t, idx, args, kwargs, result):
        t.counters["seen"] += args[0] + result

    tracer.install("fakepkg", {"core.leaf": hook})
    try:
        core.leaf(5)
    finally:
        tracer.restore()
    assert tracer.counters["seen"] == 11


def test_patched_method_alias_is_wrapped_and_restored():
    class Num:
        def __init__(self, v):
            self.v = v

        def __mul__(self, other):
            return Num(self.v * (other.v if isinstance(other, Num) else other))

        __rmul__ = __mul__

    original = vars(Num)["__mul__"]
    tracer = Tracer()
    wrapped = tracer.wrap(original, "num.mul")
    tracer.patch(Num, "__mul__", wrapped)
    tracer.patch(Num, "__rmul__", wrapped)
    try:
        assert (Num(2) * Num(3)).v == 6
        assert (4 * Num(2)).v == 8
        assert tracer.summary()["calls"] == {"num.mul": 2}
    finally:
        assert tracer.restore()
    assert vars(Num)["__mul__"] is original and vars(Num)["__rmul__"] is original

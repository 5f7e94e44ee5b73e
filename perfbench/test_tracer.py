"""Tests of the benchmark's outside-in tracer and its host-speed correction.

    python3 -m pytest perfbench
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from tracer import Tracer, install_gcaps, layer_shares, self_times, summarize  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_a_nested_call_tree():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def at(t, action, *args):
        clock.now = t
        return action(*args)

    root = at(0, tracer.open, "bench.op")
    a = at(1, tracer.open, "network.forward")
    a1 = at(2, tracer.open, "tensor.conv2d")
    at(3, tracer.close, a1)
    at(4, tracer.close, a)
    b = at(5, tracer.open, "tensor.backward")
    at(9, tracer.close, b)
    at(10, tracer.close, root)

    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    assert self_times(tracer.spans) == [3.0, 2.0, 1.0, 4.0]
    table = summarize(tracer.spans)
    assert table["network.forward"] == {"calls": 1, "total_s": 3.0,
                                        "self_s": 2.0, "size": 0.0}
    shares = layer_shares(tracer.spans, wall_s=20.0)
    assert shares == pytest.approx({"bench": 0.15, "network": 0.1,
                                    "tensor": 0.25, "untraced": 0.5})


def test_wrapped_calls_nest_and_attach_sizes():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf(x):
        clock.now += 2
        return x * 2

    traced_leaf = tracer.traced("tensor.leaf", leaf,
                                size=lambda a, k, r: float(r))

    def outer(x):
        clock.now += 1
        y = traced_leaf(x)
        clock.now += 1
        return y

    assert tracer.traced("network.outer", outer)(5) == 10
    assert self_times(tracer.spans) == [2.0, 2.0]
    assert tracer.spans[1].size == 10.0

    tracer.enabled = False
    assert tracer.traced("network.outer", outer)(1) == 2
    assert len(tracer.spans) == 2


def test_generator_spans_count_only_next_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def produce(n):
        for i in range(n):
            clock.now += 1          # work done inside next()
            yield i

    batches = tracer.traced_generator("data.batches", produce)
    stream = batches(3)
    assert tracer.spans == []       # creating the generator is not a span
    got = []
    for item in stream:
        clock.now += 10             # the consumer's work between next() calls
        got.append(item)
    assert got == [0, 1, 2]
    # three items and the final next() that ends the iteration
    assert [s.duration for s in tracer.spans] == [1.0, 1.0, 1.0, 0.0]
    assert summarize(tracer.spans)["data.batches"]["total_s"] == 3.0


def _bindings():
    import gcaps.cli  # noqa: F401  (loads every gcaps module)
    from gcaps.network import Adam
    from gcaps.tensor import Tensor
    found = {}
    for key, module in sorted(sys.modules.items()):
        if module is not None and (key == "gcaps" or key.startswith("gcaps.")):
            for attr, value in vars(module).items():
                found[(key, attr)] = value
    for cls in (Tensor, Adam):
        for attr, value in vars(cls).items():
            found[(cls.__qualname__, attr)] = value
    return found


def test_install_wraps_every_binding_and_restore_puts_them_back():
    import gcaps.analysis
    import gcaps.network
    import gcaps.routing
    import gcaps.tensor
    before = _bindings()
    tracer = Tracer()
    install_gcaps(tracer)
    try:
        for module, attr in ((gcaps.tensor, "conv2d"), (gcaps.network, "conv2d"),
                             (gcaps.routing, "weighted_sum"),
                             (gcaps.analysis, "train_step"),
                             (gcaps.analysis, "batches")):
            key = (module.__name__, attr)
            assert getattr(module, attr) is not before[key], key
        assert gcaps.tensor.Tensor.backward is not before[("Tensor", "backward")]
        assert gcaps.network.Adam.step is not before[("Adam", "step")]
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_traced_routing_records_capsule_spans_under_route():
    import numpy as np
    from gcaps.capsule import CapsLayerSpec
    from gcaps.routing import RoutingConfig
    import gcaps.routing

    spec = CapsLayerSpec(num_lower=6, num_upper=3, dim_lower=2, dim_upper=4,
                         num_types=2, caps_per_type=3)
    u_hat = np.random.default_rng(0).standard_normal((1, 6, 3, 4))
    tracer = Tracer()
    install_gcaps(tracer)
    try:
        gcaps.routing.route(u_hat, spec, RoutingConfig.from_name("alg4"))
    finally:
        tracer.restore()
    table = summarize(tracer.spans)
    assert table["routing.route"]["calls"] == 1
    # grouped routing: one weighted_sum per type per iteration
    assert table["capsule.weighted_sum"]["calls"] == 2 * 3
    assert all(s.parent == 0 for s in tracer.spans[1:])
    assert 0.0 <= table["routing.route"]["self_s"] <= table["routing.route"]["total_s"]


def test_host_speed_correction_scales_to_the_reference_host():
    from child import HostProbe
    from run import at_reference_speed

    probe = HostProbe()
    probe.seconds = []
    probe.sample()
    assert len(probe.seconds) == 1          # sample() times the probe once
    probe.seconds = [2 * HostProbe.REFERENCE_S] * 3     # a host at half speed
    assert probe.speed() == pytest.approx(0.5)
    # 1 s of set-up there is 0.5 s on the reference host
    assert at_reference_speed(1.0, probe.speed()) == pytest.approx(0.5)

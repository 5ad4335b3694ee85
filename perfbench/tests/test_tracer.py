"""The wrappers are transparent and the spans they record nest."""

import itertools

import pytest

from layers import TARGETS
from stats import self_times
from tracer import Tracer, load_spans


def ticking_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


def add(x, *, y=1):
    """Adds."""
    return x + y


def fail(message):
    raise KeyError(message)


def counter(n, log):
    for i in range(n):
        log.append(i)
        sent = yield i
        if sent is not None:
            log.append(("sent", sent))
    return "done"


def guarded(flags):
    try:
        yield 1
        yield 2
    finally:
        flags.append("closed")


def drain(generator):
    items = []
    while True:
        try:
            items.append(next(generator))
        except StopIteration as stop:
            return items, stop.value


def test_results_and_metadata_pass_through():
    wrapped = Tracer().wrap(add, "t:add", "t")
    assert wrapped(2, y=3) == 5
    assert wrapped.__name__ == "add"
    assert wrapped.__doc__ == "Adds."
    assert wrapped.__wrapped__ is add


def test_exceptions_pass_through_and_close_the_span(tmp_path):
    tracer = Tracer()
    wrapped = tracer.wrap(fail, "t:fail", "t")
    with pytest.raises(KeyError) as raised:
        wrapped("boom")
    assert raised.value.args == ("boom",)
    path = str(tmp_path / "spans")
    tracer.dump(path)
    thread = load_spans(path).threads[0]
    assert len(thread.starts) == 1 and thread.ends[0] >= thread.starts[0]


def test_generators_stay_lazy_and_keep_send_and_return():
    wrapped = Tracer().wrap(counter, "t:counter", "t")
    log = []
    generator = wrapped(3, log)
    assert log == []  # nothing ran before the first next()
    assert next(generator) == 0
    assert generator.send("x") == 1
    assert log == [0, ("sent", "x"), 1]
    assert drain(wrapped(3, [])) == ([0, 1, 2], "done")


def test_generator_throw_and_close_reach_the_producer():
    tracer = Tracer()
    wrapped = tracer.wrap(guarded, "t:guarded", "t")
    flags = []
    generator = wrapped(flags)
    assert next(generator) == 1
    generator.close()
    assert flags == ["closed"]
    generator = wrapped(flags)
    next(generator)
    with pytest.raises(ValueError):
        generator.throw(ValueError("stop"))
    assert flags == ["closed", "closed"]


def test_returned_iterators_are_timed_lazily():
    log = []

    def produce(n):
        return (log.append(i) or i for i in range(n))

    wrapped = Tracer().wrap(produce, "t:produce", "t")
    iterator = wrapped(3)
    assert log == []
    assert list(iterator) == [0, 1, 2]


def test_spans_nest_and_self_times_add_up(tmp_path):
    tracer = Tracer(clock=ticking_clock())
    inner = tracer.wrap(lambda: None, "t:inner", "t")

    def body():
        inner()
        inner()

    tracer.wrap(body, "u:outer", "u")()
    path = str(tmp_path / "spans")
    tracer.dump(path)
    dump = load_spans(path)
    thread = dump.threads[0]
    # clock reads: outer 0..5 around inner 1..2 and inner 3..4
    assert list(thread.parents) == [-1, 0, 0]
    assert self_times(thread.starts, thread.ends, thread.parents) == [3.0, 1.0, 1.0]
    assert dump.calls == {"u:outer": 1, "t:inner": 2}


def test_install_patches_every_binding_and_uninstall_restores(tmp_path):
    import repro.core.composition as composition
    import repro.core.framework as framework
    from repro.datamodel.instances import Instance

    original = composition.composition_membership
    assert framework.composition_membership is original
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        assert composition.composition_membership is not original
        assert framework.composition_membership is composition.composition_membership
        instance = Instance.build({"P": [("a", "b")]})
        assert isinstance(instance, Instance) and len(instance.facts) == 1
    finally:
        tracer.uninstall()
    assert composition.composition_membership is original
    assert framework.composition_membership is original
    assert "build" in Instance.__dict__ and Instance.build({"P": []}).facts == frozenset()
    path = str(tmp_path / "spans")
    tracer.dump(path)
    assert load_spans(path).calls["datamodel:Instance.build"] == 1


def test_traced_checks_give_the_same_verdicts(tmp_path):
    from repro.catalog import example_5_4, thm_4_8
    from repro.engine import reset_engine_stats
    from repro.workloads import instance_universe

    def checks():
        # imported here, so that the traced call sees the patched names
        from repro.core import inverse, is_inverse
        from repro.core.framework import unique_solutions_property

        reset_engine_stats()
        results = []
        for make in (thm_4_8, example_5_4):
            mapping = make()
            universe = instance_universe(mapping.source, ["a", "b"], max_facts=1)
            results.append(is_inverse(mapping, inverse(mapping), universe))
            results.append(tuple(unique_solutions_property(mapping, universe)))
        return results

    plain = checks()
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        traced = checks()
    finally:
        tracer.uninstall()
    assert traced == plain
    path = str(tmp_path / "spans")
    tracer.dump(path)
    dump = load_spans(path)
    assert dump.calls["composition:composition_membership"] > 0
    assert dump.tallies["sweep_pairs"] == sum(r.checked for r in plain[::2])

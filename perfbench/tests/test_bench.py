"""Tests of the benchmark's own machinery.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import types
from functools import lru_cache

import pytest

import hostspeed
import stats
import tracing
import workloads


class FakeClock:
    """A clock that moves only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def _module(name: str, source: str, **namespace) -> types.ModuleType:
    module = types.ModuleType(name)
    module.__dict__.update(namespace)
    exec(source, module.__dict__)
    return module


# -- tail percentile ------------------------------------------------------


def test_tail_is_rank_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 41)]  # 40 samples, in reverse order
    samples.reverse()
    t = stats.tail(samples)
    assert t.value == 30.0
    assert t.percentile == 75.0
    assert t.beyond == 10
    assert t.samples == 40


def test_tail_exact_rule_from_twenty_two_samples():
    t = stats.tail([float(i) for i in range(22)])
    assert (t.value, t.beyond) == (11.0, 10)


def test_tail_short_run_falls_back_to_upper_median():
    t = stats.tail([5.0, 1.0, 3.0])
    assert (t.value, t.beyond, t.samples) == (3.0, 1, 3)
    t = stats.tail([4.0, 1.0, 3.0, 2.0])
    assert t.value == 3.0 and t.value >= stats.median([4.0, 1.0, 3.0, 2.0])
    assert stats.tail([7.0]) == stats.Tail(7.0, 100.0, 0, 1)


def test_tail_and_median_refuse_no_samples():
    with pytest.raises(ValueError):
        stats.tail([])
    with pytest.raises(ValueError):
        stats.median([])


# -- self time ------------------------------------------------------------


def test_self_time_subtracts_union_of_children():
    # A [0,10] has children B [1,4], D [5,9] and E [8,12]; E overlaps D
    # and runs past A, so A's covered part is [1,4] + [5,10] = 8.
    # C [2,3] is B's child.
    start = [0.0, 1.0, 2.0, 5.0, 8.0]
    end = [10.0, 4.0, 3.0, 9.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    assert tracing.self_times(start, end, parent) == [2.0, 2.0, 1.0, 4.0, 4.0]


def test_self_time_from_recorded_nested_spans():
    clock = FakeClock()
    spans = tracing.Spans(clock)
    outer = spans.open(spans.name_id("outer"))
    clock.advance(1)
    inner = spans.open(spans.name_id("inner"))
    clock.advance(3)
    spans.close(inner)
    clock.advance(2)
    spans.close(outer)
    assert list(spans.parent) == [-1, 0]
    assert tracing.self_times(spans.start, spans.end, spans.parent) == [3.0, 3.0]


# -- tracer on a fake package --------------------------------------------

CORE = '''
__all__ = ["gen", "outer", "cached", "fails", "Box"]

def gen(n):
    for i in range(n):
        clock.advance(1)
        yield i

def outer(n):
    total = 0
    for item in gen(n):
        clock.advance(100)
        total += item
    return total

@lru_cache(maxsize=None)
def cached(n):
    clock.advance(5)
    return n * n

def fails():
    raise ValueError("no")

class Box:
    def grow(self):
        clock.advance(7)
        return self

    @lru_cache(maxsize=None)
    def memo(self):
        return 1
'''

USER = '''
TABLE = {"outer": outer}
'''


@pytest.fixture
def fake_package(monkeypatch):
    clock = FakeClock()
    core = _module("fakepkg.core", CORE, clock=clock, lru_cache=lru_cache)
    # the copies a "from fakepkg.core import cached, outer" would bind
    user = _module("fakepkg.user", USER, cached=core.cached, outer=core.outer)
    modules = {"core": core, "user": user}
    monkeypatch.setitem(tracing.METHODS, "core.Box.grow", "grow")
    monkeypatch.setitem(tracing.METHODS, "core.Gone.method", "method")
    return modules, clock


def test_generator_is_timed_per_next_only(fake_package):
    modules, clock = fake_package
    tracer = tracing.Tracer(modules, clock=clock)
    tracer.install(op_id=0)
    assert modules["core"].outer(3) == 3
    tracer.uninstall()
    totals = tracer.layer_totals()
    # the consumer's 100-tick pauses between next() calls are its own time
    assert totals["core.gen"]["calls"] == 1
    assert totals["core.gen"]["yielded"] == 3
    assert totals["core.gen"]["self_s"] == 3.0
    assert totals["core.outer"]["self_s"] == 300.0
    assert totals["core.outer"]["total_s"] == 303.0


def test_wrapper_sits_outside_the_cache_and_counts_hits(fake_package):
    modules, clock = fake_package
    tracer = tracing.Tracer(modules, clock=clock)
    tracer.install(op_id=0)
    for _ in range(3):
        modules["user"].cached(4)  # the copy bound by "from ... import"
    modules["core"].Box().grow()
    with pytest.raises(ValueError):
        modules["core"].fails()
    tracer.uninstall()
    totals = tracer.layer_totals()
    assert totals["core.cached"]["calls"] == 3
    assert totals["core.cached"]["self_s"] == 5.0  # one miss, two hits
    assert totals["core.Box.grow"]["calls"] == 1
    assert totals["core.fails"]["errors"] == 1
    assert "core.Gone.method" not in totals  # a missing layer is skipped


def test_uninstall_restores_every_binding(fake_package):
    modules, _ = fake_package
    core, user = modules["core"], modules["user"]
    before = {
        (short, key): value
        for short, module in modules.items()
        for key, value in vars(module).items()
    }
    table_before = dict(user.TABLE)
    grow = vars(core.Box)["grow"]
    tracer = tracing.Tracer(modules)
    tracer.install(op_id=0)
    assert user.cached is not before[("user", "cached")]
    assert user.TABLE["outer"] is not table_before["outer"]
    assert vars(core.Box)["grow"] is not grow
    tracer.uninstall()
    after = {
        (short, key): value
        for short, module in modules.items()
        for key, value in vars(module).items()
    }
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert user.TABLE == table_before and user.TABLE["outer"] is table_before["outer"]
    assert vars(core.Box)["grow"] is grow


# -- the real package -----------------------------------------------------


def test_cache_reset_clears_every_discovered_cache():
    modules = tracing.package_modules()
    caches = tracing.discover_caches(modules)
    for name in ("genseries.gen_cosecant", "genseries.gen_secant", "exactnum.pochhammer_poly", "exactnum.pi_hp"):
        assert name in caches
    genseries, exactnum = modules["genseries"], modules["exactnum"]
    genseries.gen_cosecant(6)
    genseries.gen_secant(4)
    exactnum.pi_hp(40)
    modules["refdata"].load_table3()
    modules["symzeta"].sym_poly(6, 2)
    modules["partitions"].partition_count(9)
    assert sum(c.cache_info().currsize for c in caches.values()) > 0
    tracing.reset_caches(caches)
    assert {name: c.cache_info().currsize for name, c in caches.items()} == {
        name: 0 for name in caches
    }


def test_cache_discovery_finds_class_level_caches(fake_package):
    modules, _ = fake_package
    caches = tracing.discover_caches(modules)
    assert set(caches) == {"core.cached", "core.Box.memo"}


def test_tracing_real_package_restores_it_and_keeps_output():
    modules = tracing.package_modules()
    snapshot = {
        (short, key): value
        for short, module in modules.items()
        for key, value in vars(module).items()
    }
    suites_before = dict(modules["suites"].SUITES)
    add = vars(modules["exactnum"].RhoPolynomial)["__add__"]
    op = workloads.Op((("cosec", "--k", "8", "--rho=-3/7"),))
    plain = workloads.execute(op, modules)

    tracer = tracing.Tracer(modules)
    tracing.reset_caches(tracing.discover_caches(modules))
    tracer.install(op_id=0)
    assert modules["genseries"].pochhammer_poly is not snapshot[("exactnum", "pochhammer_poly")]
    traced = workloads.execute(op, modules)
    tracer.uninstall()

    assert traced == plain and plain["rc"] == [0]
    totals = tracer.layer_totals()
    assert totals["genseries.partition_transform"]["calls"] == 1
    assert totals["partitions.enumerate_partitions"]["yielded"] == 22  # p(8)
    assert totals["cli.main"]["calls"] == 1
    assert tracer.row_bits_max > 0
    for (short, key), value in snapshot.items():
        assert vars(modules[short])[key] is value, f"{short}.{key} not restored"
    assert modules["suites"].SUITES == suites_before
    assert all(modules["suites"].SUITES[k] is v for k, v in suites_before.items())
    assert vars(modules["exactnum"].RhoPolynomial)["__add__"] is add


def test_operations_depend_only_on_the_seed():
    def first(name, seed):
        return list(itertools.islice(workloads.operations(name, seed), 12))

    for name in workloads.GENERATORS:
        assert first(name, 7) == first(name, 7)
        assert first(name, 7) != first(name, 8)


def test_zeta_operations_cover_the_grid_per_block():
    ops = workloads.operations("zeta-hp", 3)
    n = len(workloads.ZETA_M)
    lo_v, hi_v = workloads.ZETA_V
    lo_p, hi_p = workloads.ZETA_PRECISION
    for _ in range(3):
        block = [next(ops) for _ in range(n * n)]
        cells = set()
        for op in block:
            v, precision = op.asymptotic
            assert lo_v <= v <= hi_v and lo_p <= precision <= hi_p
            m = int(op.commands[0][2])
            v_fifth = (v - lo_v) * n // (hi_v - lo_v + 1)
            p_fifth = (precision - lo_p) * n // (hi_p - lo_p + 1)
            cells.add((m, v_fifth))
            assert p_fifth == (m - 1 + v_fifth) % n
        assert cells == {(m, j) for m in workloads.ZETA_M for j in range(n)}


def test_every_workload_has_a_host_speed_probe():
    assert set(hostspeed.FOR_WORKLOAD) == set(workloads.GENERATORS)
    for probe in set(hostspeed.FOR_WORKLOAD.values()):
        seconds = probe.run()
        assert seconds > 0
        assert probe.at_reference_speed(2.0, 2 * probe.reference_s) == 1.0

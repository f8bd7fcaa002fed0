"""Tests of the benchmark's span helpers: self times, slopes and call-site wrapping."""

import math
import sys
import types

import pytest

import spans
from spans import END, NAME, PARENT, START


def _span(name, start, end, parent=-1):
    return [name, start, end, parent]


def test_self_time_subtracts_direct_children():
    recs = [
        _span("cli.verify", 0.0, 10.0),
        _span("complexes.is_flag", 1.0, 4.0, 0),
        _span("coloring.peel_color_3", 5.0, 9.0, 0),
        _span("complexes.is_flag", 5.5, 7.5, 2),
    ]
    assert spans.self_times(recs) == pytest.approx([3.0, 3.0, 2.0, 2.0])


def test_self_times_of_a_tree_sum_to_its_root():
    recs = [
        _span("cli.flagify", 0.0, 6.0),
        _span("flagify.eliminate_round", 0.5, 2.5, 0),
        _span("complexes.subdivide_edge", 0.75, 1.25, 1),
        _span("complexes.subdivide_edge", 1.5, 2.0, 1),
        _span("flagify.eliminate_round", 3.0, 5.0, 0),
    ]
    assert spans.nesting_errors(recs) == []
    assert sum(spans.self_times(recs)) == pytest.approx(6.0)


def test_nesting_errors_flag_a_child_outside_its_parent():
    recs = [_span("cli.color", 0.0, 2.0), _span("coloring.peel_color_3", 1.0, 3.0, 0)]
    assert len(spans.nesting_errors(recs)) == 1


def test_log_log_slope_recovers_a_power_law():
    xs = [28, 34, 40]
    assert spans.log_log_slope(xs, [3.0 * x**5.6 for x in xs]) == pytest.approx(5.6)
    assert spans.log_log_slope(xs, [7.0, 7.0, 7.0]) == pytest.approx(0.0)


def test_log_log_slope_is_least_squares():
    xs = [1.0, math.e, math.e**2]
    ys = [1.0, math.e**3, math.e**2]
    assert spans.log_log_slope(xs, ys) == pytest.approx(1.0)


@pytest.mark.parametrize("xs, ys", [([2.0], [1.0]), ([2.0, 2.0], [1.0, 3.0]), ([1.0], [1.0, 2.0])])
def test_log_log_slope_rejects_degenerate_input(xs, ys):
    with pytest.raises(ValueError):
        spans.log_log_slope(xs, ys)


def test_install_wraps_call_sites_and_restore_undoes_it():
    module = types.ModuleType("perfbench_fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module.inner, module.outer = inner, outer
    sys.modules[module.__name__] = module
    tracer = spans.Tracer()
    try:
        tracer.install([(module.__name__, "inner", "fake.inner"),
                        (module.__name__, "outer", "fake.outer")])
        assert module.outer(1) == 4
    finally:
        tracer.restore()
        del sys.modules[module.__name__]
    assert module.inner is inner and module.outer is outer
    names = [r[NAME] for r in tracer.spans]
    assert names == ["fake.outer", "fake.inner"]
    assert tracer.spans[1][PARENT] == 0
    assert all(r[END] >= r[START] for r in tracer.spans)
    assert spans.layer_of("fake.inner") == "fake"

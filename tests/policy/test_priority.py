"""Responsiveness policy: priorities, working sets, victim ranking."""

from repro.policy.priority import Priority, hot_fraction, working_set_bytes
from repro.policy.victims import rank_responsiveness, select_victims
from tests.helpers import build_chain, make_space


def _cool(space, window=None):
    """Age every cluster well past the working-set recency window."""
    from repro.policy.priority import WORKING_SET_WINDOW_TICKS

    space._tick += (window or WORKING_SET_WINDOW_TICKS) + 1


def test_priority_values_are_plain_ints():
    assert int(Priority.IDLE) == 0
    assert int(Priority.BACKGROUND) == 1
    assert int(Priority.FOREGROUND) == 2


def test_set_priority_reaches_the_cluster():
    space = make_space()
    handle = space.ingest(build_chain(4), cluster_size=4, root_name="t")
    space.set_priority(handle, Priority.FOREGROUND)
    assert space.clusters()[1].priority == 2


def test_working_set_counts_recent_crossings_whole():
    space = make_space()
    handle = space.ingest(build_chain(4), cluster_size=4, root_name="t")
    handle.get_value()  # a crossing within the window
    cluster = space.clusters()[1]
    footprint = sum(space.heap.size_of(oid) for oid in cluster.oids)
    assert working_set_bytes(space, cluster) == footprint
    assert hot_fraction(space, cluster) == 1.0


def test_working_set_of_cold_clean_cluster_is_zero():
    from repro.core.fastpath import FastPathConfig

    space = make_space()
    # clean attribution needs the fast path's dirty tracking
    space.manager.enable_fastpath(FastPathConfig())
    space.ingest(build_chain(4), cluster_size=4, root_name="t")
    space.swap_out(1)
    space.swap_in(1)
    _cool(space)
    cluster = space.clusters()[1]
    assert working_set_bytes(space, cluster) == 0
    assert hot_fraction(space, cluster) == 0.0


def test_dirty_objects_stay_hot_after_the_window():
    from repro.core.fastpath import FastPathConfig

    space = make_space()
    space.manager.enable_fastpath(FastPathConfig())
    handle = space.ingest(build_chain(4), cluster_size=4, root_name="t")
    space.swap_out(1)
    handle.set_value(99)  # dirties through the barrier
    _cool(space)
    cluster = space.clusters()[1]
    assert working_set_bytes(space, cluster) > 0


def test_rank_evicts_idle_before_background_before_foreground():
    space = make_space()
    fg = space.ingest(build_chain(4), cluster_size=4, root_name="fg")
    bg = space.ingest(build_chain(4), cluster_size=4, root_name="bg")
    idle = space.ingest(build_chain(4), cluster_size=4, root_name="idle")
    space.set_priority(fg, Priority.FOREGROUND)
    space.set_priority(bg, Priority.BACKGROUND)
    space.set_priority(idle, Priority.IDLE)
    _cool(space)
    ranked = rank_responsiveness(space)
    assert ranked == [3, 2, 1]  # idle first, foreground last


def test_rank_prefers_cold_over_hot_within_a_band():
    from repro.core.fastpath import FastPathConfig

    space = make_space()
    space.manager.enable_fastpath(FastPathConfig())
    space.ingest(build_chain(4), cluster_size=4, root_name="cold")
    hot = space.ingest(build_chain(4), cluster_size=4, root_name="hot")
    for sid in (1, 2):
        space.swap_out(sid)
        space.swap_in(sid)
    _cool(space)
    hot.get_value()  # only the hot cluster crossed recently
    ranked = rank_responsiveness(space)
    assert ranked[0] == 1


def test_responsiveness_registered_as_victim_strategy():
    space = make_space()
    space.ingest(build_chain(4), cluster_size=4, root_name="a")
    space.ingest(build_chain(4), cluster_size=4, root_name="b")
    assert select_victims(space, "responsiveness")  # resolves and ranks

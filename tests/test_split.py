"""The compiled calls split over CPUs (``_native.split``).

Every value, answer and counter must be the same at any thread count. The
``parts`` fixture makes every call split into as many parts as asked,
however small it is and however many CPUs this machine has, so the part
boundaries fall at shapes that do not divide evenly (the fixture is in
conftest.py, for other modules' tests of split calls).
"""
import os
import threading
import time

import numpy as np
import pytest

from dtwsearch import (
    TimeSeries,
    distance_matrix,
    dtw_batch,
    lower_bound_matrix,
    min_pool,
    upper_bound_matrix,
    upper_bound_path,
)
from dtwsearch import _native
from oracles import block_path_sums, block_window_sums, blocked_distance_matrix, doubling_min_pool
from test_grid_memory import fingerprint, fresh_interpreter, in_fresh_process


def test_parts_cover_the_range_on_unit_boundaries(parts):
    for total, unit in ((1, 1), (5, 1), (50, 8), (41, 8), (13, 80), (803, 80)):
        seen, threads = [], set()

        def call(start, stop):
            seen.append((start, stop))
            threads.add(threading.get_ident())
            return stop - start

        assert sum(_native.split(call, total, unit=unit)) == total
        seen.sort()
        assert seen[0][0] == 0 and seen[-1][1] == total
        assert all(a[1] == b[0] for a, b in zip(seen, seen[1:]))
        assert all(start < stop and start % unit == 0 for start, stop in seen)
        assert len(seen) == min(parts, -(-total // unit))
        assert threading.get_ident() in threads  # the caller runs the first part


def test_a_small_call_runs_whole_in_the_calling_thread(monkeypatch):
    monkeypatch.setattr(_native, "_cpus", lambda: 4)
    seen = []
    _native.split(lambda start, stop: seen.append((start, stop, threading.get_ident())), 100)
    assert seen == [(0, 100, threading.get_ident())]


def test_a_part_that_raises_is_raised_after_every_part_is_done(parts):
    done = []

    def call(start, stop):
        if start == 0:
            raise ValueError(start)
        time.sleep(0.05)
        done.append(start)

    with pytest.raises(ValueError):
        _native.split(call, 10)
    assert len(done) == parts - 1  # no part still writes when the caller goes on
    assert sum(_native.split(lambda start, stop: stop - start, 10)) == 10


def test_split_grids_equal_the_numpy_references_bitwise(parts, rng):
    # Rows that are not a multiple of the window length, so the last part's
    # last block is short, and grids of one row per part or fewer.
    for n, m, wu, ww in ((203, 150, 40, 30), (97, 61, 17, 5), (9, 9, 8, 3), (30, 40, 1, 1), (7, 80, 7, 7)):
        uv, wv = rng.normal(size=(n, 2)), rng.normal(size=(m, 2))
        dm = distance_matrix(TimeSeries(values=uv), TimeSeries(values=wv)).entries
        assert dm.tobytes() == blocked_distance_matrix(uv, wv).tobytes()
        pool = min_pool(dm, ww)
        assert pool.tobytes() == doubling_min_pool(dm, ww).tobytes()
        low = np.zeros((n - wu + 1, pool.shape[1]))
        block_window_sums(low, pool, wu, 0)
        assert lower_bound_matrix(pool, wu).tobytes() == low.tobytes()
        for radius in (None, 2):
            path = upper_bound_path(wu, ww, radius).tolist()
            expected = block_path_sums(dm, path, (n - wu + 1, m - ww + 1))
            assert upper_bound_matrix(dm, wu, ww, radius).tobytes() == expected.tobytes()


def test_split_dtw_batch_equals_one_group_per_call(parts, rng):
    lanes = _native._kernel()[1]
    mat = rng.normal(size=(70, 60)) ** 2
    pool = min_pool(mat, 9)
    # Placement counts not a multiple of the lanes, and fewer than parts x lanes.
    for count in (1, 5, 9, 13, 2 * lanes + 3, 101):
        a0, b0 = rng.integers(0, 70 - 12 + 1, size=count), rng.integers(0, 60 - 9 + 1, size=count)
        for radius in (None, 3):
            exact, _ = dtw_batch(mat, 12, 9, a0, b0, radius=radius)
            for threshold in (None, float(np.median(exact))):
                kw = {"radius": radius, "threshold": threshold, "pool": None if threshold is None else pool}
                out, cells = dtw_batch(mat, 12, 9, a0, b0, **kw)
                groups = [dtw_batch(mat, 12, 9, a0[g : g + lanes], b0[g : g + lanes], **kw) for g in range(0, count, lanes)]
                assert out.tobytes() == np.concatenate([d for d, _ in groups]).tobytes()
                assert cells == sum(c for _, c in groups)


SEARCHES = [(3, 260, 300, 30, 45, None, None), (4, 400, 380, 50, 40, 5, None), (5, 180, 170, 20, 20, None, 40)]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_a_search_pinned_to_one_cpu_gives_the_same_answers_and_counters():
    cpu = min(os.sched_getaffinity(0))
    pinned = in_fresh_process(
        f"import os, threading\nos.sched_setaffinity(0, {{{cpu}}})\n"
        f"got = [t.fingerprint(*args) for args in {SEARCHES!r}]\n"
        "print(json.dumps([got, threading.active_count()]))"
    )
    assert pinned == [[fingerprint(*args) for args in SEARCHES], 1]  # on one CPU no pool thread starts


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_search_in_a_forked_child_matches_the_parent():
    # The parent has split calls on pool threads before it forks; the
    # child inherits no thread, so an inherited pool would never run its
    # parts. The same code passes whether or not the calls split.
    code = f"""
import os, warnings
from dtwsearch import _native
_native._cpus, _native._MIN_PART = (lambda: 3), 1
args = {SEARCHES[1]!r}
here = t.fingerprint(*args)
read, write = os.pipe()
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads running
    pid = os.fork()
if pid == 0:
    os.write(write, json.dumps(t.fingerprint(*args)).encode())
    os._exit(0)
os.close(write)
with os.fdopen(read) as f:
    child = json.loads(f.read())
os.waitpid(pid, 0)
print(json.dumps(child == here))
"""
    proc = fresh_interpreter(code, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "true"

"""The recycled memory of the search's grids (``_native.grid``).

Recycled memory must never alias live data, must not change any grid,
answer or counter, must hold up under threads, and must be kept in
bounds. Tests that depend on what the allocator holds run in a fresh
interpreter, where no other test's arrays are alive.
"""
import gc
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import dtwsearch
from dtwsearch import (
    SearchOptions,
    SimulationSpec,
    TimeSeries,
    WindowPair,
    CoarseBounds,
    brute_force_search,
    distance_matrix,
    generate_pair,
    infer_most_similar,
    top_k_search,
    upper_bound_matrix,
)
from dtwsearch import search

COUNTERS = ("pairs_total", "pairs_after_prune", "dtw_evaluations", "dp_cells", "lb_tightness", "peak_grid_bytes")


def pair(seed, n, m, dims=2):
    rng = np.random.default_rng(seed)
    return TimeSeries(values=rng.normal(size=(n, dims))), TimeSeries(values=rng.normal(size=(m, dims)))


def sha(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def fingerprint(seed, n, m, wu, ww, radius=None, k=None):
    """One search's answer and counters, the bytes of its distance matrix, min-pool and lower and upper bounds, as JSON-ready values."""
    u, w = pair(seed, n, m)
    wp, opts = WindowPair(wu, ww), SearchOptions(band_radius=radius)
    if k is None:
        r = infer_most_similar(u, w, wp, opts)
        answer = [r.shortest_dist, sorted(r.solutions)]
    else:
        r = top_k_search(u, w, wp, k, opts)
        answer = [[x.a, x.b, x.distance, x.rank] for x in r.matches]
    dm = distance_matrix(u, w) if wu >= ww else distance_matrix(w, u)
    cb = CoarseBounds(dm, max(wu, ww), min(wu, ww))
    lower = np.concatenate(cb.refine_all())
    up = upper_bound_matrix(dm, max(wu, ww), min(wu, ww), radius)
    grids = [sha(g) for g in (dm.entries, cb.min_pool, lower, up)]
    return json.loads(json.dumps({"answer": answer, "counters": [getattr(r.stats, f) for f in COUNTERS], "grids": grids}))


def fresh_interpreter(code: str, timeout: float = 300) -> subprocess.CompletedProcess:
    """Run code in a new interpreter, with this module imported as t."""
    paths = (str(Path(dtwsearch.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent))
    return subprocess.run(
        [sys.executable, "-c", "import json, test_grid_memory as t\n" + code],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
    )


def in_fresh_process(code: str):
    """Run code in a new interpreter, with this module imported as t; the JSON of its last line."""
    proc = fresh_interpreter(code)
    proc.check_returncode()
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_a_view_of_a_dropped_grid_keeps_its_bytes():
    views, saved = [], []
    for seed in range(1, 7):
        dm = distance_matrix(*pair(seed, 150, 140))
        cb = CoarseBounds(dm, 30, 20)
        grids = (dm.entries, cb.min_pool, upper_bound_matrix(dm, 30, 20), *cb.refine_all())
        for view, before in zip(views, saved):
            assert view.tobytes() == before
            assert not any(np.shares_memory(view, g) for g in grids)
        if seed in (2, 3):  # grids on memory that the previous seed's gave back
            views += [dm.entries[3:, 5:], cb.min_pool[:, 1:], grids[2][1:], grids[3][1:]]
            saved += [v.tobytes() for v in views[-4:]]
        del dm, cb, grids


def poison_kept_blocks() -> set:
    """Write nan into every block the allocator keeps, once every dropped grid is collected; returns their addresses."""
    from dtwsearch import _native

    gc.collect()
    for block in _native._FREE:
        block.fill(np.nan)
    return {block.ctypes.data for block in _native._FREE}


def search_after_poisoned_grids(seed, n, m, wu, ww):
    """One search's fingerprint, then the same after every kept grid block was written with nan.

    The third value says whether the second search's min-pool and the
    grids of its refined row blocks took poisoned memory, so that the test
    is known to exercise it.
    """
    first = fingerprint(seed, n, m, wu, ww)
    infer_most_similar(*pair(seed, n, m), WindowPair(wu, ww))  # the kept blocks are now the search's own
    poisoned = poison_kept_blocks()
    used = set()
    build = search.CoarseBounds

    def spy(*args, **kwargs):
        cb = build(*args, **kwargs)
        used.update(g.ctypes.data for g in (cb.min_pool, *cb._lower) if g is not None)
        return cb

    search.CoarseBounds = spy
    try:
        second = fingerprint(seed, n, m, wu, ww)
    finally:
        search.CoarseBounds = build
    return first, second, used <= poisoned


def test_writes_into_dropped_grids_do_not_change_the_next_search():
    first, second, reused = in_fresh_process("print(json.dumps(t.search_after_poisoned_grids(7, 300, 280, 40, 30)))")
    assert reused
    assert second == first


def banded_searches_on_poisoned_grids():
    """A banded search on grids of nan-poisoned memory, and the same search with every row block refined first.

    Returns each one's answer and counters, brute force's answer, whether
    the first search's min-pool and refined blocks' grids were poisoned, and
    its row blocks refined and min-pool rows built, each out of how many.
    """
    u, w, _ = generate_pair(SimulationSpec(700, 660, motif_len_u=60, motif_len_w=50, gamma=0.05, seed=4, dims=2))
    wp, opts = WindowPair(60, 50), SearchOptions(band_radius=4)
    infer_most_similar(u, w, wp, opts)  # the library loads and the grids' blocks are kept
    poisoned = poison_kept_blocks()
    made = []
    build = search.CoarseBounds

    def lazy(*args, **kwargs):
        made.append(build(*args, **kwargs))
        return made[-1]

    def whole(*args, **kwargs):
        cb = build(*args, **kwargs)
        cb.refine_all()
        return cb

    runs = []
    for builder in (lazy, whole):
        search.CoarseBounds = builder
        try:
            r = infer_most_similar(u, w, wp, opts)
        finally:
            search.CoarseBounds = build
        runs.append([r.shortest_dist, sorted(r.solutions), [getattr(r.stats, f) for f in COUNTERS[:5]]])
    bf = brute_force_search(u, w, wp, opts)
    cb = made[0]
    refined = int(np.count_nonzero(cb._span[:, 1] > cb._span[:, 0]))
    on_poison = {g.ctypes.data for g in (cb.min_pool, *cb._lower) if g is not None} <= poisoned
    built = [refined, len(cb._span), int(cb._built.sum()), cb._built.size]
    return runs, [bf.shortest_dist, sorted(bf.solutions)], on_poison, built


def test_a_banded_search_reads_only_the_pool_rows_it_built():
    # Pool rows that no refined row block needs are never written, so they
    # still hold nan; a kernel that read one would abandon or mis-rank a
    # placement. The answer and every counter equal the search that refines
    # the whole grid first, and the answer equals brute force's.
    (lazy, whole), bf, poisoned, (refined, blocks, built, rows) = in_fresh_process(
        "print(json.dumps(t.banded_searches_on_poisoned_grids()))"
    )
    assert poisoned
    assert refined <= blocks // 3 and built < rows // 2
    assert lazy == whole
    assert lazy[:2] == bf


MIXED = [
    (3, 260, 300, 30, 45, None, None),
    (4, 500, 420, 50, 40, 5, None),
    (5, 180, 170, 20, 20, None, 40),
    (6, 90, 80, 12, 10, None, None),
]
TARGET = (9, 320, 300, 40, 30, None, None)


def test_searches_after_mixed_shapes_match_a_fresh_process():
    for args in MIXED:
        fingerprint(*args)
    brute_force_search(*pair(8, 120, 100), WindowPair(15, 12))  # its table comes from the same memory
    here = fingerprint(*TARGET)
    assert here == in_fresh_process(f"print(json.dumps(t.fingerprint(*{TARGET!r})))")
    topk = (*TARGET[:5], 3, 25)
    assert fingerprint(*topk) == in_fresh_process(f"print(json.dumps(t.fingerprint(*{topk!r})))")


def in_threads(work, count) -> bool:
    """Run work(i) in ``count`` threads started together under a short switch interval.

    Returns whether a thread raised or was still running after its time.
    """
    start = threading.Barrier(count)
    failed = []

    def run(i):
        start.wait()
        try:
            work(i)
        except BaseException as exc:
            failed.append(exc)
            raise

    threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    return bool(failed) or any(t.is_alive() for t in threads)


def repeated_free_blocks() -> int:
    """How many free blocks, once every dropped grid is collected, share an address with an earlier one.

    A block listed twice would be handed out twice.
    """
    from dtwsearch import _native

    gc.collect()
    addresses = [b.ctypes.data for b in _native._FREE]
    return len(addresses) - len(set(addresses))


def concurrent_fingerprints(jobs, rounds):
    """Each job's fingerprint run alone, then ``rounds`` times in a thread of its own beside the others.

    Also returns whether a thread failed or got stuck, and the free blocks
    listed twice once every thread is done.
    """
    expected = [fingerprint(*job) for job in jobs]
    got = [[] for _ in jobs]
    stuck = in_threads(lambda i: got[i].extend(fingerprint(*jobs[i]) for _ in range(rounds)), len(jobs))
    return expected, got, stuck, repeated_free_blocks()


def test_concurrent_searches_match_sequential_ones():
    # ctypes lets go of the GIL while the kernel and the grid routines run, so
    # the threads, more of them than a small machine has cores, take and give
    # back grids at the same time.
    jobs = [(11, 400, 380, 50, 40, None, None), (12, 300, 330, 30, 40, 4, 50), (13, 250, 240, 25, 25, None, 10)]
    expected, got, stuck, repeated = in_fresh_process(f"print(json.dumps(t.concurrent_fingerprints({jobs!r}, 3)))")
    assert not stuck
    assert got == [[e] * 3 for e in expected]
    assert repeated == 0


def grids_under_threads(workers, rounds):
    """Threads take, fill, check and drop grids of a few shapes; returns what went wrong.

    Each grid is filled with a value of its own thread and round and read
    back after a switch to other threads: a block handed out twice would
    show another value. Also returns the free blocks listed twice and
    whether a thread failed or got stuck.
    """
    from dtwsearch import _native

    shapes = [(64, 50), (50, 64), (40, 90), (300,)]
    clashes = []

    def work(i):
        for r in range(rounds):
            held = [_native.grid(shapes[(i + r + j) % len(shapes)]) for j in range(3)]
            for g in held:
                g.fill(i * rounds + r)
            time.sleep(0)
            clashes.extend((i, r) for g in held if not np.all(g == i * rounds + r))

    stuck = in_threads(work, workers)
    return len(clashes), repeated_free_blocks(), stuck


def test_threads_never_share_a_grid():
    clashes, repeated, stuck = in_fresh_process("print(json.dumps(t.grids_under_threads(6, 400)))")
    assert (clashes, repeated, stuck) == (0, 0, False)


def kept_after_each(searches):
    """For each search in turn: the bytes of the allocator's free blocks after it, and its peak_grid_bytes."""
    from dtwsearch import _native

    out = []
    for seed, n, m, wu, ww in searches:
        r = infer_most_similar(*pair(seed, n, m), WindowPair(wu, ww))
        gc.collect()
        out.append([sum(b.nbytes for b in _native._FREE), r.stats.peak_grid_bytes])
    return out


def test_a_small_search_after_a_large_one_lets_the_large_grids_go():
    (large_kept, large), (small_kept, small) = in_fresh_process(
        "print(json.dumps(t.kept_after_each([(1, 900, 860, 60, 50), (2, 200, 190, 30, 25)])))"
    )
    assert large_kept >= large > 20 * small
    # A free block serves a grid of at least half its size (_native._FIT).
    assert small <= small_kept <= 2 * small


def miss_while_a_collection_frees_a_grid():
    """Ask for a grid that no free block fits while np.empty runs a collection that drops another grid.

    The dropped grid lives only in a reference cycle, so only the
    collection inside the allocator frees it. Returns the objects that
    collection found and the free blocks after the call.
    """
    from dtwsearch import _native

    gc.disable()
    cycle = [_native.grid((30, 20))]
    cycle.append(cycle)
    del cycle
    empty, found = np.empty, []

    def collecting(*args, **kwargs):
        found.append(gc.collect())
        return empty(*args, **kwargs)

    np.empty = collecting
    try:
        held = _native.grid((500, 400))
    finally:
        np.empty = empty
    return found, [b.ctypes.data == held.ctypes.data for b in _native._FREE]


def test_a_grid_freed_by_a_collection_inside_the_allocator_does_not_deadlock():
    # A finalizer that waited for the allocator's lock would never return here.
    proc = fresh_interpreter("print(json.dumps(t.miss_while_a_collection_frees_a_grid()))", timeout=60)
    proc.check_returncode()
    found, free = json.loads(proc.stdout)
    assert found[0] > 0
    assert free == [False]  # the cycle's block, given back after the miss emptied the list


def test_grids_alive_at_interpreter_exit_go_back_quietly():
    code = (
        "from dtwsearch import _native\n"
        "held = [_native.grid((40, 30)) for _ in range(3)]\n"
        "t.held = _native.grid((90, 7))[1:]\n"
        "_native.held = _native.grid((5,), writeable=False)\n"
    )
    proc = fresh_interpreter(code, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")


def faults_of_searches(count):
    """Minor page faults of each of ``count`` identical searches in one process, after the library loads."""
    import resource

    infer_most_similar(*pair(0, 60, 50), WindowPair(10, 8))
    # A planted motif, so that the prune works and the grids are most of what a search
    # allocates; each under the 4 MB from which numpy advises huge pages.
    u, w, _ = generate_pair(SimulationSpec(680, 640, motif_len_u=80, motif_len_w=60, gamma=0.1, seed=1, dims=2))
    out = []
    for _ in range(count):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        infer_most_similar(u, w, WindowPair(80, 60))
        out.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return out


@pytest.mark.skipif(sys.platform != "linux", reason="counts the faults of getrusage on Linux")
def test_a_repeated_search_reuses_its_grid_pages():
    first, second = in_fresh_process("print(json.dumps(t.faults_of_searches(2)))")
    assert second <= first / 4, (first, second)


def search_peak_over_lower_grid():
    """The tracemalloc peak of a k=1 search after a warm-up of the same shape, over its lower-bound grid's bytes."""
    import tracemalloc

    u, w, _ = generate_pair(SimulationSpec(680, 640, motif_len_u=80, motif_len_w=60, gamma=0.1, seed=1, dims=2))
    infer_most_similar(u, w, WindowPair(80, 60))  # the library loads and the grids' blocks are kept
    gc.collect()
    tracemalloc.start()
    infer_most_similar(u, w, WindowPair(80, 60))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / ((680 - 80 + 1) * (640 - 60 + 1) * 8)


def test_a_search_makes_no_temporary_the_size_of_a_grid():
    # The grids come from kept blocks, and the seed and the filter read the
    # row minima, not the grid: an argmin over the read-only lower-bound grid
    # copied all of it.
    ratio = in_fresh_process("print(json.dumps(t.search_peak_over_lower_grid()))")
    assert ratio < 0.5, ratio

"""Right answers pass the checks; corrupted ones are reported and counted as failed."""
import dataclasses
import types

import pytest

import checks
import inputs
import make_reference
import worker

SEARCH = inputs.Workload(
    name="tiny-search",
    kind="search",
    window_a=7,
    window_b=5,
    band_radius=2,
    pairs=(inputs.PairSpec(seed=1, length_a=48, length_b=44, gamma=0.1),),
)
TOPK = inputs.Workload(
    name="tiny-topk",
    kind="topk",
    window_a=6,
    window_b=6,
    normalize="zscore",
    k=25,
    troop=inputs.TroopSpec(seed=2, lengths=(40, 44, 46), lags=(0, 2, 5)),
)


@pytest.fixture(scope="module")
def program():
    return worker.load_program()


def runner_for(program, workload, search=None):
    """A Runner over a tiny workload; search replaces the program's module."""
    arrays = inputs.series_for(workload)
    series = [program["core"].TimeSeries(values=x) for x in arrays]
    reference = make_reference.reference_for(workload)["queries"]
    modules = dict(program, search=search or program["search"])
    return worker.Runner(modules, workload, series, checks.Checker(workload, arrays, reference))


def failed(runner):
    return [r for r in runner.records if r["raised"] or r["wrong"]]


@pytest.mark.parametrize("workload", [SEARCH, TOPK], ids=lambda w: w.name)
def test_right_answers_pass(program, workload):
    runner = runner_for(program, workload)
    queries = inputs.queries_for(workload)
    runner.rounds(queries, seed=0, seconds=0, trace=False)
    runner.issue(queries[0])  # the same answer again is kept once
    runner.check()
    assert runner.records and not failed(runner)
    assert len(runner.answers) == len(queries)


def corrupting(program, **replace):
    """A stand-in for the search module whose entry points return altered answers."""
    search = program["search"]
    fake = types.SimpleNamespace(**vars(search))
    for name, alter in replace.items():
        real = getattr(search, name)
        setattr(fake, name, lambda *a, _real=real, _alter=alter, **k: _alter(_real(*a, **k)))
    return fake


def shifted_optimum(res):
    return dataclasses.replace(res, shortest_dist=res.shortest_dist * (1 + 1e-6))


def moved_solution(res):
    a, b = min(res.solutions)
    return dataclasses.replace(res, solutions=frozenset({(a + 1, b)}))


def swapped_ranks(res):
    m = list(res.matches)
    m[3], m[4] = dataclasses.replace(m[4], rank=4), dataclasses.replace(m[3], rank=5)
    return dataclasses.replace(res, matches=tuple(m))


def wrong_distance(res):
    m = list(res.matches)
    m[-1] = dataclasses.replace(m[-1], distance=m[-1].distance * 0.999)
    return dataclasses.replace(res, matches=tuple(m))


def wrong_placement(res):
    m = list(res.matches)
    m[0] = dataclasses.replace(m[0], a=m[0].a + 1)
    return dataclasses.replace(res, matches=tuple(m))


@pytest.mark.parametrize(
    "workload, entry, alter",
    [
        (SEARCH, "infer_most_similar", shifted_optimum),
        (SEARCH, "infer_most_similar", moved_solution),
        (TOPK, "top_k_search", swapped_ranks),
        (TOPK, "top_k_search", wrong_distance),
        (TOPK, "top_k_search", wrong_placement),
    ],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_corrupted_answer_counts_as_failed(program, workload, entry, alter, capsys):
    runner = runner_for(program, workload, corrupting(program, **{entry: alter}))
    queries = inputs.queries_for(workload)
    runner.rounds(queries, seed=0, seconds=0, trace=False)
    runner.check()
    assert len(failed(runner)) == len(queries)
    assert all(r["wrong"] and not r["raised"] for r in runner.records)
    assert workload.name in capsys.readouterr().err


def test_a_query_that_raises_counts_as_failed(program):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    fake = types.SimpleNamespace(**vars(program["search"]))
    fake.infer_most_similar = boom
    runner = runner_for(program, SEARCH, fake)
    runner.rounds(inputs.queries_for(SEARCH), seed=0, seconds=0, trace=False)
    runner.check()
    assert [r["raised"] for r in runner.records] == [True]


def test_a_run_where_every_query_raises_prints_no_result(monkeypatch, capsys):
    def boom(self, ia, ib):
        raise RuntimeError("boom")

    monkeypatch.setattr(worker.Runner, "call", boom)
    code = worker.main(["--workload", "topk-lead", "--seed", "0", "--seconds", "0", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_lead_cells_must_match_the_signs():
    starts = [(1, 4), (5, 2), (3, 3), (2, 9)]
    cell = types.SimpleNamespace
    right = {
        checks.member_key(0, 1): cell(lead_count=2, follow_count=1, difference=1),
        checks.member_key(1, 0): cell(lead_count=1, follow_count=2, difference=-1),
    }
    assert checks.Checker.lead(0, 1, starts, right) == []
    wrong = dict(right)
    wrong[checks.member_key(1, 0)] = cell(lead_count=2, follow_count=1, difference=1)
    problems = checks.Checker.lead(0, 1, starts, wrong)
    assert any("antisymmetric" in p for p in problems)
    assert any("direct count" in p for p in problems)


def test_reference_made_from_other_inputs_is_refused():
    arrays = inputs.series_for(inputs.WORKLOADS["topk-lead"])
    arrays[0] = arrays[0] + 1e-9
    with pytest.raises(LookupError):
        checks.load_reference(inputs.WORKLOADS["topk-lead"], arrays)

import logging
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mfopt.engines
import mfopt.tasks
from conftest import format_tsplib, format_vrp
from mfopt.core import evaluate_skill_task, is_valid_genome
from mfopt.engines import (
    EngineConfig,
    GenerationRecord,
    RmpMatrix,
    RunTrace,
    _Draws,
    _other_member,
    rmp_update,
    run_dmfea2,
    run_mfea,
    transfer_outcome,
)
from mfopt.harness import load_environment
from mfopt.operators import CrossoverWindow, _two_points, order_crossover
from mfopt.parsers import parse_problem


@pytest.fixture
def two_tasks(square_tsp, line_tsp):
    return [square_tsp, line_tsp]


def small_config(**kw):
    defaults = dict(population_size=20, eval_budget=400)
    defaults.update(kw)
    return EngineConfig(**defaults)


FACTORS = st.floats(0.0, 1.0, exclude_min=True, allow_subnormal=True)


class TestRmpMatrix:
    def test_initial_matrix(self):
        m = RmpMatrix.initial(3, 0.95, 0.99, 0.99)
        assert m.entries.shape == (3, 3)
        diagonal = np.eye(3, dtype=bool)
        assert (m.entries[diagonal] == 1.0).all()  # MFEA-II's unit diagonal
        assert (m.entries[~diagonal] == 0.95).all()

    # The floor, the entry, both factors and the sign are drawn independently,
    # so a factor applied on the wrong transfer fails. Factors span (0, 1],
    # subnormals included: a division must not overflow on the way to the clamp.
    @given(floor_entry=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted),
           delta_inc=FACTORS, delta_dec=FACTORS, positive=st.booleans())
    @example(floor_entry=[0.1, 0.5], delta_inc=0.99, delta_dec=0.99, positive=True)
    @example(floor_entry=[0.1, 0.5], delta_inc=5e-324, delta_dec=0.99, positive=True)
    @example(floor_entry=[0.1, 0.5], delta_inc=0.99, delta_dec=0.99, positive=False)
    @example(floor_entry=[0.1, 0.999], delta_inc=0.99, delta_dec=0.99, positive=True)  # ceiling
    @example(floor_entry=[0.1, 0.1004], delta_inc=0.99, delta_dec=0.99, positive=False)  # floor
    @settings(max_examples=300, deadline=None)
    def test_update_divides_or_multiplies_within_bounds(self, floor_entry, delta_inc, delta_dec,
                                                        positive):
        floor, entry = floor_entry
        m = RmpMatrix.initial(2, entry, delta_inc, delta_dec, floor)
        rmp_update(m, 0, 1, positive)
        expected = min(1.0, entry / delta_inc) if positive else max(floor, entry * delta_dec)
        assert m.get(0, 1) == m.get(1, 0) == expected
        assert floor <= m.get(0, 1) <= 1.0


class TestTransferOutcome:
    def test_strict_improvement_required(self):
        assert transfer_outcome(9.0, 10.0)
        assert not transfer_outcome(10.0, 10.0)
        assert not transfer_outcome(11.0, 10.0)


class TestEngineConfig:
    def test_odd_population_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(population_size=7)

    @pytest.mark.parametrize("bad", [
        dict(population_size=0), dict(population_size=-2),
        dict(rmp_scalar=-0.1), dict(rmp_scalar=1.1),
        dict(p_m=-0.01), dict(p_m=1.5),
        dict(w=0.0), dict(w=1.01), dict(w=math.nan),
        dict(delta_inc=0.0), dict(delta_inc=1.01),
        dict(delta_dec=0.0), dict(delta_dec=1.5),
        dict(rmp_init=1.5), dict(rmp_floor=-0.1),
        dict(rmp_floor=0.9, rmp_init=0.5),
        dict(seed=-1),
        dict(eval_budget=1e4), dict(population_size=20.0), dict(seed=1.5),
        dict(p_m="0.2"), dict(w=None), dict(rmp_init=1 + 0j), dict(rmp_scalar=True),
        dict(seed=True), dict(seed=np.bool_(False)),
    ], ids=repr)
    def test_out_of_range_rejected(self, bad):
        # The message names the first field given ("population size" for population_size).
        with pytest.raises(ValueError, match=next(iter(bad)).replace("_", "[_ ]")):
            EngineConfig(**bad)

    def test_numpy_scalars_accepted(self):
        config = EngineConfig(p_m=np.float64(0.5), population_size=np.int64(20))
        assert (config.p_m, config.population_size) == (0.5, 20)

    def test_budget_must_cover_init(self, two_tasks):
        with pytest.raises(ValueError, match="budget"):
            run_mfea(two_tasks, EngineConfig(population_size=20, eval_budget=10))


class TestTrace:
    def test_jsonl_roundtrip(self):
        trace = RunTrace([
            GenerationRecord(0, 40, [10.0, 8.0], None),
            GenerationRecord(1, 60, [9.0, 8.0], [[0.95, 0.9], [0.9, 0.95]]),
        ])
        again = RunTrace.from_jsonl(trace.to_jsonl())
        assert again == trace
        assert again.final_best_costs() == [9.0, 8.0]


@pytest.mark.parametrize("runner", [run_mfea, run_dmfea2],
                         ids=["mfea", "dmfea2"])
class TestEngineRuns:
    def test_solves_tiny_instances(self, runner, two_tasks):
        best, _ = runner(two_tasks, small_config(eval_budget=2000),
                         np.random.default_rng(1))
        assert best[0].cost == 40.0  # square perimeter
        assert best[1].cost == 8.0   # collinear sweep
        assert is_valid_genome(best[0].genome)

    def test_deterministic_given_rng_seed(self, runner, two_tasks):
        cfg = small_config(eval_budget=800)
        b1, t1 = runner(two_tasks, cfg, np.random.default_rng(7))
        b2, t2 = runner(two_tasks, cfg, np.random.default_rng(7))
        assert [b.cost for b in b1] == [b.cost for b in b2]
        assert t1.to_jsonl() == t2.to_jsonl()

    def test_single_task(self, runner, square_tsp):
        best, _ = runner([square_tsp], small_config(eval_budget=500),
                         np.random.default_rng(2))
        assert best[0].cost == 40.0

    def test_falls_back_to_config_seed(self, runner, two_tasks):
        cfg = small_config(eval_budget=400, seed=3)
        b1, _ = runner(two_tasks, cfg)
        b2, _ = runner(two_tasks, cfg)
        assert [b.cost for b in b1] == [b.cost for b in b2]


@st.composite
def problem_texts(draw):
    """A TSP or CVRP instance of 3 to 20 genes as file text, CVRP capacities
    tight: the largest demand fills a vehicle."""
    d = draw(st.integers(min_value=3, max_value=20))
    points = st.tuples(st.integers(0, 100), st.integers(0, 100))
    if draw(st.booleans()):
        coords = draw(st.lists(points, min_size=d, max_size=d))
        return format_tsplib(mfopt.tasks.TspInstance("gen", np.array(coords, dtype=float)))
    coords = draw(st.lists(points, min_size=d + 1, max_size=d + 1))
    demands = draw(st.lists(st.integers(1, 9), min_size=d, max_size=d))
    return format_vrp(mfopt.tasks.CvrpInstance("gen", coords[0], np.array(coords[1:], dtype=float),
                                               np.array(demands), max(demands)))


# Every field at an edge of its range; rmp_floor <= rmp_init in each pair.
EDGE_CONFIGS = st.builds(
    dict,
    rmp_scalar=st.sampled_from([0.0, 1.0]),
    p_m=st.sampled_from([0.0, 1.0]),
    w=st.sampled_from([1e-9, 1.0]),
    delta_inc=st.sampled_from([1e-3, 1.0]),
    delta_dec=st.sampled_from([1e-3, 1.0]),
    floor_init=st.sampled_from([(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.1, 0.95)]),
)


class TestRunInvariants:
    @given(texts=st.lists(problem_texts(), min_size=1, max_size=4), fields=EDGE_CONFIGS,
           pop=st.sampled_from([2, 4]), extra=st.integers(min_value=0, max_value=41),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_both_engines_keep_the_run_invariants(self, texts, fields, pop, extra, seed):
        tasks = [parse_problem(text) for text in texts]
        floor, init = fields.pop("floor_init")
        budget = pop * len(tasks) + extra  # odd budgets cut a pair
        config = EngineConfig(population_size=pop, eval_budget=budget, rmp_floor=floor,
                              rmp_init=init, **fields)
        for runner in (run_mfea, run_dmfea2):
            best, trace = runner(tasks, config, np.random.default_rng(seed))
            evals = [r.evaluations for r in trace.records]
            assert evals[-1] == budget and evals == sorted(set(evals))
            costs = np.array([r.best_costs for r in trace.records])
            assert (np.diff(costs, axis=0) <= 0).all()  # a best cost never worsens
            assert len(best) == len(tasks)
            for k, result in enumerate(best):
                assert is_valid_genome(result.genome)
                assert result.cost == evaluate_skill_task(result.genome, k, tasks) == costs[-1, k]
            if runner is run_dmfea2:
                matrices = np.array([r.rmp for r in trace.records])
                for m in matrices:
                    assert m.shape == (len(tasks), len(tasks))
                    assert np.array_equal(m, m.T) and (np.diag(m) == 1.0).all()
                    assert ((floor <= m) & (m <= 1.0)).all()
                # A factor of 1 leaves its direction still: delta_inc raises an
                # entry, delta_dec lowers it.
                steps = np.diff(matrices, axis=0)
                assert config.delta_inc < 1 or (steps <= 0).all()
                assert config.delta_dec < 1 or (steps >= 0).all()

    def test_a_best_dropped_by_selection_is_still_reported(self):
        # With 2 members for 4 tasks, selection drops berlin52's best member
        # (24,884) at generation 99, and the population's best reads 29,463.
        tasks = load_environment("TE_4_1").tasks
        best, trace = run_mfea(tasks, EngineConfig(population_size=2, eval_budget=400),
                               np.random.default_rng(1))
        costs = np.array([r.best_costs for r in trace.records])
        assert costs[98, 0] == 24_884
        assert (np.diff(costs, axis=0) <= 0).all()
        assert best[0].cost == costs[-1, 0] == evaluate_skill_task(best[0].genome, 0, tasks)

    @pytest.mark.parametrize("budget", [5, 7, 9])
    @pytest.mark.parametrize("rmp_scalar, second_child_draws", [
        (0.0, lambda draws: _two_points(52, draws)),  # a 2-opt pair: the second child's move
        (1.0, lambda draws: draws.random()),  # an OX pair: the second child's skill
    ], ids=["two_opt", "ox"])
    def test_a_run_draws_nothing_for_a_child_it_does_not_make(self, rmp_scalar,
                                                               second_child_draws, budget):
        # Seeded at 0, the last generation's one pair is inter-task at each of these budgets,
        # and the odd budget cuts it after its first child. Drawing the second child's share
        # must bring the run's generator to where a run one evaluation longer leaves its own.
        tasks = load_environment("TE_4_1").tasks[:2]
        cut, whole = np.random.default_rng(0), np.random.default_rng(0)
        for gen, b in ((cut, budget), (whole, budget + 1)):
            run_mfea(tasks, small_config(population_size=2, eval_budget=b,
                                         rmp_scalar=rmp_scalar), gen)
        second_child_draws(_Draws(cut))
        assert cut.bit_generator.state == whole.bit_generator.state


def spied_generation(runner, monkeypatch):
    """Run one generation of 20 children on TE_8's four TSP and four CVRP tasks with a
    pass-through spy on each engine step; return the tasks and each step's calls."""
    tasks = load_environment("TE_8").tasks
    calls = {name: [] for name in ("evaluate_all_tasks", "_mfea_children", "build_children",
                                    "dynamic_ox", "two_opt", "evaluate_skill_task",
                                    "evaluate_skills", "elitist_select")}
    for name, seen in calls.items():
        def spy(*args, real=getattr(mfopt.engines, name), seen=seen, **kw):
            seen.append(args)
            return real(*args, **kw)
        monkeypatch.setattr(mfopt.engines, name, spy)
    # rmp 0.5 gives MFEA both OX pairs and 2-opt pairs.
    _, trace = runner(tasks, small_config(eval_budget=20 * 8 + 20, rmp_scalar=0.5),
                      np.random.default_rng(4))
    assert [r.evaluations for r in trace.records] == [160, 180]
    ((initial, _),) = calls["evaluate_all_tasks"]
    assert len(initial) == 20
    return tasks, calls


def generation_parts(calls):
    """The generation's one build_children call's records and its one-genome cost calls."""
    ((_, records),) = calls["build_children"]
    singles = [g for g, _, _ in calls["evaluate_skill_task"] if g.ndim == 1]
    return np.array(records), singles


def assert_costed_once(tasks, calls):
    # One evaluate_skills call costs every record child and one-genome calls every other
    # child: each child is in exactly one of them, so a child costed twice or never changes
    # the rows. Every child handed to selection has one finite cost, its own on its skill
    # task (by the one-genome loop), so a cost landing on another row fails.
    records, singles = generation_parts(calls)
    ((batch, skills, _),) = calls["evaluate_skills"]
    assert len(batch) == len(skills) == len(records)
    assert len(calls["evaluate_skill_task"]) == len(singles)
    ((_, children, _),) = calls["elitist_select"]
    costed = [g.tobytes() for g in (*batch, *singles)]
    assert sorted(costed) == sorted(g.tobytes() for g in children.genomes)
    assert (np.isfinite(children.costs).sum(axis=1) == 1).all()
    for genome, row in zip(children.genomes, children.costs):
        t = int(np.flatnonzero(np.isfinite(row))[0])
        assert row[t] == evaluate_skill_task(genome, t, tasks)


class TestMfeaBatches:
    def test_one_generation_costs_at_most_k_calls(self, monkeypatch):
        # One call, so at most K: its batch holds TSP and CVRP children alike.
        tasks, calls = spied_generation(run_mfea, monkeypatch)
        records, singles = generation_parts(calls)
        assert len(records) == 20 and not singles
        ((_, skills, _),) = calls["evaluate_skills"]
        assert {isinstance(tasks[t], mfopt.tasks.CvrpInstance) for t in skills} == {False, True}
        assert_costed_once(tasks, calls)

    def test_one_generation_builds_its_children_in_one_call_each(self, monkeypatch):
        # OX children and 2-opt mutants are built once per generation, one
        # record per child, never with one operator call per child.
        _, calls = spied_generation(run_mfea, monkeypatch)
        records, _ = generation_parts(calls)
        assert records.shape == (20, 7)
        assert not (calls["dynamic_ox"] or calls["two_opt"])
        ox = records[:, 6] == 1
        assert ox.any() and not ox.all()  # OX and 2-opt rows

    def test_mfea_ox_children_equal_order_crossover(self, monkeypatch):
        # Pair p's two children are kept by order[2p] and order[2p + 1]; an OX child's donor
        # is the other parent, a 2-opt child's its own, and an OX child is the first child of
        # order_crossover under its record's window.
        _, calls = spied_generation(run_mfea, monkeypatch)
        records, _ = generation_parts(calls)
        ((_, order, _),) = calls["_mfea_children"]
        ((genomes, _),) = calls["build_children"]
        ((_, children, _),) = calls["elitist_select"]
        ox = records[:, 6] == 1
        partner = np.reshape(order, (-1, 2))[:, ::-1].ravel()
        assert np.array_equal(records[:, 0], order)
        assert np.array_equal(records[:, 1], np.where(ox, partner, order))
        for (p, q, lo, hi, *_), child in zip(records[ox], children.genomes[ox]):
            expected, _ = order_crossover(genomes[p], genomes[q], CrossoverWindow(lo, hi - lo))
            assert np.array_equal(child, expected)


class TestAdaptiveSpecifics:
    def test_trace_carries_rmp_snapshots(self, two_tasks):
        _, trace = run_dmfea2(two_tasks, small_config(eval_budget=600),
                              np.random.default_rng(0))
        # the matrix actually moves from its initial value
        assert not np.allclose(trace.records[0].rmp, trace.records[-1].rmp)

    def test_baseline_reads_no_dmfea2_field(self):
        # MFEA reads none of dMFEA-II's dOX, mutation and transfer-matrix
        # fields, so they leave its seeded trace unchanged.
        tasks = load_environment("TE_4_3").tasks
        runs = [run_mfea(tasks, small_config(eval_budget=1000, **fields))
                for fields in (dict(p_m=0.0, w=0.1),
                               dict(p_m=1.0, w=1.0, rmp_init=1.0, delta_inc=0.5,
                                    delta_dec=0.5, rmp_floor=0.7))]
        (best_a, trace_a), (best_b, trace_b) = runs
        assert trace_a.to_jsonl() == trace_b.to_jsonl()
        assert all(np.array_equal(a.genome, b.genome) for a, b in zip(best_a, best_b))

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_mate_is_the_rth_other_member(self, seed):
        # The pick equals the searchsorted formula on a sorted bucket that
        # holds idx, for every r.
        gen = np.random.default_rng(seed)
        bucket = np.sort(gen.choice(200, int(gen.integers(2, 40)), replace=False))
        idx = int(gen.choice(bucket))
        for r in range(len(bucket) - 1):
            expected = bucket[r + (r >= np.searchsorted(bucket, idx))]
            assert _other_member(bucket, idx, r) == expected

    def test_no_same_skill_mate_falls_back_to_two_opt(self, caplog):
        # Two members on two tasks: a pair of different skills that takes the
        # intra-task branch finds each parent alone in its skill bucket, so
        # both children are 2-opt mutants; the diagonal stays at MFEA-II's 1.
        tasks = load_environment("TE_4_1").tasks[:2]
        config = small_config(population_size=2, eval_budget=400)
        with caplog.at_level(logging.INFO, logger="mfopt.engines"):
            best, trace = run_dmfea2(tasks, config, np.random.default_rng(0))
        assert "no same-skill mate" in caplog.text
        assert trace.records[-1].evaluations == 400
        assert all(is_valid_genome(b.genome) for b in best)
        for rec in trace.records:
            assert (np.diag(rec.rmp) == 1.0).all()

    def test_one_generation_builds_its_dox_records_in_one_call(self, monkeypatch):
        # Intra-task dOX children are records, built with one build_children
        # call per generation; only inter-task children call dynamic_ox, one at
        # a time.
        _, calls = spied_generation(run_dmfea2, monkeypatch)
        records, singles = generation_parts(calls)
        assert len(records) and singles and not calls["_mfea_children"]  # both kinds
        assert len(records) + len(singles) == 20
        assert len(singles) == len(calls["dynamic_ox"])

    def test_generation_costs_every_child_once(self, monkeypatch):
        # Children whose cost updated the matrix and children batched with
        # the generation alike get one finite cost, on their skill task.
        tasks, calls = spied_generation(run_dmfea2, monkeypatch)
        records, singles = generation_parts(calls)
        assert len(records) and singles
        assert_costed_once(tasks, calls)


BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64,
                  np.random.MT19937]


def _same_state(a, b):
    """Bit-generator states compared recursively, since Philox's holds arrays."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


# The pair loop's two scalar calls, as (method, args, kwargs), and the permutation each
# generation draws from the Generator itself; the ranges n include Lemire's edge cases and
# _two_points' one-word 2^32.
RANGES = st.sampled_from([1, 2, 76, 2**31 + 1, 2**32 - 1, 2**32]) | st.integers(1, 2**32 - 1)
DRAW_CALLS = st.one_of(
    RANGES.map(lambda n: ("integers", (n,), {})),
    st.just(("random", (), {})),
    st.just(("permutation", (7,), {})))


POP_BUDGETS = [(2, 301), (20, 1013), (200, 12_000)]
SEEDS = [3, 4]
# Every bit generator, runner, population, budget and seed. numpy's default, PCG64, keeps
# the bare id; every other bit generator's id ends in its name.
DRAWN_RUNS = [pytest.param(bits, runner, pop, budget, seed, id="-".join(
                  [str(seed), str(pop), str(budget), runner.__name__.removeprefix("run_")]
                  + ([] if bits is np.random.PCG64 else [bits.__name__])))
              for bits in BIT_GENERATORS for runner in (run_mfea, run_dmfea2)
              for pop, budget in POP_BUDGETS for seed in SEEDS]


class TestDrawReplay:
    @given(bits=st.sampled_from(BIT_GENERATORS), seed=st.integers(0, 2**64 - 1),
           calls=st.lists(DRAW_CALLS, max_size=60))
    # n = 2^31 + 1 rejects about one product in two; after a one-word draw, PCG64 serves the
    # next 32-bit word from its buffered half.
    @example(bits=np.random.PCG64, seed=0, calls=[("integers", (2**31 + 1,), {})] * 20)
    @example(bits=np.random.PCG64, seed=0,
             calls=[("integers", (2**32,), {}), ("integers", (2**31 + 1,), {})])
    @settings(max_examples=1500, deadline=None)
    def test_replay_equals_numpy_draws_and_state(self, bits, seed, calls):
        # For every numpy bit generator: values, the full final state and the next
        # permutation all equal numpy's own calls, with a permutation drawn by the
        # Generator itself between any two of them.
        real, twin = np.random.Generator(bits(seed)), np.random.Generator(bits(seed))
        draws = _Draws(real)
        for method, args, kwargs in calls:
            source = real if method == "permutation" else draws
            assert np.array_equal(getattr(source, method)(*args, **kwargs),
                                  getattr(twin, method)(*args, **kwargs))
        assert _same_state(real.bit_generator.state, twin.bit_generator.state)
        assert np.array_equal(real.permutation(50), twin.permutation(50))

    def test_rejection_edge_equals_numpy(self):
        # n = 2^31 + 1 rejects a product whose low 32 bits fall below (2^32 - n) mod n
        # = 2^31 - 1; the buffered half 2^31 - 2 gives (2^31 - 2) n mod 2^32 = 2^31 - 2, one below.
        real, twin = np.random.default_rng(0), np.random.default_rng(0)
        for gen in (real, twin):
            gen.bit_generator.state = {**gen.bit_generator.state, "has_uint32": 1,
                                       "uinteger": 2**31 - 2}
        assert _Draws(real).integers(2**31 + 1) == twin.integers(2**31 + 1)
        assert real.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("bits, runner, pop, budget, seed", DRAWN_RUNS)
    def test_replayed_run_equals_direct_run(self, bits, runner, pop, budget, seed, monkeypatch):
        # A run through _Draws equals one that draws from the Generator itself.
        tasks = load_environment("TE_8").tasks
        config = small_config(population_size=pop, eval_budget=budget)
        drawn, direct = np.random.Generator(bits(seed)), np.random.Generator(bits(seed))
        made = []  # the generators each _Draws draws from
        monkeypatch.setattr(mfopt.engines, "_Draws", lambda rng: made.append(rng) or _Draws(rng))
        best_r, trace_r = runner(tasks, config, drawn)
        # The reference: the Generator's own two calls, so any other call form fails the run.
        monkeypatch.setattr(mfopt.engines, "_Draws", lambda rng: SimpleNamespace(
            integers=lambda n: rng.integers(n), random=lambda: rng.random()))
        best_d, trace_d = runner(tasks, config, direct)
        assert len(made) == 1 and made[0] is drawn  # one per run
        assert trace_r.records[-1].evaluations == budget
        assert trace_r.to_jsonl() == trace_d.to_jsonl()
        assert all(is_valid_genome(r.genome) and np.array_equal(r.genome, d.genome)
                   for r, d in zip(best_r, best_d))
        assert _same_state(drawn.bit_generator.state, direct.bit_generator.state)

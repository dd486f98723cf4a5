import copy
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
from mfopt.core import (UNEVALUATED, Population, evaluate_all_tasks, evaluate_skill_task,
                        is_valid_genome)
from mfopt.engines import (
    EngineConfig,
    GenerationRecord,
    RmpMatrix,
    RunTrace,
    _dmfea2_children,
    _mates,
    _mfea_children,
    rmp_update,
    run_dmfea2,
    run_mfea,
    transfer_outcome,
)
from mfopt.harness import load_environment
from mfopt.operators import (CrossoverWindow, _dox_window, build_children, dynamic_ox,
                             gene_positions, order_crossover, two_opt, window_length)
from mfopt.parsers import parse_problem
from test_operators import BIT_GENERATORS, _same_state


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

    def test_a_best_dropped_by_selection_is_still_reported(self, monkeypatch):
        # With 2 members for 4 tasks, selection drops berlin52's best member in some
        # generation; a spy on selection finds it, and the trace still reports each task's
        # best so far: the best of the initial population and of every selection's union.
        tasks = load_environment("TE_4_1").tasks
        unions, survivors = [], []

        def spy(current, offspring, p_size, real=mfopt.engines.elitist_select):
            unions.append(np.vstack((current.costs, offspring.costs)).min(axis=0))
            kept = real(current, offspring, p_size)
            survivors.append(kept.costs.min(axis=0))
            return kept
        monkeypatch.setattr(mfopt.engines, "elitist_select", spy)
        best, trace = run_mfea(tasks, EngineConfig(population_size=2, eval_budget=400),
                               np.random.default_rng(1))
        costs = np.array([r.best_costs for r in trace.records])
        so_far = np.minimum.accumulate(np.vstack((costs[0], *unions)))
        assert np.array_equal(costs, so_far)
        assert (np.array(survivors)[:, 0] > so_far[1:, 0]).any()  # berlin52's best dropped
        assert best[0].cost == costs[-1, 0] == evaluate_skill_task(best[0].genome, 0, tasks)

    @pytest.mark.parametrize("budget", [5, 7, 9])
    @pytest.mark.parametrize("runner, k_tasks, fields", [
        (run_mfea, 2, dict(rmp_scalar=0.0)),  # pairs of two skills mutate
        (run_mfea, 2, dict(rmp_scalar=1.0)),  # every pair crosses
        (run_dmfea2, 1, dict(p_m=0.0)),  # one task: every pair is same-skill OX
        (run_dmfea2, 1, dict(p_m=1.0)),  # and each child is 2-opted
    ], ids=["two_opt", "ox", "dmfea2_ox", "dmfea2_ox_two_opt"])
    def test_a_run_draws_nothing_for_a_child_it_does_not_make(self, runner, k_tasks, fields,
                                                               budget):
        # An odd budget cuts the last generation's one pair after its first child. Each engine
        # draws its generation in full and builds no cut child, so the cut run's generator
        # stands where a run one evaluation longer leaves its own.
        tasks = load_environment("TE_4_1").tasks[:k_tasks]
        cut, whole = np.random.default_rng(0), np.random.default_rng(0)
        for gen, b in ((cut, budget), (whole, budget + 1)):
            runner(tasks, small_config(population_size=2, eval_budget=b, **fields), gen)
        assert cut.bit_generator.state == whole.bit_generator.state


def spied_generation(runner, monkeypatch):
    """Run one generation of 20 children on TE_8's four TSP and four CVRP tasks with a
    pass-through spy on each engine step; return the tasks and each step's calls."""
    tasks = load_environment("TE_8").tasks
    calls = {name: [] for name in ("evaluate_all_tasks", "_mfea_children", "build_children",
                                    "dynamic_ox", "two_opt", "evaluate_skill_task",
                                    "batch_costs", "elitist_select")}
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
    singles = [g for g, _, _ in calls["evaluate_skill_task"]]
    return np.array(records), singles


def assert_costed_once(tasks, calls):
    # One batch_costs call costs every record child and one-genome calls every other
    # child: each child is in exactly one of them, so a child costed twice or never changes
    # the rows. Every child handed to selection has one finite cost, its own on its skill
    # task (by the one-genome loop), so a cost landing on another row fails.
    records, singles = generation_parts(calls)
    ((batch, skills, _),) = calls["batch_costs"]
    assert len(batch) == len(skills) == len(records)
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
        ((_, skills, _),) = calls["batch_costs"]
        assert {isinstance(tasks[t], mfopt.tasks.CvrpInstance) for t in skills} == {False, True}
        assert_costed_once(tasks, calls)

    def test_one_generation_builds_its_children_in_one_call_each(self, monkeypatch):
        # OX children and 2-opt mutants are built once per generation, one
        # record per child, never with one operator call per child.
        _, calls = spied_generation(run_mfea, monkeypatch)
        records, _ = generation_parts(calls)
        assert records.shape == (20, 8)
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


def reference_mfea_generation(skill, order, rng, n, rmp_scalar):
    """MFEA's generation, pair by pair, from its documented array draws: P/2 transfer uniforms,
    P/2 OX cut pairs over range(n + 1), P 2-opt pairs over range(n) and P skill coins, each pair
    of points by Floyd's rule. Returns each child's record and skill."""
    half = len(order) // 2
    transfer = rng.random(half)
    cuts = [rng.integers(n, size=half), rng.integers(n + 1, size=half)]
    moves = [rng.integers(n - 1, size=2 * half), rng.integers(n, size=2 * half)]
    coins = rng.random(2 * half)

    def points(a, b, top):  # Floyd's second point is ``top`` when it repeats the first
        return sorted((int(a), top if b == a else int(b)))
    records, skills = [], []
    for k, (p, q) in enumerate(zip(order[::2], order[1::2])):
        if skill[p] == skill[q] or transfer[k] <= rmp_scalar:
            lo, hi = points(cuts[0][k], cuts[1][k], n)
            for c, (x, y) in enumerate(((p, q), (q, p))):  # heads: the mate's skill
                records.append((x, y, lo, hi, 0, 0, 1, 0))
                skills.append(skill[y] if coins[2 * k + c] < 0.5 else skill[x])
        else:
            for c, x in enumerate((p, q)):
                i, j = points(moves[0][2 * k + c], moves[1][2 * k + c], n - 1)
                records.append((x, x, 0, 0, i, j, 0, 0))
                skills.append(skill[x])
    return records, skills


class TestMfeaDraws:
    @staticmethod
    def generation(rmp_scalar, left=40):
        """One generation of 40 members of 9 genes on 3 tasks: the population, its order, its
        children, the generator after them and a copy of the generator before them."""
        gen = np.random.default_rng(0)
        pop = Population(np.tile(np.arange(1, 10), (40, 1)), np.zeros((40, 3)),
                         skill=gen.integers(3, size=40))
        order, before = gen.permutation(40), copy.deepcopy(gen)
        config = small_config(rmp_scalar=rmp_scalar)
        made = _mfea_children(pop, order, gen, left=left, config=config)
        return pop, order, made, gen, before

    @pytest.mark.parametrize("rmp_scalar", [0.0, 0.5, 1.0])
    def test_generation_equals_its_pair_by_pair_reference(self, rmp_scalar):
        pop, order, (records, skills, costs, genomes), gen, twin = self.generation(rmp_scalar)
        expected, expected_skills = reference_mfea_generation(pop.skill, order, twin, 9, rmp_scalar)
        assert records.dtype == np.int64 and records.tolist() == [list(r) for r in expected]
        assert skills.tolist() == expected_skills
        assert (costs == UNEVALUATED).all() and len(costs) == 40 and not len(genomes)
        assert gen.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("rmp_scalar", [0.0, 0.5, 1.0])
    def test_each_pair_gives_two_ox_rows_or_two_two_opt_rows(self, rmp_scalar):
        # A same-skill pair gives two OX rows on the shared skill, a pair that does not
        # transfer two 2-opt-only rows, each on its own parent's skill. rmp_scalar 0 lets no
        # pair of two skills transfer and rmp_scalar 1 lets every pair transfer.
        pop, order, (records, skills, _, _), _, _ = self.generation(rmp_scalar)
        kinds = set()
        for (first, second), (sa, sb), (p, q) in zip(records.reshape(-1, 2, 8),
                                                   skills.reshape(-1, 2), order.reshape(-1, 2)):
            tp, tq = pop.skill[p], pop.skill[q]
            if first[6]:  # an OX pair: one window, each parent's segment kept, no move
                lo, hi = first[2:4]
                assert first.tolist() == [p, q, lo, hi, 0, 0, 1, 0]
                assert second.tolist() == [q, p, lo, hi, 0, 0, 1, 0] and 0 <= lo < hi <= 9
                assert {sa, sb} <= {tp, tq} and (tp != tq or sa == sb == tp)
            else:  # two 2-opt mutants with empty windows
                assert tp != tq and rmp_scalar < 1
                for row, x in ((first, p), (second, q)):
                    assert row[:4].tolist() == [x, x, 0, 0] and 0 <= row[4] < row[5] < 9
                    assert row[6:].tolist() == [0, 0]
                assert (sa, sb) == (tp, tq)
            kinds.add((bool(first[6]), tp == tq))
        assert kinds == {0.0: {(True, True), (False, False)},
                         0.5: {(True, True), (True, False), (False, False)},
                         1.0: {(True, True), (True, False)}}[rmp_scalar]

    def test_the_budget_cuts_the_children_not_the_draws(self):
        _, _, whole, after, _ = self.generation(0.5)
        _, _, cut, cut_after, _ = self.generation(0.5, left=7)
        for w, c in zip(whole, cut):
            assert np.array_equal(w[:7], c)
        assert cut_after.bit_generator.state == after.bit_generator.state


def reference_dmfea2_generation(pop, order, rng, config, tasks, rmp, left):
    """dMFEA-II's generation, pair by pair, from its documented array draws: P/2 transfer
    uniforms, P/2 OX cut pairs over range(n + 1), P p_m coins, P 2-opt pairs over range(n), P mate
    ranks over each bucket's size less 1 (at least 1), P dOX window starts over n - L_t + 1, P swap
    starts over n - 1, P skill coins and 5P uniforms, which inter-task children read in turn as
    int(u * m) for each draw over range(m). Returns the first ``left`` children, each as (record,
    skill, genome, cost, swap), record None for an inter-task child and swap True for an intra-task
    dOX child whose window keeps its mate's order, and updates ``rmp``."""
    size, half, n = len(order), len(order) // 2, pop.genomes.shape[1]
    buckets = [np.flatnonzero(pop.skill == t).tolist() for t in range(len(tasks))]
    lengths = [window_length(config.w, 1.0, t.dimension, n) for t in tasks]
    transfer = rng.random(half)
    cuts = [rng.integers(n, size=half), rng.integers(n + 1, size=half)]
    mutate = rng.random(size) < config.p_m
    moves = [rng.integers(n - 1, size=size), rng.integers(n, size=size)]
    ranks = rng.integers([max(len(buckets[pop.skill[x]]) - 1, 1) for x in order])
    starts = rng.integers([n - lengths[pop.skill[x]] + 1 for x in order])
    swaps = rng.integers(n - 1, size=size)
    coins = rng.random(size)
    block = iter(rng.random(5 * size).tolist())
    walk = SimpleNamespace(integers=lambda m: int(next(block) * m))

    def points(a, b, top):  # Floyd's second point is ``top`` when it repeats the first
        return [*sorted((int(a), top if b == a else int(b)))]
    children = []
    for k, (p, q) in enumerate(zip(order[::2], order[1::2])):
        tp, tq = int(pop.skill[p]), int(pop.skill[q])
        entry = rmp.get(tp, tq)  # read once per pair
        crosses = transfer[k] <= entry
        for c, x, y, tx in ((2 * k, p, q, tp), (2 * k + 1, q, p, tq)):
            if c == left:
                return children
            move = points(moves[0][c], moves[1][c], n - 1) if mutate[c] else [0, 0]
            if tp == tq:
                lo, hi = points(cuts[0][k], cuts[1][k], n)
                children.append(((x, y, lo, hi, *move, 1, 0), tx, None, UNEVALUATED, False))
            elif crosses:  # inter-task dOX, costed at once, its outcome updating the entry
                genome = dynamic_ox(pop.genomes[x], pop.genomes[y], entry, config.w,
                                    tasks[tx].dimension, walk)
                genome = two_opt(genome, walk) if mutate[c] else genome
                skill = tp if coins[c] < 0.5 else tq
                cost = evaluate_skill_task(genome, skill, tasks)
                rmp_update(rmp, tp, tq, transfer_outcome(cost, pop.costs[p if skill == tp else q, skill]))
                children.append((None, skill, genome, cost, False))
            elif len(buckets[tx]) == 1:  # alone in its skill: a 2-opt mutant, whatever its coin
                move = points(moves[0][c], moves[1][c], n - 1)
                children.append(((x, x, 0, 0, *move, 0, 0), tx, None, UNEVALUATED, False))
            else:  # intra-task dOX with the ranks[c]-th other member of x's bucket
                bucket, r = buckets[tx], ranks[c]
                mate = bucket[r] if bucket[r] < x else bucket[r + 1]
                drawn = iter((starts[c], swaps[c]))
                _, _, swap = _dox_window(pop.genomes[x], gene_positions(pop.genomes[mate]),
                                         lengths[tx], SimpleNamespace(integers=lambda m: next(drawn)))
                record = (x, mate, starts[c], starts[c] + lengths[tx], *move, 0, swaps[c])
                children.append((record, tx, None, UNEVALUATED, swap))
    return children


def near_identical_genomes(gen, size, n, swaps):
    """``size`` genomes, each one permutation of 1..n with ``swaps`` random adjacent swaps, so that
    dOX windows often keep their mate's order."""
    genomes = np.tile(gen.permutation(n) + 1, (size, 1))
    for row in genomes:
        for i in gen.integers(n - 1, size=swaps):
            row[i:i + 2] = row[i + 1], row[i]
    return genomes


class TestDmfea2Draws:
    @staticmethod
    def generation(rmp_init, left=40, lone=False):
        """One generation of 40 near-identical members on TE_8's eight tasks (member 17 alone on
        task 7 if ``lone``), by the engine and by the reference from a twin generator. Asserts
        that they agree; returns the engine's children, the reference's and the generator."""
        tasks = load_environment("TE_8").tasks
        gen = np.random.default_rng(5)
        genomes = near_identical_genomes(gen, 40, 76, 3)
        skill = gen.integers(7 if lone else 8, size=40)
        if lone:
            skill[17] = 7
        pop = Population(genomes, evaluate_all_tasks(genomes, tasks), skill=skill)
        order, twin = gen.permutation(40), copy.deepcopy(gen)
        config = small_config(rmp_init=rmp_init, rmp_floor=min(rmp_init, 0.1), p_m=0.5, w=0.2)
        rmp, ref_rmp = (RmpMatrix.initial(8, rmp_init, config.delta_inc, config.delta_dec,
                                          config.rmp_floor) for _ in range(2))
        made = _dmfea2_children(pop, order, gen, left=left, config=config, tasks=tasks, rmp=rmp)
        expected = reference_dmfea2_generation(pop, order, twin, config, tasks, ref_rmp, left)
        records, skills, costs, genomes = made
        rows, ref_skills, ref_genomes, ref_costs, _ = zip(*expected)
        assert records.dtype == np.int64
        assert records.tolist() == [list(r) for r in rows if r is not None]
        assert skills.tolist() == list(ref_skills) and costs.tolist() == list(ref_costs)
        inter = [g for g in ref_genomes if g is not None]
        assert len(genomes) == len(inter) and all(map(np.array_equal, genomes, inter))
        assert np.array_equal(rmp.entries, ref_rmp.entries)
        assert gen.bit_generator.state == twin.bit_generator.state
        return made, expected, gen

    @pytest.mark.parametrize("rmp_init, lone", [(0.0, False), (0.95, False), (1.0, False),
                                                (0.0, True)], ids=["0", "default", "1", "lone"])
    def test_generation_equals_its_pair_by_pair_reference(self, rmp_init, lone):
        # The cases reach each kind of child: rmp 0 lets no pair of two skills transfer, 1
        # every such pair; a lone member falls back to 2-opt, and a dOX window may keep its
        # mate's order and swap two genes instead.
        _, expected, _ = self.generation(rmp_init, lone=lone)
        kinds = {"inter" if r is None else "ox" if r[6] else "two_opt" if r[3] == 0
                 else "swap" if swap else "dox" for r, *_, swap in expected}
        assert kinds == {0.0: {"ox", "dox", "swap"}, 0.95: {"ox", "dox", "swap", "inter"},
                         1.0: {"ox", "inter"}}[rmp_init] | ({"two_opt"} if lone else set())

    def test_the_budget_cuts_the_children_not_the_draws(self):
        # Cut after 17 children, inside a transferring pair that a transferring pair follows,
        # the generation still equals its reference and leaves the generator where the whole
        # generation leaves it.
        _, _, after = self.generation(0.95)
        (_, skills, _, _), expected, cut_after = self.generation(0.95, left=17)
        assert len(skills) == 17 and expected[16][0] is None
        assert cut_after.bit_generator.state == after.bit_generator.state

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), swaps=st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_kernel_no_change_swap_equals_dynamic_ox_row_by_row(self, seed, n, swaps):
        # Each intra-task dOX row that build_children builds equals dynamic_ox driven by the
        # row's window start and swap start, so the kernel's no-change swap is _dox_window's.
        # Near-identical genomes keep many windows in their mate's order, so both outcomes occur.
        gen = np.random.default_rng(seed)
        genomes = near_identical_genomes(gen, 8, n, swaps)
        rows, mates = gen.integers(8, size=30), gen.integers(8, size=30)
        lengths = gen.integers(1, n, size=30)
        starts, swap_starts = gen.integers(n - lengths + 1), gen.integers(n - 1, size=30)
        none = np.zeros(30, np.int64)  # no 2-opt move and ox clear
        records = np.column_stack((rows, mates, starts, starts + lengths, none, none, none,
                                   swap_starts))
        for (row, mate, start, _, _, _, _, s), length, child in zip(
                records.tolist(), lengths.tolist(), build_children(genomes, records)):
            drawn = iter((start, s))  # window_length(1, 1, L, n) is L, for L < n
            expected = dynamic_ox(genomes[row], genomes[mate], 1.0, 1.0, length,
                                  SimpleNamespace(integers=lambda m: next(drawn)))
            assert np.array_equal(child, expected)


class _Logged(np.random.Generator):
    """A Generator that logs each draw call made on it, with the value drawn; given a ``log``, it
    checks each call against the log and serves the logged value, drawing nothing itself. It
    draws through a plain twin on its bit generator, so numpy's own inner calls stay unlogged."""

    def __init__(self, bit_generator, log=None):
        super().__init__(bit_generator)
        self.twin, self.log = np.random.Generator(bit_generator), []
        self.replay = None if log is None else iter(log)

    def _draw(self, method, *args, **kwargs):
        if self.replay is None:
            value = getattr(self.twin, method)(*args, **kwargs)
            self.log.append((method, args, kwargs, copy.deepcopy(value)))
            return value
        logged = next(self.replay)
        assert _same_state((method, args, kwargs), logged[:3])
        return copy.deepcopy(logged[3])

    def random(self, *args, **kwargs):
        return self._draw("random", *args, **kwargs)

    def integers(self, *args, **kwargs):
        return self._draw("integers", *args, **kwargs)

    def permutation(self, *args, **kwargs):
        return self._draw("permutation", *args, **kwargs)

    def choice(self, *args, **kwargs):
        return self._draw("choice", *args, **kwargs)

    def shuffle(self, *args, **kwargs):
        return self._draw("shuffle", *args, **kwargs)


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
    @pytest.mark.parametrize("bits, runner, pop, budget, seed", DRAWN_RUNS)
    def test_replayed_run_equals_direct_run(self, bits, runner, pop, budget, seed):
        # For every bit generator, a run is a function of its Generator calls alone: served
        # the logged run's values call by call, a generator seeded otherwise replays it, so
        # no draw bypasses the Generator's methods. Logging changes nothing: the logged run
        # equals a direct one and leaves its bit generator in the same state.
        tasks = load_environment("TE_8").tasks
        config = small_config(population_size=pop, eval_budget=budget)
        direct, logged = np.random.Generator(bits(seed)), _Logged(bits(seed))
        runs = [runner(tasks, config, gen) for gen in (direct, logged)]
        replayed = _Logged(bits(seed + 1), logged.log)
        runs.append(runner(tasks, config, replayed))
        assert logged.log and next(replayed.replay, None) is None  # every logged call served
        assert _same_state(logged.bit_generator.state, direct.bit_generator.state)
        (best_d, trace_d), *others = runs
        assert trace_d.records[-1].evaluations == budget
        for best, trace in others:
            assert trace.to_jsonl() == trace_d.to_jsonl()
            assert all(is_valid_genome(r.genome) and np.array_equal(r.genome, d.genome)
                       for r, d in zip(best, best_d))


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
        # Every member of a skill bucket of two or more gets, for its rank r, the pick of the
        # searchsorted formula on its sorted bucket, which holds it.
        gen = np.random.default_rng(seed)
        size = int(gen.integers(2, 60))
        skill = gen.integers(int(gen.integers(1, 6)), size=size)
        order = gen.permutation(size)
        counts = np.bincount(skill)[skill[order]]
        ranks = gen.integers(np.maximum(counts - 1, 1))
        mates = _mates(skill, order, ranks)
        for idx, r, mate, count in zip(order, ranks, mates, counts):
            bucket = np.flatnonzero(skill == skill[idx])
            if count > 1:
                assert mate == bucket[r + (r >= np.searchsorted(bucket, idx))]

    def test_no_same_skill_mate_falls_back_to_two_opt(self, caplog):
        # Two members on two tasks: a pair of different skills that takes the
        # intra-task branch finds each parent alone in its skill bucket, so
        # both children are 2-opt mutants; the diagonal stays at MFEA-II's 1.
        tasks = load_environment("TE_4_1").tasks[:2]
        config = small_config(population_size=2, eval_budget=400)
        with caplog.at_level(logging.INFO, logger="mfopt.engines"):
            best, trace = run_dmfea2(tasks, config, np.random.default_rng(0))
        assert "no same-skill mate" in caplog.text
        assert len(caplog.records) < len(trace.records)  # one line per generation at most
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

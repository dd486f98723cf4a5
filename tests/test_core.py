import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mfopt.tasks
from mfopt.core import (
    UNEVALUATED,
    Population,
    assign_ranks_and_fitness,
    elitist_select,
    evaluate_all_tasks,
    evaluate_skill_task,
    evaluate_skills,
    is_valid_genome,
    random_genome,
)
from mfopt.harness import load_environment


@pytest.fixture(scope="module")
def bundled_tasks():
    """All eight bundled instances, four TSP and four CVRP."""
    return load_environment("TE_8").tasks


def make_pop(cost_rows):
    """Population from explicit factorial-cost rows; genome row i is filled
    with i, so survivors can be traced back to their rows."""
    costs = np.array(cost_rows, dtype=float)
    return Population(np.repeat(np.arange(len(costs)), 3).reshape(-1, 3), costs)


def reference_ranks(costs):
    """Per-member loop version of ``assign_ranks_and_fitness``, kept as the
    reference for the vectorised one. Returns (ranks, skill, fitness)."""
    p, k_tasks = costs.shape
    ranks = np.empty((p, k_tasks), dtype=np.int64)
    for k in range(k_tasks):
        # sorted() is stable: cost ties keep the lower index first.
        for r, i in enumerate(sorted(range(p), key=lambda i: costs[i, k])):
            ranks[i, k] = r + 1
    skill, fitness = [], []
    for i in range(p):
        # Only evaluated tasks count toward skill and fitness.
        rank = [ranks[i, k] if math.isfinite(costs[i, k]) else p + 1
                for k in range(k_tasks)]
        best = min(range(k_tasks), key=lambda k: rank[k])  # lowest task on ties
        skill.append(best)
        fitness.append(1.0 / rank[best])
    return ranks, np.array(skill), np.array(fitness)


def reference_survivors(costs, p_size):
    """Union rows kept by elitist selection, in union order, by the loop
    reference: best fitness first, lower union index on ties."""
    _, _, fitness = reference_ranks(costs)
    return sorted(sorted(range(len(costs)), key=lambda i: -fitness[i])[:p_size])


# Cost matrices with many ties and unevaluated entries.
costs_or_unevaluated = st.sampled_from([0.0, 1.0, 2.5, 7.0, UNEVALUATED])
cost_matrices = st.integers(1, 4).flatmap(lambda k: st.lists(
    st.lists(costs_or_unevaluated, min_size=k, max_size=k),
    min_size=1, max_size=16))


class TestGenome:
    def test_random_genome_is_permutation(self, rng):
        for d in (1, 2, 5, 76):
            g = random_genome(d, rng)
            assert is_valid_genome(g)
            assert g.dtype == np.int64

    def test_is_valid_genome_rejects(self):
        assert not is_valid_genome(np.array([1, 1, 3]))
        assert not is_valid_genome(np.array([0, 1, 2]))
        assert not is_valid_genome(np.array([2, 3, 4]))
        assert not is_valid_genome(np.array([], dtype=np.int64))

    @given(st.integers(min_value=1, max_value=50), st.integers(min_value=0))
    @settings(max_examples=50, deadline=None)
    def test_random_genome_property(self, d, seed):
        g = random_genome(d, np.random.default_rng(seed))
        assert sorted(g) == list(range(1, d + 1))


class TestRanking:
    def test_empty_population_raises(self):
        with pytest.raises(ValueError):
            assign_ranks_and_fitness(Population(np.empty((0, 3), np.int64),
                                                np.empty((0, 1))))

    @given(cost_matrices)
    # Task-0 costs 5 < 7 < 9 rank 1, 2, 3 and task-1 costs 4 < 6 < 8 rank 2, 3, 1,
    # so skills are 0, 0, 1 and fitness 1, 1/2, 1.
    @example([[5.0, 6.0], [7.0, 8.0], [9.0, 4.0]])
    @example([[1.0, 1.0]])  # a skill tie goes to the lower task
    @example([[2.0], [2.0]])  # a cost tie goes to the lower index
    @example([[UNEVALUATED], [3.0]])  # an unevaluated cost ranks last
    @settings(max_examples=200, deadline=None)
    def test_matches_loop_reference(self, rows):
        pop = assign_ranks_and_fitness(make_pop(rows))
        ranks, skill, fitness = reference_ranks(pop.costs)
        assert np.array_equal(pop.ranks, ranks)
        assert np.array_equal(pop.skill, skill)
        assert np.array_equal(pop.fitness, fitness)


class TestEvaluation:
    @pytest.fixture
    def cost_calls(self, monkeypatch):
        """Count objective evaluations: every call of ``tsp_cost``."""
        calls = []
        real = mfopt.tasks.tsp_cost

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(mfopt.tasks, "tsp_cost", counted)
        return calls

    def test_evaluate_all_tasks_spends_k(self, square_tsp, line_tsp, cost_calls):
        # One batch per task, however many genomes the matrix holds.
        costs = evaluate_all_tasks(np.tile(np.arange(1, 6), (3, 1)), [square_tsp, line_tsp])
        assert len(cost_calls) == 2
        assert costs.shape == (3, 2)
        assert all(math.isfinite(c) for c in costs.ravel())

    def test_evaluate_skill_task_spends_one(self, square_tsp, line_tsp, cost_calls):
        # A single genome gets a scalar cost, on task 1 only.
        cost = evaluate_skill_task(np.arange(1, 6), 1, [square_tsp, line_tsp])
        assert len(cost_calls) == 1
        assert cost == 8.0  # line tour 0-1-2-3-4-0

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
           repeats=st.lists(st.integers(0, 11), max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_per_genome(self, bundled_tasks, seed, n, repeats):
        """On every bundled instance, batch costs of a genome matrix equal the
        per-genome ``task.cost(project(g, d))``, for repeated rows too."""
        rng = np.random.default_rng(seed)
        d_max = max(t.dimension for t in bundled_tasks)
        genomes = np.array([random_genome(d_max, rng) for _ in range(n)])
        genomes = np.vstack([genomes, genomes[[r % n for r in repeats]]])
        per_genome = np.array([[t.cost(mfopt.tasks.project(g, t.dimension))
                                for t in bundled_tasks] for g in genomes])
        assert np.array_equal(evaluate_all_tasks(genomes, bundled_tasks), per_genome)

        # Selective evaluation: every row on its own skill task in one call, as the engines
        # cost a generation, and by skill group; the last task is nobody's skill.
        skills = rng.integers(len(bundled_tasks) - 1, size=len(genomes))
        expected = per_genome[np.arange(len(genomes)), skills]
        assert np.array_equal(evaluate_skills(genomes, skills, bundled_tasks), expected)
        for t in np.unique(skills):
            costs = evaluate_skill_task(genomes[skills == t], t, bundled_tasks)
            assert np.array_equal(costs, expected[skills == t])
        # One genome at a time, the cost is a Python float.
        alone = [evaluate_skill_task(g, s, bundled_tasks) for g, s in zip(genomes, skills)]
        assert all(type(c) is float for c in alone)
        assert alone == expected.tolist()


class TestElitistSelect:
    def test_union_too_small_raises(self):
        with pytest.raises(ValueError):
            elitist_select(make_pop([[1.0]]), make_pop([[2.0]]), 3)

    @given(cost_matrices, cost_matrices, st.integers(1, 16))
    @example([[10.0], [20.0]], [[5.0], [30.0]], 2)  # keeps 5 and 10
    @settings(max_examples=200, deadline=None)
    def test_matches_loop_reference(self, cur_rows, off_rows, p_size):
        # Pad the narrower pool with unevaluated tasks so both share K.
        k = max(len(cur_rows[0]), len(off_rows[0]))
        union = np.array([row + [UNEVALUATED] * (k - len(row))
                          for row in cur_rows + off_rows])
        p_size = min(p_size, len(union))
        cur, off = make_pop(union[:len(cur_rows)]), make_pop(union[len(cur_rows):])
        off.genomes += len(cur_rows)  # genome rows carry union indices
        out = elitist_select(cur, off, p_size)
        keep = reference_survivors(union, p_size)
        assert out.genomes[:, 0].tolist() == keep
        assert np.array_equal(out.costs, union[keep])
        ranks, skill, fitness = reference_ranks(union[keep])
        assert np.array_equal(out.ranks, ranks)
        assert np.array_equal(out.skill, skill)
        assert np.array_equal(out.fitness, fitness)

import logging
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import mfopt.engines
import mfopt.tasks
from mfopt.core import evaluate_skill_task, is_valid_genome
from mfopt.engines import (
    EngineConfig,
    GenerationRecord,
    RmpMatrix,
    RunTrace,
    _other_member,
    rmp_update,
    run_dmfea2,
    run_mfea,
    transfer_outcome,
)
from mfopt.harness import load_environment


@pytest.fixture
def two_tasks(square_tsp, line_tsp):
    return [square_tsp, line_tsp]


def small_config(**kw):
    defaults = dict(population_size=20, eval_budget=400)
    defaults.update(kw)
    return EngineConfig(**defaults)


class TestRmpMatrix:
    def test_initial_matrix(self):
        m = RmpMatrix.initial(3, 0.95, 0.99, 0.99)
        assert m.entries.shape == (3, 3)
        assert (m.entries == 0.95).all()

    def test_positive_update_divides(self):
        m = RmpMatrix.initial(2, 0.5, 0.99, 0.99)
        rmp_update(m, 0, 1, transfer_positive=True)
        assert m.get(0, 1) == pytest.approx(0.5 / 0.99)
        assert m.get(1, 0) == m.get(0, 1)  # symmetry is maintained

    def test_negative_update_multiplies(self):
        m = RmpMatrix.initial(2, 0.5, 0.99, 0.99)
        rmp_update(m, 0, 1, transfer_positive=False)
        assert m.get(0, 1) == pytest.approx(0.5 * 0.99)

    def test_ceiling_and_floor(self):
        m = RmpMatrix.initial(2, 0.999, 0.99, 0.99)
        rmp_update(m, 0, 1, True)
        assert m.get(0, 1) == 1.0
        m2 = RmpMatrix.initial(2, 0.1004, 0.99, 0.99)
        rmp_update(m2, 0, 1, False)
        assert m2.get(0, 1) == 0.1

    @given(st.floats(min_value=0.1, max_value=1.0),
           st.floats(min_value=0.5, max_value=0.9999),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_update_stays_in_bounds(self, entry, delta, positive):
        m = RmpMatrix.initial(2, entry, delta, delta)
        rmp_update(m, 0, 1, positive)
        assert 0.1 <= m.get(0, 1) <= 1.0
        assert m.get(0, 1) == m.get(1, 0)


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
    # Budgets from the initialization cost (20 x 2 tasks) upward, odd ones
    # included: children come in pairs, but the budget binds per child.
    @given(budget=st.integers(min_value=40, max_value=700),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @example(budget=601, seed=0)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_budget_respected_and_progress(self, runner, two_tasks, budget, seed):
        cfg = small_config(eval_budget=budget)
        best, trace = runner(two_tasks, cfg, np.random.default_rng(seed))
        assert len(best) == 2
        assert trace.records[-1].evaluations == budget
        evals = [r.evaluations for r in trace.records]
        assert evals == sorted(evals)
        for k in range(2):
            per_gen = [r.best_costs[k] for r in trace.records]
            assert per_gen == sorted(per_gen, reverse=True)  # never regresses

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


class TestMfeaBatches:
    def test_one_generation_costs_at_most_k_calls(self, monkeypatch):
        tasks = load_environment("TE_4_1").tasks  # four TSPs
        batches = []
        real = mfopt.tasks.tsp_cost

        def counted(perm, inst):
            batches.append(len(perm))
            return real(perm, inst)

        monkeypatch.setattr(mfopt.tasks, "tsp_cost", counted)
        _, trace = run_mfea(tasks, small_config(eval_budget=20 * 4 + 20),
                            np.random.default_rng(0))
        assert [r.evaluations for r in trace.records] == [80, 100]
        init, generation = batches[:4], batches[4:]
        assert init == [20, 20, 20, 20]
        assert 1 <= len(generation) <= 4 and all(generation)  # no empty batch
        assert sum(generation) == 20

    def test_one_generation_builds_its_children_in_one_call_each(self, monkeypatch):
        # OX children and 2-opt mutants are built once per generation, one
        # kernel row per parent pair, never with one operator call per child.
        tasks = load_environment("TE_4_1").tasks
        rows = {"order_crossover": [], "two_opt": []}
        for name, seen in rows.items():
            def counted(genomes, *args, _real=getattr(mfopt.engines, name), _seen=seen, **kw):
                _seen.append(len(genomes))
                return _real(genomes, *args, **kw)
            monkeypatch.setattr(mfopt.engines, name, counted)
        # rmp 0.5 gives both OX pairs and 2-opt pairs in the generation.
        _, trace = run_mfea(tasks, small_config(eval_budget=20 * 4 + 20, rmp_scalar=0.5),
                            np.random.default_rng(0))
        assert [r.evaluations for r in trace.records] == [80, 100]
        assert rows["order_crossover"] == [10]
        assert len(rows["two_opt"]) == 1 and rows["two_opt"][0] >= 2


class TestAdaptiveSpecifics:
    def test_trace_carries_rmp_snapshots(self, two_tasks):
        _, trace = run_dmfea2(two_tasks, small_config(eval_budget=600),
                              np.random.default_rng(0))
        for rec in trace.records:
            m = np.array(rec.rmp)
            assert m.shape == (2, 2)
            assert (m >= 0.1).all() and (m <= 1.0).all()
            assert np.array_equal(m, m.T)
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

    def test_baseline_trace_has_no_rmp(self, two_tasks):
        _, trace = run_mfea(two_tasks, small_config(eval_budget=600),
                            np.random.default_rng(0))
        assert all(rec.rmp is None for rec in trace.records)

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
        # both children are 2-opt mutants; no child updates the diagonal.
        tasks = load_environment("TE_4_1").tasks[:2]
        config = small_config(population_size=2, eval_budget=400)
        with caplog.at_level(logging.INFO, logger="mfopt.engines"):
            best, trace = run_dmfea2(tasks, config, np.random.default_rng(0))
        assert "no same-skill mate" in caplog.text
        assert trace.records[-1].evaluations == 400
        assert all(is_valid_genome(b.genome) for b in best)
        for rec in trace.records:
            assert (np.diag(rec.rmp) == config.rmp_init).all()

    def test_generation_costs_every_child_once(self, monkeypatch):
        # Children whose cost updated the matrix and children batched with
        # the generation alike get one finite cost, on their skill task.
        tasks = load_environment("TE_8").tasks
        offspring, shapes = [], []
        select, evaluate = mfopt.engines.elitist_select, mfopt.engines.evaluate_skill_task

        def select_spy(current, children, p_size):
            offspring.append(children)
            return select(current, children, p_size)

        def evaluate_spy(genomes, skill, problems):
            shapes.append(genomes.ndim)
            return evaluate(genomes, skill, problems)

        monkeypatch.setattr(mfopt.engines, "elitist_select", select_spy)
        monkeypatch.setattr(mfopt.engines, "evaluate_skill_task", evaluate_spy)
        run_dmfea2(tasks, small_config(eval_budget=20 * 8 + 20), np.random.default_rng(4))
        (children,) = offspring
        assert set(shapes) == {1, 2}  # one child at a time, and a batch
        finite = np.isfinite(children.costs)
        assert (finite.sum(axis=1) == 1).all()
        for genome, row in zip(children.genomes, children.costs):
            t = int(np.flatnonzero(np.isfinite(row))[0])
            assert row[t] == evaluate_skill_task(genome, t, tasks)

"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line (collected into
the terminal summary by conftest) and then asserts, so a red criterion
still reports every other verdict.
"""

import itertools
import time

import numpy as np

import mfopt.engines
from mfopt.core import is_valid_genome
from mfopt.engines import EngineConfig, RmpMatrix, rmp_update
from mfopt.harness import (
    ExperimentPlan,
    _run_one,
    emit_report,
    load_environment,
    repetition_seed,
    run_experiment,
)
from mfopt.operators import dynamic_ox, order_crossover, two_opt, window_length
from mfopt.parsers import euc2d_distance
from mfopt.stats import Direction, SampleSet, ranksum_test

from conftest import acceptance_log


def report(n: int, ok: bool, detail: str) -> bool:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    acceptance_log.append(line)
    print(line)
    return ok


# Published optimal tour for berlin52 (closed tour of length 7542).
BERLIN52_OPT_TOUR = [
    1, 49, 32, 45, 19, 41, 8, 9, 10, 43, 33, 51, 11, 52, 14, 13, 47, 26,
    27, 28, 12, 25, 4, 6, 15, 5, 24, 48, 38, 37, 40, 39, 36, 35, 34, 44,
    46, 16, 29, 50, 20, 23, 30, 2, 7, 42, 21, 17, 3, 18, 31, 22,
]


def test_criterion_1_property_suite(monkeypatch):
    """Closure and bounds: randomized operators plus short engine runs."""
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    violations = []

    # 10^4 randomized operator applications stay inside the permutation
    # space.
    for trial in range(10_000):
        n = int(rng.integers(3, 40))
        a, b = rng.permutation(n) + 1, rng.permutation(n) + 1
        op = trial % 3
        if op == 0:
            c1, c2 = order_crossover(a, b, rng=rng)
            ok = is_valid_genome(c1) and is_valid_genome(c2)
        elif op == 1:
            d_k = int(rng.integers(2, n + 1))
            child = dynamic_ox(a, b, float(rng.uniform(0.1, 1.0)), 0.5,
                               d_k, rng)
            ok = is_valid_genome(child) and not np.array_equal(child, a)
        else:
            ok = is_valid_genome(two_opt(a, rng=rng))
        if not ok:
            violations.append(f"operator closure, trial {trial}")

    # 100 short engine runs, instrumented at the survival step.
    real_select = mfopt.engines.elitist_select

    def checked_select(current, offspring, p_size):
        for evaluated in np.isfinite(offspring.costs).sum(axis=1):
            if evaluated != 1:
                violations.append("selective evaluation")
        out = real_select(current, offspring, p_size)
        for ranks in out.ranks.T:
            if sorted(ranks) != list(range(1, len(out.costs) + 1)):
                violations.append("rank bijectivity")
        return out

    monkeypatch.setattr(mfopt.engines, "elitist_select", checked_select)
    env = load_environment("TE_4_3")
    for run in range(100):
        runner = (mfopt.engines.run_dmfea2 if run % 2 else
                  mfopt.engines.run_mfea)
        cfg = EngineConfig(population_size=20, eval_budget=300)
        best, trace = runner(env.tasks, cfg, np.random.default_rng(run))
        for rec in trace.records:
            if rec.rmp is not None:
                m = np.array(rec.rmp)
                if (m < 0.1).any() or (m > 1.0).any() or not np.array_equal(m, m.T):
                    violations.append("rmp bounds/symmetry")
        for k in range(len(env.tasks)):
            per_gen = [r.best_costs[k] for r in trace.records]
            if per_gen != sorted(per_gen, reverse=True):
                violations.append("elitism monotonicity")

    elapsed = time.monotonic() - t0
    ok = not violations and elapsed < 60.0
    assert report(1, ok,
                  f"{len(violations)} violations, {elapsed:.1f}s "
                  f"(10^4 operator applications + 100 short runs)"), violations[:5]


def test_criterion_2_rmp_formula_oracle():
    """rmp_update against direct min/max arithmetic on a 1000-point grid."""
    entries = np.linspace(0.1, 1.0, 40)
    deltas = np.linspace(0.5, 0.9999, 25)
    worst = 0.0
    for entry in entries:
        for delta in deltas:
            m = RmpMatrix.initial(2, entry, delta, delta)
            rmp_update(m, 0, 1, True)
            worst = max(worst, abs(m.get(0, 1) - min(1.0, entry / delta)))
            m = RmpMatrix.initial(2, entry, delta, delta)
            rmp_update(m, 0, 1, False)
            worst = max(worst, abs(m.get(0, 1) - max(0.1, entry * delta)))
    ok = worst <= 1e-12
    assert report(2, ok, f"1000 (entry, delta) combinations, "
                         f"max deviation {worst:.2e} (tol 1e-12)")


def reference_ox(keeper, filler, lo, hi):
    n = len(keeper)
    child = [None] * n
    child[lo:hi] = list(keeper[lo:hi])
    seen = set(keeper[lo:hi])
    fill = [filler[(hi + t) % n] for t in range(n)]
    fill = [v for v in fill if v not in seen]
    it = iter(fill)
    for pos in list(range(lo)) + list(range(hi, n)):
        child[pos] = next(it)
    return child


def test_criterion_3_crossover_oracle():
    """Order crossover vs an exhaustive reference; parent-centric bound
    of the dynamic variant over 10^5 random trials."""
    from mfopt.operators import CrossoverWindow

    rng = np.random.default_rng(99)
    mismatches = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 7))  # genomes up to length 6
        a, b = rng.permutation(n) + 1, rng.permutation(n) + 1
        lo = int(rng.integers(0, n))
        hi = int(rng.integers(lo + 1, n + 1))
        w = CrossoverWindow(start=lo, length=hi - lo)
        c1, c2 = order_crossover(a, b, window=w)
        if list(c1) != reference_ox(a, b, lo, hi):
            mismatches += 1
        if list(c2) != reference_ox(b, a, lo, hi):
            mismatches += 1

    bound_breaks = 0
    for _ in range(100_000):
        n = int(rng.integers(4, 40))
        dom, don = rng.permutation(n) + 1, rng.permutation(n) + 1
        d_k = int(rng.integers(2, n + 1))
        entry = float(rng.uniform(0.1, 1.0))
        child = dynamic_ox(dom, don, entry, 0.5, d_k, rng)
        if int((child != dom).sum()) > window_length(0.5, entry, d_k, n) + 2:
            bound_breaks += 1

    ok = mismatches == 0 and bound_breaks == 0
    assert report(3, ok, f"10^4 OX cases: {mismatches} mismatches; "
                         f"10^5 dOX trials: {bound_breaks} bound violations")


def test_criterion_4_distance_exactness():
    """The published optimal berlin52 tour measures exactly 7542."""
    env = load_environment("TE_4_1")
    berlin = env.tasks[0]
    tour = BERLIN52_OPT_TOUR
    by_hand = sum(
        euc2d_distance(berlin.coords[tour[i] - 1],
                       berlin.coords[tour[(i + 1) % 52] - 1])
        for i in range(52))
    by_task = berlin.cost(np.array(tour))
    ok = by_hand == 7542 and by_task == 7542.0
    assert report(4, ok, f"optimal tour length {by_hand} (pairwise) / "
                         f"{by_task:g} (task cost); expected exactly 7542")


def exact_mannwhitney(x, y):
    from scipy.stats import rankdata

    n, m = len(x), len(y)
    ranks = rankdata(np.concatenate([x, y]))
    w_obs = ranks[:n].sum()
    total = at_most = at_least = 0
    for combo in itertools.combinations(range(n + m), n):
        w = ranks[list(combo)].sum()
        total += 1
        at_most += w <= w_obs + 1e-12
        at_least += w >= w_obs - 1e-12
    return at_most / total, at_least / total


def test_criterion_5_wilcoxon_oracle():
    """Rank-sum direction/significance vs exact enumeration (n + m <= 10)
    and antisymmetry on 10^3 random pairs."""
    rng = np.random.default_rng(5)
    direction_errors = 0
    significance_errors = 0
    checked = 0
    for n in range(2, 9):
        for m in range(2, 11 - n):
            for _ in range(15):
                x = rng.integers(0, 12, n).astype(float)
                y = rng.integers(0, 12, m).astype(float)
                v = ranksum_test(SampleSet(x), SampleSet(y))
                p_le, p_ge = exact_mannwhitney(x, y)
                checked += 1
                if abs(p_le - p_ge) > 1e-12 and abs(v.z_value) > 1e-12:
                    if (v.z_value < 0) != (p_le < p_ge):
                        direction_errors += 1
                z_says = v.significant and v.direction is Direction.A_BETTER
                if z_says != (p_le <= 0.05):
                    # the normal approximation is only allowed to deviate
                    # in the thin band just above the exact threshold
                    if not (z_says and 0.05 < p_le <= 0.15):
                        significance_errors += 1

    worst_asym = 0.0
    for _ in range(1000):
        n, m = int(rng.integers(2, 15)), int(rng.integers(2, 15))
        x = rng.integers(0, 10, n).astype(float)
        y = rng.integers(0, 10, m).astype(float)
        za = ranksum_test(SampleSet(x), SampleSet(y)).z_value
        zb = ranksum_test(SampleSet(y), SampleSet(x)).z_value
        worst_asym = max(worst_asym, abs(za + zb))

    ok = (direction_errors == 0 and significance_errors == 0
          and worst_asym <= 1e-12)
    assert report(5, ok, f"{checked} enumerated cases: "
                         f"{direction_errors} direction / "
                         f"{significance_errors} significance errors; "
                         f"antisymmetry {worst_asym:.2e} (tol 1e-12)")


def test_criterion_6_desk_scale_quality():
    """Adaptive engine on the four-TSP environment, 10^5 evaluations,
    5 repetitions, default parameters: berlin52 and eil51 means within
    15% of their optima (7542 and 426)."""
    t0 = time.monotonic()
    env = load_environment("TE_4_1")
    cfg = EngineConfig(eval_budget=100_000)
    finals = np.empty((5, len(env.tasks)))
    for rep in range(5):
        seed_seq = repetition_seed(0, "dMFEA-II", rep)
        best, _ = _run_one("dMFEA-II", env.tasks, cfg, seed_seq)
        finals[rep] = [b.cost for b in best]
    elapsed = time.monotonic() - t0

    berlin_mean = finals[:, 0].mean()
    eil51_mean = finals[:, 1].mean()
    berlin_ok = berlin_mean <= 7542 * 1.15
    eil51_ok = eil51_mean <= 426 * 1.15
    ok = berlin_ok and eil51_ok and elapsed < 600
    assert report(
        6, ok,
        f"berlin52 mean {berlin_mean:.1f} vs bar {7542 * 1.15:.1f} "
        f"({'ok' if berlin_ok else 'over'}); "
        f"eil51 mean {eil51_mean:.1f} vs bar {426 * 1.15:.1f} "
        f"({'ok' if eil51_ok else 'over'}); {elapsed:.0f}s")


def test_criterion_7_desk_scale_trend():
    """Both engines on all eight instances, 10^5 evaluations, 10 paired
    seeds: the adaptive engine's mean must win on at least 5 of 8."""
    env = load_environment("TE_8")
    cfg = EngineConfig(eval_budget=100_000)
    finals = {}
    for engine in ("MFEA", "dMFEA-II"):
        costs = np.empty((10, 8))
        for rep in range(10):
            best, _ = _run_one(engine, env.tasks, cfg,
                               repetition_seed(0, engine, rep))
            costs[rep] = [b.cost for b in best]
        finals[engine] = costs

    adaptive = finals["dMFEA-II"].mean(axis=0)
    baseline = finals["MFEA"].mean(axis=0)
    wins = int((adaptive <= baseline).sum())
    detail = ", ".join(
        f"{t.name}:{a:.0f}{'<=' if a <= b else '>'}{b:.0f}"
        for t, a, b in zip(env.tasks, adaptive, baseline))
    assert report(7, wins >= 5, f"adaptive wins {wins}/8 ({detail})")


def test_criterion_8_reproducibility(tmp_path):
    """Two executions of one plan with one base seed produce byte-identical
    summary tables."""
    env = load_environment("TE_4_3")
    texts = []
    for attempt in ("first", "second"):
        outdir = tmp_path / attempt
        plan = ExperimentPlan(
            environment=env, repetitions=2, output_dir=outdir,
            config=EngineConfig(population_size=20, eval_budget=2000, seed=7))
        rows = run_experiment(plan)
        paths = emit_report(rows, outdir)
        texts.append(paths["summary"].read_bytes())
    ok = texts[0] == texts[1]
    assert report(8, ok, f"summary tables byte-identical: {ok} "
                         f"({len(texts[0])} bytes)")

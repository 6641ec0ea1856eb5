"""Acceptance suite.

Each criterion is one test that prints a single PASS/FAIL line to the
terminal (bypassing capture) and asserts the same condition.
"""

import itertools
import math
import time
from collections import Counter, defaultdict

import numpy as np
import pytest
import scipy.stats

from dscfw.data import (
    block_noise_matrix,
    gauss_dataset,
    max_transform,
    minimax_distances,
    pairwise_euclidean,
)
from dscfw.diagnostics import (
    check_progress,
    check_state,
    decay_fit,
    running_min_gaps,
    theorem_bound,
)
from dscfw.errors import DscfwError
from dscfw.matrix import ShiftedMatrix
from dscfw.metrics import ari, assignment_rate, v_measure
from dscfw.multistart import (
    SamplePlan,
    SamplerKind,
    dpp_sample,
    make_diagonally_dominant,
    multistart_cluster,
)
from dscfw.peel import PeelConfig, peel, post_assign, shift_offdiag
from dscfw.solvers import (
    DEFAULT_EPSILON,
    InitKind,
    SolverConfig,
    SolverKind,
    StepKind,
    init_barycenter,
    init_vertex,
    make_state,
    run,
    select_away,
    step,
)

from conftest import bruteforce_minimax, fw_gap, rand_sim

FW_KINDS = (SolverKind.FW, SolverKind.PFW, SolverKind.AFW)


def report(capsys, k, ok, detail):
    with capsys.disabled():
        print(f"CRITERION {k}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {k}: {detail}"


def _checked_run(A, kind, max_iters=1000):
    """Step-by-step run with a dense consistency check after every
    iteration; returns the trace plus the worst observed deviations."""
    x0 = init_vertex(A) if kind is SolverKind.FW else init_barycenter(A.n)
    support0 = int(np.count_nonzero(x0))
    state = make_state(A, x0)
    trace = []
    max_r_dev = max_f_dev = 0.0
    for _ in range(max_iters):
        gap, i = fw_gap(state)
        if gap / 2.0 <= DEFAULT_EPSILON * state.r[i]:
            break
        if kind is SolverKind.PFW and select_away(state) == i:
            break
        trace.append(step(state, A, kind))
        consistency = check_state(state, A)
        max_r_dev = max(max_r_dev, consistency.max_r_deviation)
        max_f_dev = max(max_f_dev, consistency.max_f_deviation)
    return {"A": A, "kind": kind, "trace": trace, "x0": x0,
            "support0": support0,
            "max_r_dev": max_r_dev, "max_f_dev": max_f_dev}


@pytest.fixture(scope="session")
def checked_runs():
    """50 random instances (20 of n=16, 20 of n=64, 10 of n=256), each
    solved by FW, PFW, and AFW with per-iteration dense checks. Shared by
    criteria 1-4."""
    sizes = [16] * 20 + [64] * 20 + [256] * 10
    runs = []
    for idx, n in enumerate(sizes):
        A = rand_sim(n, np.random.default_rng(1000 + idx))
        for kind in FW_KINDS:
            runs.append(_checked_run(A, kind))
    return runs


@pytest.fixture(scope="session")
def block_aris():
    """Mean ARI per solver and noise level on the planted block data
    (n=200, k=5, 5 seeds, t=400, cutoff 2e-12, off-diagonal shift 4).
    Shared by criteria 6 and 12."""
    solver_cfgs = {
        "fw": SolverConfig(SolverKind.FW, InitKind.VERTEX, max_iters=400),
        "pfw-b": SolverConfig(SolverKind.PFW, InitKind.BARYCENTER,
                              max_iters=400),
        "pfw-v": SolverConfig(SolverKind.PFW, InitKind.VERTEX,
                              max_iters=400),
        "afw-b": SolverConfig(SolverKind.AFW, InitKind.BARYCENTER,
                              max_iters=400),
        "afw-v": SolverConfig(SolverKind.AFW, InitKind.VERTEX,
                              max_iters=400),
        "rd": SolverConfig(SolverKind.RD, InitKind.BARYCENTER,
                           max_iters=400),
    }
    noise_levels = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
    scores = {name: {} for name in solver_cfgs}
    for p in noise_levels:
        instances = [block_noise_matrix(200, 5, p, seed=seed)
                     for seed in range(5)]
        for name, cfg in solver_cfgs.items():
            vals = []
            for A, truth in instances:
                config = PeelConfig(max_clusters=5, solver=cfg)
                result = peel(ShiftedMatrix(A, 4.0), config)
                vals.append(ari(result.labels, truth))
            scores[name][p] = float(np.mean(vals))
    return scores


def test_criterion_1_state_consistency(checked_runs, capsys):
    worst_r = max(r["max_r_dev"] for r in checked_runs)
    worst_f = max(r["max_f_dev"] for r in checked_runs)
    ok = worst_r <= 1e-8 and worst_f <= 1e-8
    report(capsys, 1, ok,
           f"FW/PFW/AFW on 50 random instances: worst |r - Ax|_inf = "
           f"{worst_r:.2e}, worst relative |f - x'Ax| = {worst_f:.2e} "
           f"(limit 1e-8 each)")


def test_criterion_2_progress_identities(checked_runs, capsys):
    violations = 0
    decreases = 0
    steps = 0
    for r in checked_runs:
        violations += len(check_progress(r["trace"], r["A"]))
        for rec in r["trace"]:
            steps += 1
            if rec.f_after < rec.f_before - 1e-9 * max(1.0, rec.f_before):
                decreases += 1
    ok = violations == 0 and decreases == 0
    report(capsys, 2, ok,
           f"{steps} steps across 150 traces: {violations} identity "
           f"violations (1e-9 relative), {decreases} objective decreases")


def test_criterion_3_step_taxonomy(checked_runs, capsys):
    bad_fw = bad_afw_swap = bad_afw_drop = 0
    for r in checked_runs:
        kinds = [rec.kind for rec in r["trace"]]
        if r["kind"] is SolverKind.FW:
            bad_fw += sum(k is not StepKind.FW_GOOD for k in kinds)
        elif r["kind"] is SolverKind.AFW:
            bad_afw_swap += sum(k is StepKind.SWAP for k in kinds)
            drops = sum(k is StepKind.DROP for k in kinds)
            t = len(kinds)
            if t and drops > (r["support0"] - 1 + t) / 2.0:
                bad_afw_drop += 1
    ok = bad_fw == 0 and bad_afw_swap == 0 and bad_afw_drop == 0
    report(capsys, 3, ok,
           f"FW non-FwGood steps: {bad_fw}; AFW swap steps: "
           f"{bad_afw_swap}; AFW traces exceeding the drop budget "
           f"(|sigma_0|-1+t)/2: {bad_afw_drop}")


def test_criterion_4_theorem_bounds(checked_runs, capsys):
    failures = []
    for r in checked_runs:
        if r["kind"] is SolverKind.PFW or not r["trace"]:
            continue
        rep = theorem_bound(r["trace"], r["kind"], r["A"], r["x0"])
        if not rep.satisfied:
            failures.append((r["kind"].value, r["A"].n, rep.min_gap,
                             rep.bound_value))
    pfw_failures = []
    for idx in range(10):
        A = rand_sim(4, np.random.default_rng(7000 + idx))
        r = _checked_run(A, SolverKind.PFW)
        if not r["trace"]:
            continue
        rep = theorem_bound(r["trace"], SolverKind.PFW, A, r["x0"])
        if not rep.satisfied:
            pfw_failures.append((rep.min_gap, rep.bound_value))
    ok = not failures and not pfw_failures
    report(capsys, 4, ok,
           f"FW/AFW per-trace minimum-gap bounds: {len(failures)} "
           f"violations on 100 traces; PFW exact n=4 bound: "
           f"{len(pfw_failures)} violations on 10 traces"
           + (f"; first violation {failures or pfw_failures}" if not ok
              else ""))


def test_criterion_5_decay_rate(capsys):
    horizon = 2000
    curves = []
    cfg = SolverConfig(SolverKind.FW, InitKind.VERTEX, max_iters=horizon)
    for idx in range(20):
        A = rand_sim(64, np.random.default_rng(5000 + idx))
        _, trace, _ = run(A, cfg)
        curve = running_min_gaps(trace)
        if curve.size < horizon:  # pad converged runs with the final gap
            curve = np.concatenate(
                [curve, np.full(horizon - curve.size, curve[-1])])
        curves.append(curve)
    slope = decay_fit(np.mean(curves, axis=0))
    ok = slope <= -0.4
    report(capsys, 5, ok,
           f"log-log slope of the averaged FW min-gap curve over 20 random "
           f"n=64 instances (t=2000): {slope:.3f} (limit -0.4)")


def test_criterion_6_block_reproduction(block_aris, capsys):
    fw_names = ("fw", "pfw-b", "pfw-v", "afw-b", "afw-v")
    fw_min = min(block_aris[name][p]
                 for name in fw_names for p in block_aris[name])
    rd = block_aris["rd"]
    rd_high = max(rd[p] for p in (0.3, 0.4, 0.5, 0.6, 0.7))
    ok = fw_min >= 0.99 and rd[0.2] <= 0.35 and rd_high <= 0.05
    report(capsys, 6, ok,
           f"block data (n=200, k=5, 5 seeds): min FW-variant ARI "
           f"{fw_min:.3f} (limit 0.99); RD ARI {rd[0.2]:.3f} at p=0.2 "
           f"(limit 0.35), max {rd_high:.3f} at p>=0.3 (limit 0.05)")


def _median_step_time(A, kind, n_steps=50):
    rng = np.random.default_rng(99)
    n = A.n

    def fresh():
        i = int(rng.integers(n))
        coords = np.full(n, 0.5 / (n - 1))
        coords[i] = 0.5
        return make_state(A, coords)

    state = fresh()
    times = []
    while len(times) < n_steps:
        t0 = time.perf_counter()
        try:
            step(state, A, kind)
        except DscfwError:
            state = fresh()
            continue
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


@pytest.mark.slow
def test_criterion_7_per_iteration_scaling(capsys):
    A_small = rand_sim(1000, np.random.default_rng(70))
    A_large = rand_sim(4000, np.random.default_rng(71))
    ratios = {}
    for kind in (*FW_KINDS, SolverKind.RD):
        _median_step_time(A_small, kind, n_steps=5)  # warm-up
        small = _median_step_time(A_small, kind)
        large = _median_step_time(A_large, kind)
        ratios[kind.value] = large / small
    linear_ok = all(ratios[k.value] <= 8.0 for k in FW_KINDS)
    rd_ok = ratios["rd"] >= 10.0
    ok = linear_ok and rd_ok
    pretty = ", ".join(f"{k}={v:.2f}" for k, v in ratios.items())
    report(capsys, 7, ok,
           f"median per-step time ratios n=4000/n=1000: {pretty} "
           f"(FW variants limit <= 8, RD limit >= 10)")


def _partitions(n):
    parts = [[0]]
    for _ in range(n - 1):
        parts = [p + [v] for p in parts for v in range(max(p) + 2)]
    return [tuple(x + 1 for x in p) for p in parts]  # 1-based labels


def _pair_count_ari(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    iu = np.triu_indices(a.size, 1)
    sa = (a[:, None] == a[None, :])[iu]
    sb = (b[:, None] == b[None, :])[iu]
    n11 = int(np.sum(sa & sb))
    n00 = int(np.sum(~sa & ~sb))
    n10 = int(np.sum(sa & ~sb))
    n01 = int(np.sum(~sa & sb))
    denom = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
    if denom == 0:
        return 1.0
    return 2.0 * (n11 * n00 - n10 * n01) / denom


def _entropy_v_measure(p, t):
    n = len(p)
    cp, ct = Counter(p), Counter(t)
    joint = Counter(zip(p, t))

    def entropy(counter):
        return -sum((v / n) * math.log(v / n) for v in counter.values())

    h_t, h_p = entropy(ct), entropy(cp)
    h_t_given_p = -sum((c / n) * math.log(c / cp[pp])
                       for (pp, _), c in joint.items())
    h_p_given_t = -sum((c / n) * math.log(c / ct[tt])
                       for (_, tt), c in joint.items())
    hom = 1.0 if h_t == 0 else 1.0 - h_t_given_p / h_t
    com = 1.0 if h_p == 0 else 1.0 - h_p_given_t / h_p
    if hom + com == 0:
        return 0.0
    return 2.0 * hom * com / (hom + com)


def test_criterion_8_metric_oracles(capsys):
    # ARI versus brute-force pair counting: exhaustive partition pairs for
    # n <= 5, every partition against random partners for n in {6, 7, 8}.
    rng = np.random.default_rng(88)
    ari_worst = 0.0
    ari_pairs = 0
    for n in (2, 3, 4, 5):
        parts = _partitions(n)
        for a, b in itertools.product(parts, parts):
            ari_pairs += 1
            ari_worst = max(ari_worst,
                            abs(ari(a, b) - _pair_count_ari(a, b)))
    for n, partners in ((6, 20), (7, 5), (8, 2)):
        parts = _partitions(n)
        for a in parts:
            for _ in range(partners):
                b = parts[int(rng.integers(len(parts)))]
                ari_pairs += 1
                ari_worst = max(ari_worst,
                                abs(ari(a, b) - _pair_count_ari(a, b)))
    ari_ok = ari_worst <= 1e-12

    v_worst = 0.0
    for _ in range(1000):
        size = int(rng.integers(2, 60))
        p = [int(v) for v in rng.integers(1, 6, size=size)]
        t = [int(v) for v in rng.integers(1, 6, size=size)]
        v_worst = max(v_worst,
                      abs(v_measure(p, t) - _entropy_v_measure(p, t)))
    v_ok = v_worst <= 1e-12

    A, _ = block_noise_matrix(60, 3, 0.2, seed=0)
    result = post_assign(
        peel(ShiftedMatrix(A, 4.0), PeelConfig(max_clusters=2)), A)
    ar = assignment_rate(result.labels)
    ar_ok = ar == 1.0

    ok = ari_ok and v_ok and ar_ok
    report(capsys, 8, ok,
           f"ari vs pair counting on {ari_pairs} partition pairs: worst "
           f"|diff| = {ari_worst:.1e}; v_measure vs entropy oracle on 1000 "
           f"random partitions: worst |diff| = {v_worst:.1e} (limits "
           f"1e-12); post_assign AR = {ar}")


def test_criterion_9_minimax_oracle(capsys):
    rng = np.random.default_rng(90)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        upper = np.triu(rng.uniform(0.1, 10.0, size=(n, n)), 1)
        D = upper + upper.T
        if not np.array_equal(minimax_distances(D), bruteforce_minimax(D)):
            mismatches += 1
    ok = mismatches == 0
    report(capsys, 9, ok,
           f"minimax_distances vs all-simple-paths brute force on 200 "
           f"random graphs (n <= 8): {mismatches} mismatches "
           f"(exact equality required)")


def test_criterion_10_dpp_correctness(capsys):
    base = np.array([[0.0, 0.9, 0.2, 0.1],
                     [0.9, 0.0, 0.3, 0.4],
                     [0.2, 0.3, 0.0, 0.8],
                     [0.1, 0.4, 0.8, 0.0]])
    ensemble = make_diagonally_dominant(base)
    L = ensemble.likelihood
    norm = np.linalg.det(L + np.eye(4))
    subsets = [tuple(s) for r in range(5)
               for s in itertools.combinations(range(4), r)]
    expected = np.array([
        (np.linalg.det(L[np.ix_(s, s)]) if s else 1.0) / norm
        for s in subsets])
    draws = 100_000
    rng = np.random.default_rng(7)
    counts = Counter(tuple(dpp_sample(ensemble, rng))
                     for _ in range(draws))
    observed = np.array([counts.get(s, 0) for s in subsets], dtype=float)
    chi = scipy.stats.chisquare(observed, expected * draws)
    chi_ok = chi.pvalue > 0.001

    eig_rng = np.random.default_rng(91)
    min_eig = min(
        make_diagonally_dominant(rand_sim(10, eig_rng).entries)
        .eigenvalues.min()
        for _ in range(20))
    eig_ok = min_eig >= -1e-9

    ok = chi_ok and eig_ok
    report(capsys, 10, ok,
           f"DPP subset frequencies over {draws} draws vs det(L_Y)/det(L+I):"
           f" chi-square p = {chi.pvalue:.4f} (limit 0.001); smallest "
           f"diagonally-dominant eigenvalue {min_eig:.2e} (limit -1e-9)")


@pytest.mark.slow
def test_criterion_11_multistart_passes(capsys):
    solver_cfgs = {
        "fw": SolverConfig(SolverKind.FW, InitKind.VERTEX, max_iters=1000),
        "pfw-b": SolverConfig(SolverKind.PFW, InitKind.BARYCENTER,
                              max_iters=1000),
        "pfw-v": SolverConfig(SolverKind.PFW, InitKind.VERTEX,
                              max_iters=1000),
        "afw-b": SolverConfig(SolverKind.AFW, InitKind.BARYCENTER,
                              max_iters=1000),
        "afw-v": SolverConfig(SolverKind.AFW, InitKind.VERTEX,
                              max_iters=1000),
    }
    samplers = (SamplerKind.UNI, SamplerKind.DPP)
    noise_levels = (0.0, 0.2, 0.4)
    stats = defaultdict(lambda: {"ari": [], "passes": []})
    for p in noise_levels:
        for rep in range(10):
            F, truth = gauss_dataset(1000, p, seed=rep,
                                     background_as_class=False)
            A0 = max_transform(minimax_distances(pairwise_euclidean(F)))
            A = shift_offdiag(A0, 8.0 * float(A0.entries.max()))
            mask = truth > 0
            for sampler in samplers:
                for name, cfg in solver_cfgs.items():
                    plan = SamplePlan(ell=4, sampler=sampler, seed=50 + rep)
                    result, passes = multistart_cluster(A, plan, cfg,
                                                        max_clusters=4)
                    score = ari(result.labels[mask], truth[mask])
                    key = (name, sampler.value, p)
                    stats[key]["ari"].append(score)
                    stats[key]["passes"].append(passes)
    worst_ari = 1.0
    worst_passes = 0.0
    for key, vals in stats.items():
        worst_ari = min(worst_ari, float(np.mean(vals["ari"])))
        worst_passes = max(worst_passes, float(np.mean(vals["passes"])))
    ok = worst_passes <= 3.0 and worst_ari >= 0.9
    report(capsys, 11, ok,
           f"Gaussian data (n=1000, K=4, 10 repeats, 5 solvers x 2 "
           f"samplers x 3 noise levels): worst mean passes "
           f"{worst_passes:.2f} (limit 3), worst mean ARI {worst_ari:.3f} "
           f"(limit 0.9)")


def test_criterion_12_fw_beats_rd(block_aris, capsys):
    fw_names = ("fw", "pfw-b", "pfw-v", "afw-b", "afw-v")
    margins = {p: min(block_aris[name][p] for name in fw_names)
               - block_aris["rd"][p] for p in (0.3, 0.5)}
    ok = all(min(block_aris[name][p] for name in fw_names)
             > block_aris["rd"][p] for p in (0.3, 0.5))
    report(capsys, 12, ok,
           f"block data at t=400: every FW variant's ARI strictly exceeds "
           f"RD's at p=0.3 (min margin {margins[0.3]:.3f}) and p=0.5 "
           f"(min margin {margins[0.5]:.3f})")

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria (tolerances pinned inline):
  1. path construction succeeds on a 200-game x 5-start random corpus with
     oracle-checked terminal gap <= 1e-6, 100% overall, within 5 minutes;
     likewise from one boundary start per corpus game.  The check that
     >= 99% of paths have ``escalations`` 0 stays, though it is a class
     constant, always 0: the Worse search reads a finite list, and a failed
     subgame jump raises instead of searching again
  2. length bound: from the fully mixed starts, T <= n (the check still
     allows T <= n + 1 for a path with escalations, which no path has);
     from the boundary starts, T <= n + 1
  3. the unsatisfied set strictly grows across worse steps, over both sets
     of starts
  4. deviation-gap function properties on 1,000 random (game, profile)
     samples: nonnegativity, zero-iff-support-in-argmax, multilinearity
     within 1e-10, Lipschitz smoke test
  5. solver matches the closed-form 2x2 oracle on 500 random games within
     1e-7 and the named fixtures within 1e-9
  6. uniform blends are fully mixed with coordinates >= xi/|A| exactly, on
     100 random configurations
  7. dynamics: trajectories satisfy the pairwise constraint, epsilon-Nash
     profiles are bitwise fixed points, and prisoner's-dilemma play under
     pure_uniform absorbs within 1,000 steps in >= 99% of 500 trials
  8. CLI commands are byte-deterministic given identical flags

The fully mixed starts alone never reach a Worse step: at a fully mixed
profile a player is satisfied only when all its actions pay within epsilon
of each other, which no corpus start meets, so every such path is
``initial -> case1_jump``, two profiles, and criterion 2's T <= n held
only because of that.  The boundary starts (pure profiles for even k,
proper faces for odd k, as in the benchmark's seed-0 ``corpus_boundary``
workload) have satisfied players, so their paths take Worse steps and
subgame jumps.  A path of the constructor's worst case, the initial
profile, n - 1 Worse steps and one jump, has n + 1 profiles, which is the
bound ``verify_path(require_length_bound=True)`` checks; 40 of the 200
boundary paths have exactly that length.  Whether the paper's own
theorem (arXiv 2403.18079) counts T as n or n + 1 profiles was not checked:
only its abstract, which states no bound, was available offline.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import satpath.paths
from satpath import (
    ExplorerPolicy,
    MixedStrategy,
    StrategyProfile,
    build_w_xi,
    construct_path,
    deviation_gap,
    expected_reward,
    find_nash,
    pure_action_payoffs,
    random_profile,
    run_dynamics,
    satisfaction_report,
    satisficing_step,
    save_game,
    verify_path,
)

from conftest import (
    brute_max_gap,
    matching_pennies,
    prisoners_dilemma,
    pure,
    random_game,
    rock_paper_scissors,
    two_by_two_oracle,
    uncertified_search,
    uniform,
)

PATH_EPSILON = 1e-9
TERMINAL_GAP_TOL = 1e-6
CORPUS_GAMES = 200
STARTS_PER_GAME = 5
CORPUS_TIME_BUDGET_S = 300.0


@pytest.fixture
def announce(capsys):
    def _announce(criterion: int, label: str, ok: bool, detail: str = "") -> None:
        suffix = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"[acceptance] criterion {criterion} {label}: "
                  f"{'PASS' if ok else 'FAIL'}{suffix}")

    return _announce


@pytest.fixture(scope="module")
def corpus():
    """200 seeded random games (n in {2,3,4}, 2-3 actions, payoffs U[-1,1])
    with 5 simplex-uniform initial profiles each, all paths constructed."""
    results = []
    elapsed = 0.0
    for k in range(CORPUS_GAMES):
        rng = np.random.default_rng(np.random.SeedSequence([77_000, k]))
        n = (2, 3, 4)[k % 3]
        game = random_game(rng, n=n, max_actions=3)
        for _ in range(STARTS_PER_GAME):
            x1 = random_profile(game, rng)
            start = time.perf_counter()
            try:
                path = construct_path(game, x1, PATH_EPSILON)
                error = None
            except Exception as exc:  # recorded, judged in criterion 1
                path, error = None, exc
            elapsed += time.perf_counter() - start
            results.append((game, path, error))
    return results, elapsed


def boundary_start(k: int, game) -> StrategyProfile:
    """Boundary start k from SeedSequence([77_001, k]): a pure profile for
    even k; for odd k a proper-face profile, each player mixing over 1..c-1
    of its c actions."""
    rng = np.random.default_rng(np.random.SeedSequence([77_001, k]))
    if k % 2 == 0:
        return StrategyProfile.pure(game, [int(rng.integers(c)) for c in game.action_counts])
    strategies = []
    for c in game.action_counts:
        size = int(rng.integers(1, c))
        support = np.sort(rng.choice(c, size=size, replace=False))
        probs = np.zeros(c)
        probs[support] = rng.dirichlet(np.ones(size))
        strategies.append(MixedStrategy(probs))
    return StrategyProfile(tuple(strategies))


@pytest.fixture(scope="module")
def boundary_corpus(corpus):
    """One boundary start on each corpus game (the fixture's own ``Game``
    objects, so equilibria solved for the mixed starts are reused), all
    paths constructed."""
    results, _ = corpus
    out = []
    elapsed = 0.0
    for k in range(CORPUS_GAMES):
        game = results[k * STARTS_PER_GAME][0]
        x1 = boundary_start(k, game)
        start = time.perf_counter()
        try:
            path = construct_path(game, x1, PATH_EPSILON)
            error = None
        except Exception as exc:  # recorded, judged in criterion 1
            path, error = None, exc
        elapsed += time.perf_counter() - start
        out.append((game, path, error))
    return out, elapsed


def test_boundary_starts_are_the_benchmarks(corpus):
    """The starts above are the benchmark's seed-0 ``corpus_boundary`` starts."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses resolve names through it
    spec.loader.exec_module(workloads)
    results, _ = corpus
    for k in range(CORPUS_GAMES):
        game = results[k * STARTS_PER_GAME][0]
        ours, theirs = boundary_start(k, game), workloads.boundary_start(0, k, game)
        assert all(
            a.probs.tobytes() == b.probs.tobytes()
            for a, b in zip(ours.strategies, theirs.strategies)
        ), k


def _check_construction(results, elapsed, expected_total, announce, label):
    total = len(results)
    succeeded = [(g, p) for g, p, e in results if e is None]
    clean = [(g, p) for g, p in succeeded if p.escalations == 0]
    constraint_ok = sum(
        1
        for g, p in succeeded
        if verify_path(g, p, PATH_EPSILON, require_terminal_nash=True).ok
        and brute_max_gap(g, p.steps[-1].profile) <= TERMINAL_GAP_TOL
    )
    ok = (
        total == expected_total
        and len(succeeded) == total
        and constraint_ok == total
        and len(clean) / total >= 0.99
        and elapsed <= CORPUS_TIME_BUDGET_S
    )
    announce(
        1,
        label,
        ok,
        f"{len(succeeded)}/{total} succeeded, {len(clean)} without escalation, "
        f"{constraint_ok} verified at gap<=1e-6, {elapsed:.1f}s",
    )
    assert ok


def _check_oracle(results):
    for game, path, error in results:
        assert error is None
        assert path.terminal_gap <= TERMINAL_GAP_TOL
        assert brute_max_gap(game, path.steps[-1].profile) <= TERMINAL_GAP_TOL


class TestCriterion1PathConstruction:
    def test_theorem_reproduction_at_desk_scale(self, corpus, announce):
        results, elapsed = corpus
        _check_construction(
            results, elapsed, CORPUS_GAMES * STARTS_PER_GAME, announce, "theorem reproduction"
        )

    def test_all_instances_verified_by_oracle(self, corpus):
        _check_oracle(corpus[0])

    def test_boundary_starts(self, boundary_corpus, announce):
        results, elapsed = boundary_corpus
        _check_construction(
            results, elapsed, CORPUS_GAMES, announce, "theorem reproduction, boundary starts"
        )

    def test_boundary_instances_verified_by_oracle(self, boundary_corpus):
        _check_oracle(boundary_corpus[0])


class TestCriterion2LengthBound:
    def test_length_bounds(self, corpus, announce):
        results, _ = corpus
        violations = []
        for game, path, error in results:
            if error is not None:
                continue
            bound = game.num_players + (1 if path.escalations > 0 else 0)
            if len(path) > bound:
                violations.append((game.action_counts, len(path), path.escalations))
        ok = not violations
        announce(2, "length bound", ok, f"{len(violations)} violations")
        assert ok, violations[:5]

    def test_boundary_length_bound(self, boundary_corpus, announce):
        # initial profile, at most n - 1 Worse steps, one jump
        results, _ = boundary_corpus
        lengths = [
            (game.num_players, len(path)) for game, path, error in results if error is None
        ]
        violations = [(n, t) for n, t in lengths if t > n + 1]
        longest = sum(t == n + 1 for n, t in lengths)
        ok = not violations
        announce(
            2, "length bound, boundary starts", ok,
            f"{len(violations)} violations, {longest} paths of length n + 1",
        )
        assert ok, violations[:5]
        assert longest > 0  # the bound is reached, so the criterion tests something


def _growth_violations(results) -> int:
    violations = 0
    for game, path, error in results:
        if error is not None:
            continue
        sizes = [
            len(step.report.unsatisfied)
            for step in path.steps
            if step.kind in ("initial", "worse_step")
        ]
        if not all(a < b for a, b in zip(sizes, sizes[1:])):
            violations += 1
    return violations


class TestCriterion3MonotoneGrowth:
    def test_unsat_strictly_grows_over_worse_steps(self, corpus, announce):
        violations = _growth_violations(corpus[0])
        ok = violations == 0
        announce(3, "monotone unsat growth", ok, f"{violations} violations")
        assert ok

    def test_boundary_starts(self, boundary_corpus, announce):
        results, _ = boundary_corpus
        violations = _growth_violations(results)
        worse = sum(
            step.kind == "worse_step" for _, path, error in results if error is None
            for step in path.steps
        )
        ok = violations == 0
        announce(
            3, "monotone unsat growth, boundary starts", ok,
            f"{violations} violations over {worse} worse steps",
        )
        assert ok
        assert worse > 0  # the growth check has steps to check


class TestWorseCertificateOnBoundaryStarts:
    def test_certified_exactly_where_the_search_alone_exhausts(self, boundary_corpus):
        """Each Worse search the boundary paths ran (a step followed by a
        Worse step or a case-2 jump) is certified empty exactly when the
        search's whole candidate list, read without the certificate, holds
        no Worse member: every search is decided."""
        certified = searched = 0
        for game, path, error in boundary_corpus[0]:
            assert error is None
            for step, following in zip(path.steps, path.steps[1:]):
                if following.kind == "case1_jump":
                    continue
                searched += 1
                empty = satpath.paths._certified_empty(game, step.profile, step.report)
                alone = uncertified_search(game, step.profile, step.report)
                assert empty == (alone is None) == (following.kind == "case2_jump")
                certified += empty
        assert 0 < certified < searched


class TestCriterion4GapFunctionProperties:
    def test_property_suite_on_1000_samples(self, announce):
        rng = np.random.default_rng(88_001)
        nonneg = zero_iff = multilin = lipschitz = True
        for _ in range(1000):
            game = random_game(rng, n=int(rng.integers(2, 5)), max_actions=3)
            prof = random_profile(game, rng)
            max_abs = max(float(np.abs(arr).max()) for arr in game.payoffs)
            lip = game.num_players * max_abs * max(game.action_counts)
            for i in range(game.num_players):
                gap = deviation_gap(game, prof, i)
                nonneg &= gap >= 0.0
                w = pure_action_payoffs(game, prof, i)
                in_argmax = all(w[a] >= w.max() - 1e-9 for a in prof[i].support)
                zero_iff &= (gap <= 1e-12) == in_argmax
            i = int(rng.integers(game.num_players))
            other = MixedStrategy(rng.dirichlet(np.ones(game.action_counts[i])))
            t = float(rng.uniform())
            blend = MixedStrategy((1 - t) * prof[i].probs + t * other.probs)
            lhs = expected_reward(game, prof.replace(i, blend), i)
            rhs = (1 - t) * expected_reward(game, prof, i) + t * expected_reward(
                game, prof.replace(i, other), i
            )
            multilin &= abs(lhs - rhs) <= 1e-10
            perturbed = []
            dist_sq = 0.0
            for c, s in zip(game.action_counts, prof.strategies):
                delta = rng.uniform(-1e-6, 1e-6, c)
                delta -= delta.mean()
                vec = np.clip(s.probs + delta, 0.0, None)
                vec /= vec.sum()
                dist_sq += float(((vec - s.probs) ** 2).sum())
                perturbed.append(MixedStrategy(vec))
            prof2 = StrategyProfile(tuple(perturbed))
            dist = float(np.sqrt(dist_sq))
            for i in range(game.num_players):
                diff = abs(deviation_gap(game, prof, i) - deviation_gap(game, prof2, i))
                lipschitz &= diff <= lip * dist + 1e-15
        ok = nonneg and zero_iff and multilin and lipschitz
        announce(
            4,
            "gap function properties",
            ok,
            f"nonneg={nonneg} zero_iff={zero_iff} multilinear={multilin} lipschitz={lipschitz}",
        )
        assert ok


class TestCriterion5SolverOracle:
    def test_500_random_2x2_games_match_closed_form(self, announce):
        rng = np.random.default_rng(88_002)
        mismatches = 0
        for _ in range(500):
            game = random_game(rng, n=2, max_actions=2)
            sol = find_nash(game)
            kind, data = two_by_two_oracle(game)
            if kind == "pure":
                played = tuple(int(np.argmax(sol[i].probs)) for i in (0, 1))
                if played not in data or any(
                    abs(sol[i].probs[played[i]] - 1.0) > 1e-7 for i in (0, 1)
                ):
                    mismatches += 1
            else:
                p, q = data
                if abs(sol[0].probs[0] - p) > 1e-7 or abs(sol[1].probs[0] - q) > 1e-7:
                    mismatches += 1
        fixtures_ok = True
        mp, pd, rps = matching_pennies(), prisoners_dilemma(), rock_paper_scissors()
        sol = find_nash(mp)
        fixtures_ok &= all(
            float(np.abs(sol[i].probs - 0.5).max()) <= 1e-9 for i in (0, 1)
        )
        fixtures_ok &= find_nash(pd) == pure(pd, (1, 1))
        sol = find_nash(rps)
        fixtures_ok &= all(
            float(np.abs(sol[i].probs - 1 / 3).max()) <= 1e-9 for i in (0, 1)
        )
        ok = mismatches == 0 and fixtures_ok
        announce(
            5, "solver oracle equivalence", ok,
            f"{500 - mismatches}/500 matched, fixtures_ok={fixtures_ok}",
        )
        assert ok


class TestCriterion6UniformBlends:
    def test_blends_are_fully_mixed(self, announce):
        rng = np.random.default_rng(88_003)
        mixed_ok = True
        blended_players = 0
        for _ in range(100):
            game = random_game(rng, n=int(rng.integers(2, 5)), max_actions=3)
            x_k = random_profile(game, rng)
            report = satisfaction_report(game, x_k, PATH_EPSILON)
            xi = float(rng.uniform(0.01, 1.0))
            blended = build_w_xi(game, x_k, report, xi)
            for i in report.unsatisfied:
                blended_players += 1
                mixed_ok &= bool(
                    np.all(blended[i].probs >= xi / game.action_counts[i])
                )
        ok = mixed_ok and blended_players > 0
        announce(
            6, "uniform blends", ok,
            f"fully_mixed_ok={mixed_ok} over {blended_players} blended players",
        )
        assert ok


class TestCriterion7Dynamics:
    def test_absorption_and_constraint(self, announce):
        pd = prisoners_dilemma()
        rps = rock_paper_scissors()
        explorer = ExplorerPolicy(kind="pure_uniform")
        hits = 0
        constraint_ok = True
        for seed in range(500):
            traj = run_dynamics(
                pd, pure(pd, (0, 0)), epsilon=PATH_EPSILON, max_steps=1000,
                explorer=explorer, seed=seed,
            )
            if traj.hit_step is not None:
                hits += 1
            constraint_ok &= verify_path(
                pd, traj, PATH_EPSILON, require_terminal_nash=False
            ).ok
        rng = np.random.default_rng(88_004)
        fixed_point_ok = True
        for game, prof in ((pd, pure(pd, (1, 1))), (rps, uniform(rps))):
            stepped = satisficing_step(game, prof, PATH_EPSILON, explorer, rng)
            fixed_point_ok &= stepped is prof
        ok = hits >= 495 and constraint_ok and fixed_point_ok
        announce(
            7, "dynamics absorption and constraint", ok,
            f"{hits}/500 absorbed, constraint_ok={constraint_ok}, "
            f"fixed_points_bitwise={fixed_point_ok}",
        )
        assert ok


class TestCriterion8CliDeterminism:
    def test_repeated_runs_are_byte_identical(self, tmp_path, announce):
        mp_file = tmp_path / "mp.json"
        save_game(matching_pennies(), mp_file)
        pd_file = tmp_path / "pd.json"
        save_game(prisoners_dilemma(), pd_file)
        trace = tmp_path / "trace.json"
        commands = {
            "gen": ["gen", "--players", "2", "--actions", "3,2", "--seed", "42"],
            "solve": ["solve", "--game", str(mp_file)],
            "path": ["path", "--game", str(mp_file), "--seed", "9", "--init", "pure:0,0"],
            "simulate": [
                "simulate", "--game", str(pd_file), "--seed", "9",
                "--explorer", "pure_uniform", "--max-steps", "50", "--format", "csv",
            ],
            "batch": [
                "batch", "--game", str(pd_file), "--game", str(mp_file),
                "--trials", "10", "--max-steps", "50", "--seed", "3", "--format", "csv",
            ],
        }
        deterministic = True
        details = []
        for name, argv in commands.items():
            outputs = []
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, "-m", "satpath", *argv],
                    capture_output=True, check=False,
                )
                outputs.append((proc.returncode, proc.stdout))
            same = outputs[0] == outputs[1] and outputs[0][0] == 0
            deterministic &= same
            details.append(f"{name}={'ok' if same else 'DIFFERS'}")
        # verify reads a file produced by path, twice
        emit = subprocess.run(
            [sys.executable, "-m", "satpath", "path", "--game", str(mp_file),
             "--seed", "9", "--init", "pure:0,0", "--out", str(trace)],
            capture_output=True, check=False,
        )
        verify_outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "satpath", "verify", "--game", str(mp_file),
                 "--in", str(trace)],
                capture_output=True, check=False,
            )
            verify_outputs.append((proc.returncode, proc.stdout))
        verify_same = (
            emit.returncode == 0
            and verify_outputs[0] == verify_outputs[1]
            and verify_outputs[0][0] == 0
        )
        deterministic &= verify_same
        details.append(f"verify={'ok' if verify_same else 'DIFFERS'}")
        announce(8, "CLI determinism", deterministic, ", ".join(details))
        assert deterministic

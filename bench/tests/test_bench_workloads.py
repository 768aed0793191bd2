import numpy as np

import workloads
from satpath import Game, random_profile


def test_same_seed_same_inputs_other_seed_other_inputs():
    for name, build in [
        ("corpus", workloads.corpus_mixed),
        ("corpus", workloads.corpus_boundary),
        ("dynamics", lambda s: workloads.dynamics_batch(s, rounds=3)),
        ("cli", lambda s: workloads.cli_script(s, "w", iterations=4)),
    ]:
        first = workloads.inputs_digest(name, build(3))
        assert first == workloads.inputs_digest(name, build(3))
        assert first != workloads.inputs_digest(name, build(4))


def test_seed_zero_is_the_acceptance_corpus():
    items = workloads.corpus_mixed(0)
    assert len(items) == 1000
    for k in (0, 1, 2, 167, 199):
        rng = np.random.default_rng(np.random.SeedSequence([77_000, k]))
        n = (2, 3, 4)[k % 3]
        counts = tuple(int(rng.integers(2, 4)) for _ in range(n))
        payoffs = tuple(rng.uniform(-1.0, 1.0, int(np.prod(counts))) for _ in range(n))
        game = Game(action_counts=counts, payoffs=payoffs)
        for j in range(5):
            kk, got_game, start = items[5 * k + j]
            assert kk == k and got_game == game
            expected = random_profile(game, rng)
            assert start == expected


def test_other_seed_keeps_the_games_and_redraws_the_starts():
    base = workloads.corpus_mixed(0)
    other = workloads.corpus_mixed(1)
    assert all(a == b for (_, a, _), (_, b, _) in zip(base, other))
    assert all(x != y for (_, _, x), (_, _, y) in zip(base, other))


def test_held_out_games_keep_shapes_and_redraw_payoffs():
    base = workloads.corpus_mixed(0)[::5]
    held = workloads.corpus_mixed(1, held_out=True)[::5]
    assert [g.action_counts for _, g, _ in base] == [g.action_counts for _, g, _ in held]
    assert all(not np.array_equal(a.payoffs[0], b.payoffs[0]) for (_, a, _), (_, b, _) in zip(base, held))
    # Seed 0 is the acceptance corpus either way.
    assert workloads.corpus_mixed(0, held_out=True) == workloads.corpus_mixed(0)


def test_boundary_starts_lie_on_a_face():
    for seed, held_out in ((0, False), (1, False), (1, True)):
        for k, game, start in workloads.corpus_boundary(seed, held_out=held_out):
            for s, c in zip(start.strategies, game.action_counts):
                support = np.count_nonzero(s.probs)
                if k % 2 == 0:
                    assert support == 1 and s.probs.max() == 1.0
                else:
                    assert 1 <= support <= c - 1


def test_boundary_corpus_uses_the_corpus_games():
    for held_out in (False, True):
        mixed = workloads.corpus_mixed(2, held_out=held_out)[::5]
        boundary = sorted(workloads.corpus_boundary(2, held_out=held_out), key=lambda item: item[0])
        assert all(a == b for (_, a, _), (_, b, _) in zip(mixed, boundary))


def test_other_seed_runs_the_acceptance_boundary_starts_in_another_order():
    base = workloads.corpus_boundary(0)
    other = workloads.corpus_boundary(1)
    assert [k for k, _, _ in base] == list(range(workloads.CORPUS_GAMES))
    assert [k for k, _, _ in other] != [k for k, _, _ in base]
    assert sorted(other, key=lambda item: item[0]) == base

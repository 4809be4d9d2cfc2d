"""The UCB scoring kernels in :mod:`repro.core.linear_bandit`.

Every scoring surface — :meth:`C2UCB.upper_confidence_scores`, the frozen
:class:`LinearScorer` snapshot, and the fleet's stacked
:func:`batch_upper_confidence_scores` pass — runs the same
``theta' x + alpha * sqrt(x' V^{-1} x)`` operation sequence, so their scores
must agree bit for bit, for any pool size, any number of stacked blocks and
any input dtype.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.linear_bandit import (
    C2UCB,
    LinearScorer,
    batch_upper_confidence_scores,
    ucb_scores,
)


def random_problem(seed: int, n_arms: int, dimension: int):
    """A random (theta, V⁻¹, contexts) triple with a symmetric PSD inverse."""
    rng = np.random.default_rng(seed)
    theta = rng.normal(size=dimension)
    half = rng.normal(size=(dimension, dimension))
    v_inverse = half @ half.T / dimension + np.eye(dimension)
    contexts = rng.normal(size=(n_arms, dimension))
    return theta, v_inverse, contexts


# --------------------------------------------------------------------- #
# score parity: kernel == scorer == learner == stacked pass, bit for bit
# --------------------------------------------------------------------- #
class TestPackedParity:
    def test_kernel_matches_linear_scorer_bitwise(self):
        theta, v_inverse, contexts = random_problem(0, 200, 12)
        scorer = LinearScorer(theta, v_inverse)
        kernel = ucb_scores(theta, v_inverse, contexts, alpha=1.5)
        assert np.array_equal(kernel, scorer.upper_confidence_scores(contexts, 1.5))

    def test_kernel_matches_live_learner_bitwise(self):
        theta, v_inverse, contexts = random_problem(1, 50, 8)
        learner = C2UCB(dimension=8)
        learner.update(contexts[:10], np.linspace(-1, 1, 10))
        expected = learner.upper_confidence_scores(contexts, 2.0)
        kernel = ucb_scores(learner.theta(), learner._inverse(), contexts, 2.0)
        assert np.array_equal(kernel, expected)
        snapshot = learner.scorer().upper_confidence_scores(contexts, 2.0)
        assert np.array_equal(snapshot, expected)

    @pytest.mark.parametrize("n_arms", [1, 7, 64, 500])
    @pytest.mark.parametrize("n_blocks", [1, 3, 8])
    def test_packed_blocks_match_monolithic_and_per_shard(self, n_arms, n_blocks):
        # n_blocks same-shaped pools, one per learner, stacked into one
        # (n_blocks, n_arms, d) tensor by the batched pass.
        problems = [
            random_problem(n_arms * 31 + n_blocks * 7 + block, n_arms, 10)
            for block in range(n_blocks)
        ]
        scorers = [LinearScorer(theta, v_inverse) for theta, v_inverse, _ in problems]
        blocks = [contexts for _, _, contexts in problems]
        alphas = [0.7 + 0.1 * block for block in range(n_blocks)]
        batched = batch_upper_confidence_scores(scorers, blocks, alphas)

        # Per-block parity: every slice of the stacked pass scores exactly as
        # its learner's own 2-D pass.
        for scorer, block, alpha, scores in zip(scorers, blocks, alphas, batched):
            assert np.array_equal(scores, scorer.upper_confidence_scores(block, alpha))
        # Monolithic parity: a single stacked block IS the monolithic kernel.
        if n_blocks == 1:
            theta, v_inverse, contexts = problems[0]
            assert np.array_equal(
                batched[0], ucb_scores(theta, v_inverse, contexts, alphas[0])
            )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    def test_parity_across_input_dtypes(self, dtype):
        theta, v_inverse, contexts = random_problem(5, 40, 6)
        cast = (contexts * 8).astype(dtype)
        scorer = LinearScorer(theta, v_inverse)
        # The scorer converts inputs with asarray(dtype=float) before the
        # kernel runs — the same numeric path as float64 input.
        kernel = ucb_scores(theta, v_inverse, cast.astype(float), alpha=1.0)
        assert np.array_equal(scorer.upper_confidence_scores(cast, 1.0), kernel)

    def test_empty_pool_scores_empty(self):
        scores = ucb_scores(np.zeros(3), np.eye(3), np.zeros((0, 3)), alpha=1.0)
        assert scores.shape == (0,)
        learner = C2UCB(dimension=3)
        assert learner.upper_confidence_scores(np.zeros((0, 3)), 1.0).shape == (0,)

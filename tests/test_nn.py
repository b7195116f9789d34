"""Network substrate: forward math, objectives, exact gradients, Adam."""

import math

import numpy as np
import pytest

from mialab.nn import (
    IN_MINIMIZE,
    OUT_MAXIMIZE,
    OBJECTIVE_KINDS,
    AdamState,
    ArchDescriptor,
    ObjectiveKind,
    Params,
    adam_step,
    cw_margin,
    forward_logits,
    init_adam,
    init_params,
    input_gradient,
    objective_value,
    param_gradient,
    scale_confidence,
    softmax_conf,
)
from mialab.errors import ShapeError

from oracles import fd_input_gradient, fd_param_gradient_coords, adam_recurrence


def random_net(rng, input_dim=5, hidden=(7,), classes=4, activation="relu"):
    arch = ArchDescriptor(input_dim, hidden, classes, activation)
    return arch, init_params(arch, rng)


class TestForward:
    def test_zero_params_zero_logits(self):
        arch = ArchDescriptor(3, (4,), 2)
        params = Params(
            [np.zeros((4, 3)), np.zeros((2, 4))], [np.zeros(4), np.zeros(2)]
        )
        x = np.array([0.3, -1.0, 2.0])
        assert np.array_equal(forward_logits(arch, params, x), np.zeros(2))

    def test_identity_single_layer(self):
        arch = ArchDescriptor(3, (), 3)
        params = Params([np.eye(3)], [np.zeros(3)])
        e1 = np.array([1.0, 0.0, 0.0])
        assert np.array_equal(forward_logits(arch, params, e1), e1)

    def test_hand_computed_2_3_2(self):
        # independent forward pass written out as explicit arithmetic
        W1 = np.array([[0.5, -1.0], [2.0, 0.25], [-0.75, 1.5]])
        b1 = np.array([0.1, -0.2, 0.3])
        W2 = np.array([[1.0, -0.5, 0.25], [0.5, 1.5, -1.0]])
        b2 = np.array([-0.1, 0.2])
        arch = ArchDescriptor(2, (3,), 2, "relu")
        params = Params([W1, W2], [b1, b2])
        x = np.array([1.0, 0.0])
        h = np.maximum(W1 @ x + b1, 0.0)
        expected = W2 @ h + b2
        np.testing.assert_allclose(forward_logits(arch, params, x), expected, rtol=0, atol=0)

    def test_shape_error_on_bad_input(self):
        arch, params = random_net(np.random.default_rng(0))
        with pytest.raises(ShapeError):
            forward_logits(arch, params, np.zeros(6))

    def test_shape_error_on_mismatched_params(self):
        arch, params = random_net(np.random.default_rng(0))
        other = ArchDescriptor(5, (9,), 4)
        with pytest.raises(ShapeError):
            forward_logits(other, params, np.zeros(5))

    def test_param_count_round_trip(self):
        arch, params = random_net(np.random.default_rng(1), hidden=(6, 3))
        vec = params.to_vector()
        assert vec.size == arch.param_count()
        assert Params.from_vector(arch, vec) == params

    def test_arch_serialization_round_trip(self):
        arch = ArchDescriptor(11, (5, 3), 7, "tanh")
        assert ArchDescriptor.from_dict(arch.to_dict()) == arch


class TestSoftmax:
    def test_uniform_logits(self):
        assert softmax_conf(np.zeros(10), 3) == pytest.approx(0.1, abs=1e-15)

    def test_analytic_two_class(self):
        assert softmax_conf(np.array([math.log(2.0), 0.0]), 0) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_large_logits_no_overflow(self):
        f = softmax_conf(np.array([1000.0, 0.0]), 0)
        assert 1.0 - 1e-12 < f <= 1.0

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            logits = rng.normal(0, 5, size=rng.integers(2, 12))
            probs = np.array([softmax_conf(logits, i) for i in range(logits.size)])
            assert abs(probs.sum() - 1.0) < 1e-12
            shifted = np.array([softmax_conf(logits + 17.3, i) for i in range(logits.size)])
            np.testing.assert_allclose(probs, shifted, atol=1e-12)

    def test_index_bounds(self):
        with pytest.raises(IndexError):
            softmax_conf(np.zeros(3), 3)


class TestObjectives:
    def test_cross_entropy_uniform(self):
        kind = ObjectiveKind("cross_entropy", IN_MINIMIZE)
        assert objective_value(np.zeros(10), 0, kind) == pytest.approx(math.log(10.0), abs=1e-12)

    def test_cw_margin_value(self):
        logits = np.array([3.0, 1.0, 0.0])
        assert cw_margin(logits, 0) == 2.0
        # the out side of the margin pair is the margin itself
        assert objective_value(logits, 0, ObjectiveKind("cw_margin", OUT_MAXIMIZE)) == 2.0

    def test_reverse_cross_entropy(self):
        # logits (0, 0) put confidence 1/2 on either class
        kind = ObjectiveKind("cross_entropy", OUT_MAXIMIZE)
        assert objective_value(np.zeros(2), 0, kind) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_cw_margin_sign_tracks_argmax(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            logits = rng.normal(0, 3, size=rng.integers(2, 8))
            y = int(rng.integers(logits.size))
            margin = cw_margin(logits, y)
            if margin > 0:
                assert np.argmax(logits) == y
            if np.argmax(logits) == y and margin != 0.0:
                assert margin > 0

    def test_random_label_requires_alt(self):
        with pytest.raises(ValueError):
            ObjectiveKind("cross_entropy_random_label", IN_MINIMIZE)

    def test_pair_sides_move_confidence_in_opposite_directions(self):
        # single linear model, one gradient step per side
        rng = np.random.default_rng(4)
        arch = ArchDescriptor(6, (), 5)
        for kind in OBJECTIVE_KINDS:
            moved = []
            for direction in (IN_MINIMIZE, OUT_MAXIMIZE):
                params = init_params(arch, np.random.default_rng(11))
                x = rng.uniform(0.1, 0.9, 6)
                y = 2
                obj = ObjectiveKind(kind, direction, alt_label=4)
                step = x - 0.05 * input_gradient(arch, params, x, y, obj)
                before = softmax_conf(forward_logits(arch, params, x), y)
                after = softmax_conf(forward_logits(arch, params, step), y)
                moved.append(after - before)
            assert moved[0] * moved[1] < 0, f"{kind}: sides moved confidence the same way"

    def test_ce_and_margin_pairs_orientation(self):
        # descent on the in side raises confidence for these pairs
        rng = np.random.default_rng(5)
        arch = ArchDescriptor(6, (), 5)
        params = init_params(arch, rng)
        x = rng.uniform(0.1, 0.9, 6)
        y = 1
        for kind in ("cross_entropy", "cross_entropy_random_label", "cw_margin", "cw_margin_random_label"):
            obj = ObjectiveKind(kind, IN_MINIMIZE, alt_label=3)
            step = x - 0.05 * input_gradient(arch, params, x, y, obj)
            before = softmax_conf(forward_logits(arch, params, x), y)
            after = softmax_conf(forward_logits(arch, params, step), y)
            assert after > before, kind


class TestInputGradient:
    def test_zero_params_zero_gradient(self):
        arch = ArchDescriptor(3, (4,), 2)
        params = Params([np.zeros((4, 3)), np.zeros((2, 4))], [np.zeros(4), np.zeros(2)])
        kind = ObjectiveKind("cross_entropy", IN_MINIMIZE)
        g = input_gradient(arch, params, np.array([0.1, 0.2, 0.3]), 1, kind)
        assert np.array_equal(g, np.zeros(3))

    def test_linear_model_raw_logit_gradient_is_weight_row(self):
        rng = np.random.default_rng(6)
        W = rng.normal(size=(4, 5))
        arch = ArchDescriptor(5, (), 4)
        params = Params([W.copy()], [np.zeros(4)])
        x = rng.uniform(0, 1, 5)
        g_in = input_gradient(arch, params, x, 2, ObjectiveKind("raw_logit", IN_MINIMIZE))
        np.testing.assert_allclose(g_in, W[2], atol=1e-15)
        g_out = input_gradient(arch, params, x, 2, ObjectiveKind("raw_logit", OUT_MAXIMIZE))
        np.testing.assert_allclose(g_out, -W[2], atol=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for trial in range(40):
            act = "tanh" if trial % 2 else "relu"
            arch, params = random_net(np.random.default_rng(100 + trial), activation=act)
            x = rng.uniform(0, 1, 5)
            y = int(rng.integers(4))
            kind = OBJECTIVE_KINDS[trial % len(OBJECTIVE_KINDS)]
            obj = ObjectiveKind(kind, (IN_MINIMIZE, OUT_MAXIMIZE)[trial % 2],
                                alt_label=(y + 1) % 4 if "random" in kind else None)
            analytic = input_gradient(arch, params, x, y, obj)
            fd = fd_input_gradient(arch, params, x, y, obj)
            err = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12)
            worst = max(worst, err)
        assert worst < 1e-4

    @pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
    @pytest.mark.parametrize("direction", [IN_MINIMIZE, OUT_MAXIMIZE])
    def test_rows_of_a_batch_equal_single_rows_bitwise(self, kind, direction):
        rng = np.random.default_rng(11)
        arch, params = random_net(np.random.default_rng(12), input_dim=20, hidden=(128, 9),
                                  classes=10, activation="tanh" if kind[0] == "c" else "relu")
        X = rng.uniform(0, 1, (17, 20))
        y = rng.integers(0, 10, 17)
        alt = (y + 1 + rng.integers(0, 9, 17)) % 10 if "random" in kind else None
        batch = input_gradient(arch, params, X, y, ObjectiveKind(kind, direction, alt))
        for i in range(len(X)):
            obj = ObjectiveKind(kind, direction, None if alt is None else int(alt[i]))
            assert np.array_equal(batch[i], input_gradient(arch, params, X[i], int(y[i]), obj))

    def test_batch_rejects_alt_equal_to_label(self):
        arch, params = random_net(np.random.default_rng(13))
        obj = ObjectiveKind("cross_entropy_random_label", OUT_MAXIMIZE, np.array([1, 2]))
        with pytest.raises(ValueError, match="alternative label"):
            input_gradient(arch, params, np.zeros((2, 5)), np.array([0, 2]), obj)


class TestParamGradient:
    def test_empty_batch_errors(self):
        arch, params = random_net(np.random.default_rng(8))
        with pytest.raises(ValueError):
            param_gradient(arch, params, np.zeros((0, 5)), np.zeros(0, dtype=int))

    def test_mismatched_params_raise_shape_error(self):
        arch, params = random_net(np.random.default_rng(12))
        X, y = np.zeros((2, 5)), np.array([0, 1])
        bad_bias = Params(params.weights, [params.biases[0][:-1], params.biases[1]])
        with pytest.raises(ShapeError):
            param_gradient(arch, bad_bias, X, y)
        uneven_stack = Params([np.stack([W, W]) for W in params.weights],
                              [np.stack([params.biases[0]] * 3), np.stack([params.biases[1]] * 2)])
        with pytest.raises(ShapeError):
            param_gradient(arch, uneven_stack, np.stack([X, X]), np.stack([y, y]))

    def test_single_sample_equals_batch_of_one(self):
        arch, params = random_net(np.random.default_rng(9))
        x = np.random.default_rng(10).uniform(0, 1, 5)
        g1 = param_gradient(arch, params, x[None, :], np.array([2])).to_vector()
        g2 = param_gradient(arch, params, np.vstack([x]), np.array([2])).to_vector()
        assert np.array_equal(g1, g2)

    def test_saturated_separable_point_has_tiny_gradient(self):
        # a confident correct prediction puts near-zero mass off the label
        arch = ArchDescriptor(2, (), 2)
        params = Params([np.array([[40.0, 0.0], [-40.0, 0.0]])], [np.zeros(2)])
        X = np.array([[1.0, 0.0]])
        g = param_gradient(arch, params, X, np.array([0])).to_vector()
        assert np.linalg.norm(g) < 1e-6

    def test_matches_finite_differences_on_coords(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            arch, params = random_net(np.random.default_rng(200 + trial), hidden=(6,))
            X = rng.uniform(0, 1, (4, 5))
            y = rng.integers(0, 4, 4)
            analytic = param_gradient(arch, params, X, y).to_vector()
            coords = rng.choice(analytic.size, 20, replace=False)
            fd = fd_param_gradient_coords(arch, params, X, y, coords)
            err = np.linalg.norm(analytic[coords] - fd) / max(np.linalg.norm(fd), 1e-12)
            assert err < 1e-4


class TestAdam:
    def test_zero_gradient_keeps_variable(self):
        state = init_adam(3)
        var = np.array([1.0, -2.0, 0.5])
        before = var.copy()
        adam_step(state, var, np.zeros(3), lr=0.1)
        assert np.array_equal(var, before)
        assert state.step == 1

    def test_first_step_magnitude_is_lr(self):
        for g in (0.5, -3.0, 1e-3):
            state = init_adam(())
            x = np.zeros(())
            adam_step(state, x, np.array(g), lr=0.05)
            expected = 0.05 * abs(g) / (abs(g) + 1e-8)
            assert abs(abs(float(x)) - expected) < 1e-12
            assert np.sign(float(x)) == -np.sign(g)

    def test_two_constant_gradient_steps_match_recurrence(self):
        grads = [0.7, 0.7]
        state = init_adam(())
        x = np.ones(())
        for g in grads:
            adam_step(state, x, np.array(g), lr=0.05)
        expected = adam_recurrence(grads, 1.0, lr=0.05)
        assert float(x) == pytest.approx(expected, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            adam_step(init_adam(3), np.zeros(3), np.zeros(4), lr=0.1)

    def test_stacked_rows_match_recurrence_bitwise(self):
        # one (G, P) update is G independent scalar recurrences, bit for bit
        rng = np.random.default_rng(13)
        grads = rng.normal(0.0, 2.0, (5, 3, 4))
        x0 = rng.normal(0.0, 1.0, (3, 4))
        x = x0.copy()
        state = init_adam(x.shape)
        for g in grads:
            adam_step(state, x, g, lr=0.01)
        assert state.step == 5
        for i, j in np.ndindex(*x.shape):
            assert x[i, j] == adam_recurrence(grads[:, i, j], x0[i, j], lr=0.01)

    def test_gradient_left_untouched(self):
        state = init_adam(3)
        g = np.array([0.3, -1.0, 2.0])
        adam_step(state, np.zeros(3), g, lr=0.1)
        assert np.array_equal(g, [0.3, -1.0, 2.0])


class TestScaleConfidence:
    def test_symmetry_point(self):
        assert scale_confidence(0.5) == 0.0

    def test_analytic_nine(self):
        assert scale_confidence(0.9) == pytest.approx(math.log(9.0), abs=1e-9)

    def test_clamped_endpoint(self):
        # 1 - clamp(1.0) is not exactly 1e-6 in float64, hence the 1e-9 slack
        expected = math.log((1.0 - 1e-6) / 1e-6)
        assert scale_confidence(1.0, delta=1e-6) == pytest.approx(expected, abs=1e-9)
        assert scale_confidence(1.0, delta=1e-6) == pytest.approx(13.815509, abs=1e-6)

    def test_strictly_increasing_and_antisymmetric(self):
        rng = np.random.default_rng(12)
        f = np.sort(rng.uniform(1e-6, 1 - 1e-6, 500))
        phi = np.array([scale_confidence(v) for v in f])
        assert np.all(np.diff(phi) > 0)
        for v in f:
            assert abs(scale_confidence(1.0 - v) + scale_confidence(v)) < 1e-12

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            scale_confidence(0.5, delta=0.6)

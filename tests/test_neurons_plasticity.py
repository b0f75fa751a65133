"""Tests for the plasticity rules (Hebbian, Oja, anti-Hebbian Oja)."""

import numpy as np
import pytest

from repro.neurons.plasticity import (
    AntiHebbianMinorComponent,
    OjaPrincipalComponent,
    anti_hebbian_oja_update,
    hebbian_update,
    oja_update,
)
from repro.utils.validation import ValidationError


def _gaussian_samples(cov, n, rng):
    L = np.linalg.cholesky(cov + 1e-12 * np.eye(cov.shape[0]))
    return rng.standard_normal((n, cov.shape[0])) @ L.T


def _alignment(a, b):
    return abs(float(a @ b)) / (np.linalg.norm(a) * np.linalg.norm(b))


class TestUpdateFunctions:
    def test_hebbian_direction(self):
        w = np.array([1.0, 0.0])
        x = np.array([1.0, 1.0])
        new = hebbian_update(w, x, learning_rate=0.1)
        # y = 1, dw = 0.1 * x
        np.testing.assert_allclose(new, w + 0.1 * x)

    def test_hebbian_norm_grows(self, rng):
        # The plain Hebbian rule is unstable: the weight norm grows without the
        # Oja normalisation term.  A handful of aligned updates is enough to see it.
        w = rng.standard_normal(5)
        w /= np.linalg.norm(w)
        for _ in range(8):
            x = w + 0.1 * rng.standard_normal(5)
            w = hebbian_update(w, x, 0.1)
        assert np.linalg.norm(w) > 1.2

    def test_oja_update_formula(self):
        w = np.array([0.6, 0.8])
        x = np.array([1.0, 0.0])
        y = float(w @ x)
        expected = w + 0.05 * y * (x - y * w)
        np.testing.assert_allclose(oja_update(w, x, 0.05), expected)

    def test_anti_hebbian_formula(self):
        w = np.array([0.6, 0.8])
        x = np.array([1.0, -1.0])
        y = float(w @ x)
        expected = w + 0.05 * (-y * x + (y * y + 1.0 - float(w @ w)) * w)
        np.testing.assert_allclose(anti_hebbian_oja_update(w, x, 0.05), expected)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValidationError):
            oja_update(np.ones(3), np.ones(4))

    def test_nonpositive_learning_rate_raises(self):
        with pytest.raises(ValidationError):
            oja_update(np.ones(2), np.ones(2), 0.0)

    def test_fixed_point_of_anti_hebbian(self, rng):
        """A unit minor eigenvector is (in expectation) a fixed point of the rule."""
        cov = np.diag([3.0, 2.0, 0.5])
        minor = np.array([0.0, 0.0, 1.0])
        samples = _gaussian_samples(cov, 4000, rng)
        increments = []
        for x in samples:
            increments.append(anti_hebbian_oja_update(minor, x, 1.0) - minor)
        mean_increment = np.mean(increments, axis=0)
        assert np.linalg.norm(mean_increment) < 0.15


class TestOjaPrincipalComponent:
    def test_converges_to_principal_eigenvector(self, rng):
        cov = np.diag([5.0, 1.0, 0.2, 0.1])
        samples = _gaussian_samples(cov, 6000, rng)
        learner = OjaPrincipalComponent(4, learning_rate=0.01, seed=1)
        learner.train(samples)
        principal = np.array([1.0, 0.0, 0.0, 0.0])
        assert _alignment(learner.weights, principal) > 0.95

    def test_weight_norm_stays_near_one(self, rng):
        cov = np.diag([2.0, 1.0])
        samples = _gaussian_samples(cov, 3000, rng)
        learner = OjaPrincipalComponent(2, learning_rate=0.02, seed=2)
        learner.train(samples)
        assert 0.7 < np.linalg.norm(learner.weights) < 1.3

    def test_step_returns_output(self, rng):
        learner = OjaPrincipalComponent(3, seed=3)
        y = learner.step(np.array([1.0, 2.0, 3.0]))
        assert np.isfinite(y)

    def test_wrong_input_width(self, rng):
        learner = OjaPrincipalComponent(3, seed=4)
        with pytest.raises(ValidationError):
            learner.train(np.ones((10, 2)))

    def test_invalid_construction(self):
        with pytest.raises(ValidationError):
            OjaPrincipalComponent(0)
        with pytest.raises(ValidationError):
            OjaPrincipalComponent(3, learning_rate=-1.0)


class TestAntiHebbianMinorComponent:
    def test_converges_to_minor_eigenvector_diagonal(self, rng):
        cov = np.diag([4.0, 3.0, 0.2])
        samples = _gaussian_samples(cov, 8000, rng)
        learner = AntiHebbianMinorComponent(3, learning_rate=0.01, seed=5)
        learner.train(samples)
        minor = np.array([0.0, 0.0, 1.0])
        assert _alignment(learner.weights, minor) > 0.9

    def test_converges_for_general_covariance(self, rng):
        # random PSD covariance with a well-separated smallest eigenvalue
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        cov = Q @ np.diag([5.0, 4.0, 3.0, 0.1]) @ Q.T
        samples = _gaussian_samples(cov, 12000, rng)
        learner = AntiHebbianMinorComponent(4, learning_rate=0.01, seed=6)
        learner.train(samples)
        minor = Q[:, 3]
        assert _alignment(learner.weights, minor) > 0.85

    def test_weight_norm_bounded(self, rng):
        cov = np.diag([2.0, 1.0, 0.5])
        samples = _gaussian_samples(cov, 4000, rng)
        learner = AntiHebbianMinorComponent(3, learning_rate=0.05, seed=7)
        learner.train(samples)
        assert np.linalg.norm(learner.weights) < 5.0

    def test_learning_rate_decay(self):
        learner = AntiHebbianMinorComponent(2, learning_rate=0.1, learning_rate_decay=1.0, seed=8)
        assert learner.current_learning_rate() == pytest.approx(0.1)
        learner.step(np.array([1.0, 0.0]))
        assert learner.current_learning_rate() == pytest.approx(0.05)

    def test_sign_assignment_values(self):
        learner = AntiHebbianMinorComponent(5, seed=9)
        assignment = learner.sign_assignment()
        assert set(np.unique(assignment)).issubset({-1, 1})
        assert assignment.shape == (5,)

    def test_input_normalisation_invariance(self, rng):
        """Scaling all inputs by a constant must not change the learned direction."""
        cov = np.diag([3.0, 1.0, 0.2])
        samples = _gaussian_samples(cov, 5000, rng)
        a = AntiHebbianMinorComponent(3, learning_rate=0.01, normalize_inputs=True, seed=10)
        b = AntiHebbianMinorComponent(3, learning_rate=0.01, normalize_inputs=True, seed=10)
        a.train(samples)
        b.train(1000.0 * samples)
        assert _alignment(a.weights, b.weights) > 0.999

    def test_invalid_construction(self):
        with pytest.raises(ValidationError):
            AntiHebbianMinorComponent(0)
        with pytest.raises(ValidationError):
            AntiHebbianMinorComponent(3, learning_rate_decay=-1.0)

    def test_train_wrong_width(self):
        learner = AntiHebbianMinorComponent(3, seed=11)
        with pytest.raises(ValidationError):
            learner.train(np.ones((5, 4)))

    def test_n_updates_counted(self, rng):
        learner = AntiHebbianMinorComponent(2, seed=12)
        learner.train(rng.standard_normal((7, 2)))
        assert learner.n_updates == 7

    def test_guard_firings_count_each_renormalised_row(self, rng):
        seeds = [31, 32, 33]
        params = dict(learning_rate=0.05, normalize_inputs=False)
        batch = AntiHebbianMinorComponent(4, seed=seeds, **params)
        single = AntiHebbianMinorComponent(4, seed=seeds[1], **params)
        assert batch.guard_firings.shape == (3,) and single.guard_firings.shape == ()
        reference = batch.weights.copy()
        expected = np.zeros(3, dtype=np.int64)
        for _ in range(20):
            x = 0.1 * rng.standard_normal((3, 4))
            x[1] *= 1e3  # only row 1 ever crosses the guard's norm
            eta = batch.current_learning_rate()
            batch.step(x)
            single.step(x[1])
            for i in range(3):
                reference[i], _, tripped = _reference_anti_hebbian_step(
                    reference[i], x[i], eta, False
                )
                expected[i] += tripped
        assert expected[1] > 0 and expected[0] == expected[2] == 0
        assert np.array_equal(batch.guard_firings, expected)
        assert single.guard_firings == expected[1]


def _reference_anti_hebbian_step(w, x, eta, normalize_inputs):
    """The 1-D learner step as it stood before the rule was made batchable.

    Kept verbatim (update function inlined) as the bitwise reference: a
    test-local copy, unlike a golden hash, does not depend on the host's BLAS
    kernel.  Returns ``(weights, y, renormalised)``.
    """
    x = np.asarray(x, dtype=np.float64)
    if normalize_inputs:
        rms = float(np.sqrt(np.mean(x * x)))
        if rms > 1e-12:
            x = x / rms
    y = float(w @ x)
    # anti_hebbian_oja_update(w, x, eta), which recomputed y:
    y_update = float(w @ x)
    w = w + eta * (-y_update * x + (y_update * y_update + 1.0 - float(w @ w)) * w)
    norm = float(np.linalg.norm(w))
    renormalised = norm > 10.0
    if renormalised:
        w /= norm
    return w, y, renormalised


class TestBatchedAntiHebbian:
    """A (T, n) learner steps every row exactly as T independent 1-D learners."""

    @pytest.mark.parametrize("normalize_inputs", [True, False])
    @pytest.mark.parametrize("n", [3, 60, 100])
    @pytest.mark.parametrize("n_rows", [1, 4, 16])
    def test_rows_match_independent_learners_bitwise(
        self, n_rows, n, normalize_inputs
    ):
        n_steps = 1000
        seeds = [np.random.SeedSequence(314, spawn_key=(i,)) for i in range(n_rows)]
        params = dict(
            # Small enough that only the scaled-up row trips the norm guard.
            learning_rate=0.05 / np.sqrt(n), learning_rate_decay=0.01,
            normalize_inputs=normalize_inputs,
        )
        batch = AntiHebbianMinorComponent(n, seed=seeds, **params)
        singles = [AntiHebbianMinorComponent(n, seed=s, **params) for s in seeds]
        reference = [single.weights.copy() for single in singles]
        assert np.array_equal(batch.weights, np.array(reference))

        rng = np.random.default_rng(n * 100 + n_rows)
        zero_row, huge_row = (1, 2) if n_rows > 2 else (None, None)
        renormalised = np.zeros(n_rows, dtype=bool)
        for _ in range(n_steps):
            # Unnormalised inputs stay small enough for the rule to be stable.
            scale = rng.uniform(0.1, 10.0) if normalize_inputs else 0.5 / np.sqrt(n)
            # A strided (rows, n) view, as the engine passes rows[:, k].
            inputs = rng.standard_normal((n_rows, 2, n)) * scale
            if zero_row is not None:
                inputs[zero_row] = 0.0  # rms guard
                inputs[huge_row] *= 1e3  # norm > 10 guard without normalisation
            x = inputs[:, 1]
            eta = batch.current_learning_rate()
            y = batch.step(x)
            for i, single in enumerate(singles):
                assert single.step(x[i]) == y[i]
                reference[i], y_ref, tripped = _reference_anti_hebbian_step(
                    reference[i], x[i], eta, normalize_inputs
                )
                assert y_ref == y[i]
                renormalised[i] |= tripped
            assert np.array_equal(batch.weights, np.array(reference))
        assert np.array_equal(batch.weights, np.array([s.weights for s in singles]))
        assert np.all(np.isfinite(batch.weights))
        assert batch.n_updates == n_steps
        if zero_row is not None:
            assert renormalised[huge_row] == (not normalize_inputs)
            mates = np.delete(renormalised, huge_row)
            assert not mates.any()
        assert np.array_equal(
            batch.sign_assignment(), np.array([s.sign_assignment() for s in singles])
        )

    def test_one_dimensional_step_returns_float(self):
        learner = AntiHebbianMinorComponent(3, seed=13)
        assert isinstance(learner.step(np.array([1.0, 2.0, 3.0])), float)

    def test_batched_train(self, rng):
        seeds = [21, 22]
        batch = AntiHebbianMinorComponent(3, seed=seeds)
        singles = [AntiHebbianMinorComponent(3, seed=s) for s in seeds]
        inputs = rng.standard_normal((50, 2, 3))
        outputs = batch.train(inputs)
        assert outputs.shape == (50, 2)
        for i, single in enumerate(singles):
            assert np.array_equal(single.train(inputs[:, i]), outputs[:, i])
            assert np.array_equal(single.weights, batch.weights[i])

    def test_step_shape_mismatch_raises(self):
        batch = AntiHebbianMinorComponent(3, seed=[1, 2])
        with pytest.raises(ValidationError):
            batch.step(np.ones(3))
        with pytest.raises(ValidationError):
            batch.train(np.ones((5, 3)))

    def test_update_functions_accept_row_batches(self, rng):
        w = rng.standard_normal((4, 5))
        x = rng.standard_normal((4, 5))
        for update in (hebbian_update, oja_update, anti_hebbian_oja_update):
            batched = update(w, x, 0.05)
            rows = np.array([update(w[i], x[i], 0.05) for i in range(4)])
            assert np.array_equal(batched, rows)


def _reference_train(learner, inputs):
    """Step every row of *learner*'s weights through *inputs* with the verbatim
    reference step; returns ``(weights, outputs, renormalisations per row)``."""
    inputs = np.asarray(inputs, dtype=np.float64)
    rows = np.array(learner.weights, copy=True).reshape(-1, learner.n_inputs)
    steps = inputs.reshape(inputs.shape[0], -1, learner.n_inputs)
    outputs = np.empty(steps.shape[:2])
    fired = np.zeros(rows.shape[0], dtype=np.int64)
    for t, x in enumerate(steps):
        eta = learner.learning_rate / (
            1.0 + learner.learning_rate_decay * (learner.n_updates + t)
        )
        for i in range(rows.shape[0]):
            rows[i], outputs[t, i], tripped = _reference_anti_hebbian_step(
                rows[i], x[i], eta, learner.normalize_inputs
            )
            fired[i] += tripped
    shape = learner.weights.shape
    return rows.reshape(shape), outputs.reshape(inputs.shape[:-1]), fired.reshape(shape[:-1])


def _learner(n_rows, n=24, **params):
    seed = 41 if n_rows is None else [41 + i for i in range(n_rows)]
    return AntiHebbianMinorComponent(n, seed=seed, **params)


def _block(rng, n_steps, n_rows, n=24, scale=1.0):
    """A read-out block as the engine passes it: ``(steps, n)`` for a 1-D
    learner, a swapped, non-contiguous ``(steps, rows, n)`` view otherwise."""
    if n_rows is None:
        return scale * rng.standard_normal((n_steps, n))
    return (scale * rng.standard_normal((n_rows, n_steps, n))).swapaxes(0, 1)


def _assert_same_state(a, b):
    assert np.array_equal(a.weights, b.weights)
    assert a.n_updates == b.n_updates
    assert np.array_equal(a.guard_firings, b.guard_firings)
    assert a.guard_firings.shape == b.guard_firings.shape


class TestTrainBitwise:
    """``train`` is the rule's one loop: pinned bitwise to the reference step."""

    @pytest.mark.parametrize("decay", [0.0, 0.01])
    @pytest.mark.parametrize("normalize_inputs", [True, False])
    @pytest.mark.parametrize("n_rows", [None, 1, 5])
    def test_matches_reference_step(self, rng, n_rows, normalize_inputs, decay):
        learner = _learner(
            n_rows, learning_rate=0.05, learning_rate_decay=decay,
            normalize_inputs=normalize_inputs,
        )
        scale = 1.0 if normalize_inputs else 0.1
        expected_fired = np.zeros_like(learner.guard_firings)
        for _ in range(3):
            inputs = _block(rng, 40, n_rows, scale=scale)
            # Zero the whole input at one step: the rms guard on every row.
            inputs[7] = 0.0
            expected_w, expected_y, fired = _reference_train(learner, inputs)
            expected_fired += fired
            before = learner.n_updates
            outputs = learner.train(inputs)
            assert outputs.shape == inputs.shape[:-1]
            assert np.array_equal(outputs, expected_y)
            assert np.array_equal(learner.weights, expected_w)
            assert learner.n_updates == before + 40
        assert np.array_equal(learner.guard_firings, expected_fired)

    @pytest.mark.parametrize("n_rows", [None, 4])
    def test_guard_firings_per_row(self, rng, n_rows):
        learner = _learner(n_rows, learning_rate=0.05, normalize_inputs=False)
        inputs = _block(rng, 60, n_rows, scale=0.1)
        huge = (slice(None),) if n_rows is None else (slice(None), 2)
        inputs[huge] *= 1e3  # only this row crosses the guard's norm
        expected_w, expected_y, fired = _reference_train(learner, inputs)
        learner.train(inputs)
        assert np.array_equal(learner.weights, expected_w)
        assert np.array_equal(learner.train(inputs[:0]), expected_y[:0])
        assert np.array_equal(learner.guard_firings, fired)
        assert learner.guard_firings.shape == learner.weights.shape[:-1]
        assert fired.sum() > 0
        if n_rows is not None:
            assert fired[2] > 0 and np.delete(fired, 2).sum() == 0

    @pytest.mark.parametrize("normalize_inputs", [True, False])
    @pytest.mark.parametrize("n_rows", [None, 3])
    def test_split_invariance(self, rng, n_rows, normalize_inputs):
        params = dict(
            learning_rate=0.05, learning_rate_decay=0.02,
            normalize_inputs=normalize_inputs,
        )
        inputs = _block(rng, 30, n_rows, scale=1.0 if normalize_inputs else 0.1)
        inputs[4] *= 1e3  # the guard fires mid-block
        whole = _learner(n_rows, **params)
        expected = whole.train(inputs)
        assert whole.guard_firings.sum() > 0 or normalize_inputs
        for j in (0, 1, 4, 5, 17, 30):
            split = _learner(n_rows, **params)
            outputs = np.concatenate([split.train(inputs[:j]), split.train(inputs[j:])])
            assert np.array_equal(outputs, expected)
            _assert_same_state(split, whole)
        stepped = _learner(n_rows, **params)
        outputs = np.array([stepped.step(x) for x in inputs])
        assert np.array_equal(outputs, expected)
        _assert_same_state(stepped, whole)

    @pytest.mark.parametrize("n_rows", [None, 3])
    def test_weights_reassigned_between_calls(self, rng, n_rows):
        learner = _learner(n_rows, learning_rate=0.05)
        learner.train(_block(rng, 10, n_rows))
        learner.weights = 2.5 * learner.weights  # a new norm the next call must see
        inputs = _block(rng, 10, n_rows)
        expected_w, expected_y, _ = _reference_train(learner, inputs)
        assert np.array_equal(learner.train(inputs), expected_y)
        assert np.array_equal(learner.weights, expected_w)
        learner.weights[...] = 0.5 * learner.weights  # written in place, too
        expected_w, expected_y, _ = _reference_train(learner, inputs)
        assert np.array_equal(learner.train(inputs), expected_y)
        assert np.array_equal(learner.weights, expected_w)

    @pytest.mark.parametrize("n_rows", [None, 3])
    def test_read_weights_never_written(self, rng, n_rows):
        learner = _learner(n_rows)
        held = learner.weights
        kept = held.copy()
        learner.train(_block(rng, 10, n_rows))
        learner.step(_block(rng, 1, n_rows)[0])
        assert np.array_equal(held, kept)

    def test_step_return_types(self):
        single = _learner(None)
        assert isinstance(single.step(np.ones(24)), float)
        batch = _learner(3)
        y = batch.step(np.ones((3, 24)))
        assert isinstance(y, np.ndarray) and y.shape == (3,)


def _per_round(learner, inputs, interval):
    """Per-round ``train`` then ``sign_assignment``: the reference read-outs."""
    n_rounds = len(inputs) // interval
    readouts = np.empty((n_rounds, *learner.weights.shape), dtype=np.int8)
    for r in range(n_rounds):
        learner.train(inputs[r * interval:(r + 1) * interval])
        readouts[r] = learner.sign_assignment()
    learner.train(inputs[n_rounds * interval:])  # steps past the last read-out
    return readouts


class TestTrainReadouts:
    """``train_readouts`` is ``train`` with a sign read-out every *interval* steps."""

    @pytest.mark.parametrize("interval", [1, 3, 10])
    @pytest.mark.parametrize("decay", [0.0, 0.02])
    @pytest.mark.parametrize("normalize_inputs", [True, False])
    @pytest.mark.parametrize("n_rows", [None, 1, 4])
    def test_matches_per_round_train(
        self, rng, n_rows, normalize_inputs, decay, interval
    ):
        params = dict(
            learning_rate=0.05, learning_rate_decay=decay,
            normalize_inputs=normalize_inputs,
        )
        # Six rounds, and steps past the last read-out unless interval is 1.
        inputs = _block(
            rng, 6 * interval + interval // 2, n_rows,
            scale=1.0 if normalize_inputs else 0.1,
        )
        inputs[4] *= 1e3  # the guard fires mid-chunk without normalisation
        inputs[2] = 0.0  # and the rms guard with it
        chunked, reference = _learner(n_rows, **params), _learner(n_rows, **params)
        readouts = chunked.train_readouts(inputs, interval)
        assert readouts.dtype == np.int8
        assert readouts.shape == (6, *chunked.weights.shape)
        assert np.array_equal(readouts, _per_round(reference, inputs, interval))
        _assert_same_state(chunked, reference)
        assert chunked.n_updates == len(inputs)
        assert reference.guard_firings.sum() > 0 or normalize_inputs

    @pytest.mark.parametrize(
        "split", [[6], [0, 6], [1, 1, 1, 1, 1, 1], [2, 4], [3, 0, 3], [5, 1]]
    )
    @pytest.mark.parametrize("n_rows", [None, 3])
    def test_any_split_of_the_rounds(self, rng, n_rows, split):
        params = dict(learning_rate=0.05, learning_rate_decay=0.01, normalize_inputs=False)
        interval = 4
        inputs = _block(rng, 6 * interval, n_rows, scale=0.1)
        inputs[9] *= 1e3
        whole = _learner(n_rows, **params)
        expected = whole.train_readouts(inputs, interval)
        parts = _learner(n_rows, **params)
        readouts, first = [], 0
        for count in split:
            steps = inputs[first * interval:(first + count) * interval]
            readouts.append(parts.train_readouts(steps, interval))
            first += count
        assert np.array_equal(np.concatenate(readouts), expected)
        _assert_same_state(parts, whole)
        assert whole.guard_firings.sum() > 0
        trained = _learner(n_rows, **params)
        trained.train(inputs)
        _assert_same_state(trained, whole)

    @pytest.mark.parametrize("n_rows", [None, 2])
    def test_zero_steps(self, rng, n_rows):
        learner = _learner(n_rows)
        before = learner.weights.copy()
        readouts = learner.train_readouts(_block(rng, 0, n_rows), 5)
        assert readouts.shape == (0, *learner.weights.shape)
        assert readouts.dtype == np.int8
        assert np.array_equal(learner.weights, before)
        assert learner.n_updates == 0

    def test_fewer_steps_than_an_interval(self, rng):
        learner, reference = _learner(2), _learner(2)
        inputs = _block(rng, 3, 2)
        assert learner.train_readouts(inputs, 5).shape == (0, 2, 24)
        reference.train(inputs)
        _assert_same_state(learner, reference)

    def test_interval_must_be_positive(self, rng):
        learner = _learner(None)
        with pytest.raises(ValidationError):
            learner.train_readouts(_block(rng, 4, None), 0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValidationError):
            _learner(3).train_readouts(np.ones((4, 2, 24)), 2)

"""The finite-difference suite behind the ``gradcheck`` command passes on every layer."""

import re

import numpy as np
import pytest

from avfuse import autodiff as ad
from avfuse import gradcheck
from avfuse.autodiff import Constant, ShapeError, Tensor


def test_every_layer_passes():
    results = gradcheck.run_suite()
    assert [r.name for r in results] == list(gradcheck.LAYER_CHECKS)
    failed = {r.name: r.worst_error for r in results if not r.passed}
    assert not failed, f"layers over tolerance {gradcheck.DEFAULT_TOLERANCE}: {failed}"


def test_a_row_reports_the_same_error_alone_as_in_the_suite(monkeypatch):
    # Each row's generator is seeded by its name, not by its position in the suite.
    checks = gradcheck.LAYER_CHECKS
    in_suite = {r.name: r.worst_error for r in gradcheck.run_suite(seed=3)}
    for name in ("concat", "asp_batch", "aam_loss"):
        monkeypatch.setattr(gradcheck, "LAYER_CHECKS", {name: checks[name]})
        [alone] = gradcheck.run_suite(seed=3)
        assert alone.worst_error == in_suite[name], name


def test_relative_error_refuses_arrays_of_different_shapes():
    message = "relative_error: shape mismatch (2, 3) vs (3, 2)"
    with pytest.raises(ShapeError, match=re.escape(message)):
        gradcheck.relative_error(np.zeros((2, 3)), np.zeros((3, 2)))
    assert gradcheck.relative_error(np.zeros((0, 2)), np.zeros((0, 2))) == 0.0


def test_a_tensor_the_tape_gives_no_gradient_is_checked_against_zero():
    rng = np.random.default_rng(5)
    a, b = Tensor(rng.uniform(-1, 1, (2, 3))), Tensor(rng.uniform(-1, 1, (2, 3)))

    def loss():
        # b reaches the loss only through a constant that holds its array, so
        # the tape gives b no gradient while perturbing b still moves the loss.
        return ad.sum_all(ad.mul(a, Constant(b.data)))

    assert gradcheck.check_function(loss, {"a": a}) < gradcheck.DEFAULT_TOLERANCE
    assert gradcheck.check_function(loss, {"a": a, "b": b}) == 1.0

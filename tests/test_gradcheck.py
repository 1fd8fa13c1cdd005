"""The finite-difference suite behind the ``gradcheck`` command passes on every layer."""

from avfuse import gradcheck


def test_every_layer_passes():
    results = gradcheck.run_suite()
    assert [r.name for r in results] == list(gradcheck.LAYER_CHECKS)
    failed = {r.name: r.worst_error for r in results if not r.passed}
    assert not failed, f"layers over tolerance {gradcheck.DEFAULT_TOLERANCE}: {failed}"

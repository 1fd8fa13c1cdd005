"""The finite-difference suite behind the ``gradcheck`` command passes on every layer."""

from avfuse import gradcheck


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

"""Angular-margin loss semantics and cosine scoring."""

import math
import re

import numpy as np
import pytest

from avfuse import autodiff as ad
from avfuse.autodiff import COS_BOUND, Tape, Tensor
from avfuse.config import ConfigError
from avfuse.gradcheck import check_function
from avfuse.objective import AamHead, NormalizationError, aam_loss, cosine_score

import reference_ops as ref


def reference_scaled_softmax_ce(weights, embedding, label, scale):
    """Independent reference: cross-entropy over scale * cosines, no margin."""
    w = weights / np.linalg.norm(weights, axis=1, keepdims=True)
    x = embedding / np.linalg.norm(embedding)
    logits = scale * (w @ x)
    m = logits.max()
    return float(m + np.log(np.exp(logits - m).sum()) - logits[label])


def random_head(rng, n_classes=5, dim=6, scale=30.0, margin=0.2):
    return AamHead(weights=Tensor(rng.uniform(-1, 1, size=(n_classes, dim))),
                   scale=scale, margin=margin)


def composed_aam(embedding, weights, labels, scale, margin):
    """The margin head written on unfused tape ops: the oracle ``ad.aam_cross_entropy`` fuses."""
    labels = np.asarray(labels)
    # One-hot columns of the targets: their transpose picks each target
    # cosine, and they place each margin correction on its target logit.
    one_hot = np.zeros(embedding.shape[:-2] + (weights.shape[0], 1))
    np.put_along_axis(one_hot, labels[..., None, None], 1.0, axis=-2)
    unit_emb = ref.l2_normalize_columns(embedding)
    unit_classes = ref.l2_normalize_columns(ref.transpose(weights))     # embed_dim x n
    cosines = ref.matmul(ref.transpose(unit_classes), unit_emb)          # [B x] n x 1
    target_cos = ref.matmul(Tensor(np.swapaxes(one_hot, -1, -2)), cosines)
    bounded = ref.clamp(target_cos, -COS_BOUND, COS_BOUND)
    target_sin = ref.sqrt(ref.scale_shift(ad.mul(bounded, bounded), -1.0, 1.0))
    margined = ref.sub(ref.scale_shift(target_cos, math.cos(margin)),
                       ref.scale_shift(target_sin, math.sin(margin)))
    delta = ref.sub(margined, target_cos)
    # Past theta = pi - margin, ArcFace's fallback: delta is -margin * sin(pi - margin).
    beyond = target_cos.data <= math.cos(math.pi - margin)
    delta = ref.add(ad.mul(delta, Tensor(np.where(beyond, 0.0, 1.0))),
                   Tensor(np.where(beyond, -margin * math.sin(math.pi - margin), 0.0)))
    logits = ref.scale_shift(ref.add(cosines, ref.matmul(Tensor(one_hot), delta)), scale)
    return ref.cross_entropy_index(logits, labels)


def _run_head(fn, embedding, weights, labels):
    tensors = {"embedding": Tensor(embedding), "weights": Tensor(weights)}
    with Tape() as tape:
        out = fn(tensors["embedding"], tensors["weights"], labels, 30.0, 0.2)
    records = len(tape)
    with tape:
        loss = ad.sum_all(out)
    tape.backward(loss)
    return out.data, {name: t.grad for name, t in tensors.items()}, records


class TestFusedHead:
    @pytest.mark.parametrize("batch", [(), (4,)])
    def test_matches_composed_ops(self, batch):
        rng = np.random.default_rng([18, len(batch)])
        weights = rng.uniform(-1, 1, size=(5, 6))
        embedding = rng.uniform(-1, 1, size=batch + (6, 1))
        labels = np.array([3, 0, 4, 1])[:batch[0]] if batch else np.array(2)
        # The last item lies within 1e-6 of its target row, so its cosine is
        # clamped and the sine path must carry no gradient.
        target_row = weights[labels.reshape(-1)[-1]]
        embedding.reshape(-1, 6, 1)[-1, :, 0] = 2.0 * target_row + 1e-6 * rng.standard_normal(6)
        out, grads, records = _run_head(ad.aam_cross_entropy, embedding, weights, labels)
        ref_out, ref_grads, _ = _run_head(composed_aam, embedding, weights, labels)
        assert records == 1
        assert out.shape == batch + (1, 1)
        assert np.abs(out - ref_out).max() <= 1e-12
        for name, value in (("embedding", embedding), ("weights", weights)):
            assert grads[name].shape == value.shape, name
            assert np.abs(grads[name] - ref_grads[name]).max() <= 1e-12, name

    def test_matches_composed_ops_on_both_sides_of_the_threshold(self):
        # Target cosines above and below cos(pi - margin) = -0.98007 for margin 0.2.
        rng = np.random.default_rng(19)
        weights = rng.uniform(-1, 1, size=(5, 6))
        labels = np.array([1, 3, 0, 4, 2])
        embedding = np.empty((5, 6, 1))
        for item, (label, cos) in enumerate(zip(labels, [0.5, -0.97, -0.9805, -0.99, -0.9999])):
            target = weights[label] / np.linalg.norm(weights[label])
            other = rng.standard_normal(6)
            other -= (other @ target) * target
            other /= np.linalg.norm(other)
            embedding[item, :, 0] = 2.0 * (cos * target + math.sqrt(1.0 - cos * cos) * other)
        out, grads, _ = _run_head(ad.aam_cross_entropy, embedding, weights, labels)
        ref_out, ref_grads, _ = _run_head(composed_aam, embedding, weights, labels)
        assert np.abs(out - ref_out).max() <= 1e-12
        for name in ("embedding", "weights"):
            assert np.abs(grads[name] - ref_grads[name]).max() <= 1e-12, name

    def test_target_logit_never_rises_as_the_target_angle_grows(self):
        # One other class at cosine 0 puts its logit at 0, so each loss is
        # log(1 + exp(-t)) of the target logit t, which gives t back.
        cosines = np.linspace(0.99, -0.9999, 2001)
        embedding = np.stack([cosines, np.sqrt(1.0 - cosines ** 2), np.zeros_like(cosines)],
                             axis=-1)[..., None]
        weights = Tensor([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        loss = ad.aam_cross_entropy(Tensor(embedding), weights, np.zeros(len(cosines), dtype=int),
                                    30.0, 0.2).data[:, 0, 0]
        target_logit = -np.log(np.expm1(loss))
        rises = np.flatnonzero(np.diff(target_logit) > 0.0)
        assert rises.size == 0, f"target logit rises after cosine {cosines[rises[:3]]}"
        # Past the threshold the logit is 30 * (cos - 0.2 * sin(pi - 0.2)).
        tail = cosines <= math.cos(math.pi - 0.2)
        fallback = 30.0 * (cosines[tail] - 0.2 * math.sin(math.pi - 0.2))
        assert np.abs(target_logit[tail] - fallback).max() <= 1e-9

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ad.ShapeError, match=r"\(5, 1\).*\(3, 4\)"):
            ad.aam_cross_entropy(Tensor(np.ones((5, 1))), Tensor(np.ones((3, 4))), 0, 30.0, 0.2)


class TestAamLoss:
    def test_zero_margin_equals_scaled_softmax_ce(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            head = random_head(rng, margin=0.0)
            emb = rng.uniform(-1, 1, size=(6,))
            label = int(rng.integers(0, 5))
            got = aam_loss(Tensor(emb.reshape(-1, 1)), label, head).item()
            want = reference_scaled_softmax_ce(head.weights.data, emb, label, 30.0)
            assert abs(got - want) < 1e-12

    def test_single_class_gives_exact_zero(self):
        rng = np.random.default_rng(12)
        head = random_head(rng, n_classes=1)
        emb = Tensor(rng.uniform(-1, 1, size=(6, 1)))
        assert aam_loss(emb, 0, head).item() == 0.0

    def test_aligned_target_orthogonal_other_closed_form(self):
        # Embedding colinear with the target row, the other row orthogonal:
        # loss = -log(exp(s*cos(m)) / (exp(s*cos(m)) + exp(0))).
        head = AamHead(weights=Tensor([[2.0, 0.0], [0.0, 3.0]]), scale=30.0, margin=0.2)
        emb = Tensor([[0.5], [0.0]])
        expected = math.log1p(math.exp(-30.0 * math.cos(0.2)))
        assert aam_loss(emb, 0, head).item() == pytest.approx(expected, abs=1e-14)

    def test_invariant_to_embedding_rescaling(self):
        rng = np.random.default_rng(13)
        head = random_head(rng)
        emb = rng.uniform(-1, 1, size=(6, 1))
        base = aam_loss(Tensor(emb), 2, head).item()
        for factor in (1e-3, 0.5, 7.0, 1e4):
            scaled = aam_loss(Tensor(emb * factor), 2, head).item()
            assert scaled == pytest.approx(base, rel=1e-12, abs=1e-12)

    def test_margin_monotonicity(self):
        # Holds while target angle + margin stays within [0, pi]; random
        # samples where the target cosine is too negative are skipped.
        rng = np.random.default_rng(14)
        margins = [0.0, 0.1, 0.2, 0.35, 0.5]
        checked = 0
        while checked < 25:
            weights = rng.uniform(-1, 1, size=(4, 5))
            emb = rng.uniform(-1, 1, size=(5, 1))
            label = int(rng.integers(0, 4))
            w = weights[label] / np.linalg.norm(weights[label])
            cos_t = float(w @ (emb[:, 0] / np.linalg.norm(emb)))
            if math.acos(np.clip(cos_t, -1, 1)) + margins[-1] > math.pi:
                continue
            losses = [
                aam_loss(Tensor(emb), label,
                         AamHead(weights=Tensor(weights), scale=30.0, margin=m)).item()
                for m in margins
            ]
            assert all(b >= a - 1e-12 for a, b in zip(losses, losses[1:])), losses
            checked += 1

    def test_gradients_through_normalization_and_margin(self):
        rng = np.random.default_rng(15)
        head = random_head(rng, n_classes=4, dim=5)
        emb = Tensor(rng.uniform(0.2, 1.0, size=(5, 1)))
        err = check_function(lambda: aam_loss(emb, 1, head),
                             {"embedding": emb, "weights": head.weights})
        assert err < 1e-4, f"worst relative error {err}"

    def test_input_validation(self):
        rng = np.random.default_rng(16)
        head = random_head(rng)
        with pytest.raises(ConfigError):
            aam_loss(Tensor(np.ones((6, 1))), 9, head)
        with pytest.raises(NormalizationError):
            aam_loss(Tensor(np.zeros((6, 1))), 0, head)
        bad = AamHead(weights=Tensor(np.zeros((3, 6))), scale=30.0, margin=0.2)
        with pytest.raises(NormalizationError):
            aam_loss(Tensor(np.ones((6, 1))), 0, bad)

    def test_hyperparameter_validation(self):
        # Each range is tested as the valid one, so NaN and infinities fall outside it.
        for fields, message in [(dict(scale=0.0), "scale must lie in (0, inf)"),
                                (dict(scale=math.nan), "scale must lie in (0, inf)"),
                                (dict(scale=math.inf), "scale must lie in (0, inf)"),
                                (dict(margin=2.0), "margin must lie in [0, pi/2)"),
                                (dict(margin=math.nan), "margin must lie in [0, pi/2)")]:
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                AamHead(weights=Tensor(np.ones((2, 2))), **fields)


class TestCosineScore:
    def test_identical_vectors(self):
        v = np.array([0.3, -0.2, 0.9])
        assert cosine_score(v, v) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert cosine_score([1.0, 0.0], [0.0, 2.0]) == pytest.approx(0.0)

    def test_negated_vectors(self):
        v = np.array([0.5, 1.5, -0.7])
        assert cosine_score(v, -v) == pytest.approx(-1.0)

    def test_symmetry(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            a, b = rng.uniform(-1, 1, size=(2, 8))
            assert cosine_score(a, b) == cosine_score(b, a)

    def test_zero_vector_rejected(self):
        with pytest.raises(NormalizationError):
            cosine_score([0.0, 0.0], [1.0, 0.0])

    def test_dimension_mismatch_rejected(self):
        message = "cosine_score: dimension mismatch (2,) vs (3,)"
        with pytest.raises(ad.ShapeError, match=re.escape(message)):
            cosine_score([1.0, 0.0], [1.0, 0.0, 0.0])


@pytest.mark.parametrize("embedding, label, error, message", [
    (np.ones((6, 2)), 0, ad.ShapeError, "aam_loss: expected (embed_dim, 1) embeddings, got (6, 2)"),
    (np.ones(6), 0, ad.ShapeError, "aam_loss: expected (embed_dim, 1) embeddings, got (6,)"),
    (np.ones((6, 1)), 1.5, ConfigError, "aam_loss: need one integer label per embedding, got 1.5"),
    (np.ones((2, 6, 1)), [0], ConfigError, "aam_loss: need one integer label per embedding, got [0]"),
    (np.ones((6, 1)), 5, ConfigError, "label 5 out of range for 5 classes"),
    (np.ones((2, 6, 1)), [0, -1], ConfigError, "label [0, -1] out of range for 5 classes"),
], ids=["two_columns", "rank_one", "float_label", "too_few_labels", "label_past_classes", "negative_label"])
def test_aam_loss_refuses_bad_embedding_shapes_and_labels(embedding, label, error, message):
    head = random_head(np.random.default_rng(18))
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        aam_loss(Tensor(embedding), label, head)
    assert info.type is error

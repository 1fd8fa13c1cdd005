"""Command line end to end: synth, then train, then embed, on a tiny dataset."""

import numpy as np

from avfuse import cli
from avfuse.featio import load_dataset, load_features
from avfuse.model import VerificationModel


def test_synth_train_embed(tmp_path):
    data, run, emb = tmp_path / "data", tmp_path / "run", tmp_path / "emb"
    dims = ["--audio-dim", "3", "--visual-dim", "2", "--segments", "4"]
    assert cli.main(["synth", "--out", str(data), "--speakers", "3", "--utts-per-speaker", "3",
                     "--latent-dim", "2", "--eval-utts-per-speaker", "1", *dims]) == 0
    # batch_size 4 over 9 utterances: embed runs two full batches and a partial one.
    assert cli.main(["train", "--data", str(data), "--out", str(run), "--epochs", "1",
                     "--iterations", "2", "--blstm-hidden", "3", "--asp-hidden", "3",
                     "--embed-dim", "4", "--batch-size", "4", *dims]) == 0
    checkpoint = run / "final.ckpt"
    assert cli.main(["embed", "--checkpoint", str(checkpoint), "--data", str(data),
                     "--out", str(emb)]) == 0

    utterances = load_dataset(data)
    assert sorted(p.name for p in emb.iterdir()) == sorted(f"{u}.emb.avf" for u in utterances)
    model = VerificationModel.from_checkpoint(checkpoint)
    for utt_id, utt in utterances.items():
        stored = load_features(emb / f"{utt_id}.emb.avf")
        assert stored.shape == (4, 1)
        np.testing.assert_allclose(stored[:, 0], model.embed(utt.audio, utt.visual), rtol=1e-6)

"""On-disk formats: AVF1 feature files, trial lists, manifests and dataset loading."""

import os
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from avfuse import cli, featio
from avfuse.autodiff import Constant
from avfuse.checkpoint import load_checkpoint, save_checkpoint
from avfuse.featio import (
    BadMagicError,
    ExtentError,
    FeatureFileError,
    ManifestEntry,
    TrialPair,
    TrialParseError,
    TruncatedPayloadError,
    load_dataset,
    load_features,
    parse_trial_list,
    read_manifest,
    save_features,
    single_precision,
    write_manifest,
    write_trial_list,
)
from avfuse.synthetic import SyntheticSpec, generate_dataset


def avf(rows, cols, values=()):
    return b"AVF1" + struct.pack("<II", rows, cols) + np.asarray(values, "<f4").tobytes()


def test_feature_file_round_trips_at_single_precision(tmp_path):
    matrix = np.random.default_rng(0).standard_normal((3, 5))
    save_features(tmp_path / "m.avf", matrix)
    loaded = load_features(tmp_path / "m.avf")
    assert loaded.dtype == np.float64 and loaded.shape == (3, 5)
    assert np.array_equal(loaded, matrix.astype(np.float32).astype(np.float64))


@pytest.mark.parametrize("blob, error", [
    (b"AVF2" + avf(1, 2, [0.0, 1.0])[4:], BadMagicError),
    (b"AVF1\x01\x00\x00\x00", TruncatedPayloadError),
    (avf(2, 2, [0.0, 1.0, 2.0]), TruncatedPayloadError),
    (avf(0, 3), ExtentError),
    (avf(3, 0), ExtentError),
    (avf(1, 2, [0.0, 1.0]) + b"\x00", FeatureFileError),
], ids=["bad_magic", "short_header", "short_payload", "zero_rows", "zero_cols", "trailing"])
def test_malformed_feature_file_raises_its_error(tmp_path, blob, error):
    (tmp_path / "bad.avf").write_bytes(blob)
    assert_str_and_path_raise_alike(tmp_path / "bad.avf", error, "bad.avf")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_feature_value_names_the_file_and_its_position(tmp_path, bad):
    (tmp_path / "u1.audio.avf").write_bytes(avf(2, 3, [0.0, 1.0, 2.0, 3.0, bad, 5.0]))
    assert_str_and_path_raise_alike(tmp_path / "u1.audio.avf", FeatureFileError,
                                    rf"u1\.audio\.avf: {bad} at index \(1, 1\) is not a finite single-precision")


def assert_str_and_path_raise_alike(path, error, match):
    """``load_features`` of ``path`` as a ``Path`` and as a ``str`` raises ``error`` with one message."""
    messages = []
    for given in (path, str(path)):
        with pytest.raises(error, match=match) as raised:
            load_features(given)
        assert type(raised.value) is error
        messages.append(str(raised.value))
    assert messages[0] == messages[1]


def test_only_rank_two_matrices_are_saved(tmp_path):
    with pytest.raises(FeatureFileError, match="rank 2"):
        save_features(tmp_path / "cube.avf", np.zeros((2, 2, 2)))
    assert not (tmp_path / "cube.avf").exists()


@pytest.mark.parametrize("text, message", [
    ("1 a b\n0 a\n", "line 2: expected 3 fields, got 2"),
    ("\n1 a b\n2 a c\n", "line 3: label must be 0 or 1, got '2'"),
])
def test_malformed_trial_line_names_its_line(tmp_path, text, message):
    (tmp_path / "trials.txt").write_text(text, encoding="utf-8")
    with pytest.raises(TrialParseError, match=message):
        parse_trial_list(tmp_path / "trials.txt")


@pytest.mark.parametrize("text, message", [
    ("u1\tspk\ttrain\nu1\tspk\teval\n", "line 2: duplicate utterance id 'u1'"),
    ("u1\tspk\ttest\n", "line 1: malformed manifest row"),
    ("u1\tspk\ttrain\nu2\t\teval\n", "line 2: empty field in manifest row"),
    ("u1\tspk\ttrain\n../../outside\tspk\teval\n",
     "line 2: utterance id '../../outside' holds a path separator"),
    ("..\\u1\tspk\ttrain\n", re.escape("line 1: utterance id '..\\\\u1' holds a path separator")),
])
def test_malformed_manifest_row_names_its_line(tmp_path, text, message):
    (tmp_path / "manifest.tsv").write_text(text, encoding="utf-8")
    with pytest.raises(TrialParseError, match=message):
        read_manifest(tmp_path / "manifest.tsv")


@pytest.mark.parametrize("name, reader", [("trials.txt", parse_trial_list),
                                          ("manifest.tsv", read_manifest)])
def test_undecodable_text_names_the_file(tmp_path, name, reader):
    (tmp_path / name).write_bytes(b"1 a b\n\xff\xfe\n")
    with pytest.raises(TrialParseError, match=f"{name}: not UTF-8 text at byte 6"):
        reader(tmp_path / name)


@pytest.mark.parametrize("record, text", [
    (TrialPair(True, "u1", "u2"), "TrialPair(is_target=True, enroll_id='u1', test_id='u2')"),
    (ManifestEntry("u1", "spk", "train"), "ManifestEntry(utt_id='u1', speaker_id='spk', split='train')"),
], ids=["trial", "manifest"])
def test_records_are_immutable_hashable_tuples_without_instance_dicts(record, text):
    cls = type(record)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, "other")
    assert tuple(record) == tuple(getattr(record, name) for name in cls._fields)
    twin = cls(*record)
    assert twin == record and hash(twin) == hash(record) and twin is not record
    assert cls(**record._asdict()) == record
    assert not hasattr(record, "__dict__")
    assert repr(record) == text


def test_written_trial_lists_and_manifests_read_back_equal(tmp_path):
    trials = [TrialPair(True, "u1", "u2"), TrialPair(False, "u2", "spk:3/é"), TrialPair(True, "u1", "u1")]
    write_trial_list(tmp_path / "trials.txt", trials)
    assert parse_trial_list(tmp_path / "trials.txt") == trials
    entries = [ManifestEntry("u1", "spk a", "train"), ManifestEntry("u 2", "spk", "eval")]
    write_manifest(tmp_path / "manifest.tsv", entries)
    assert read_manifest(tmp_path / "manifest.tsv") == entries


@pytest.mark.parametrize("bad", ["", "a b", "a\tb", " a", "a\n", "a\rb", "a\u2028b"])
def test_trial_list_writer_refuses_an_id_its_reader_would_split(tmp_path, bad):
    path = tmp_path / "trials.txt"
    with pytest.raises(TrialParseError, match=re.escape(f"{path}: id {bad!r} is empty or holds whitespace")):
        write_trial_list(path, [TrialPair(True, "u1", "u2"), TrialPair(False, "u1", bad)])
    assert not path.exists()


@pytest.mark.parametrize("bad", ["", " u2", "u2 ", "a\tb", "a\nb", "a\rb"])
@pytest.mark.parametrize("field", ["utt_id", "speaker_id"])
def test_manifest_writer_refuses_an_id_its_reader_would_change(tmp_path, bad, field):
    path = tmp_path / "manifest.tsv"
    entry = ManifestEntry("u2", "spk", "eval")._replace(**{field: bad})
    with pytest.raises(TrialParseError, match=re.escape(f"{path}: id {bad!r} is empty, holds a tab")):
        write_manifest(path, [ManifestEntry("u1", "spk", "train"), entry])
    assert not path.exists()


@pytest.mark.parametrize("writer, rows, message", [
    (write_trial_list, [TrialPair(True, "u1", "u2"), TrialPair(2, "u1", "u3")],
     "label must be 0 or 1, got 2"),
    (write_manifest, [ManifestEntry("u1", "spk", "train"), ManifestEntry("u2", "spk", "test")],
     "split must be train or eval, got 'test'"),
    (write_manifest, [ManifestEntry("u1", "spk", "train"), ManifestEntry("u1", "spk", "eval")],
     "duplicate utterance id 'u1'"),
    (write_manifest, [ManifestEntry("u1", "spk", "train"), ManifestEntry("../u2", "spk", "eval")],
     "utterance id '../u2' holds a path separator"),
], ids=["trial_label", "manifest_split", "manifest_repeated_id", "manifest_path_id"])
def test_writers_refuse_a_row_their_reader_would_refuse(tmp_path, writer, rows, message):
    path = tmp_path / "rows.txt"
    with pytest.raises(TrialParseError, match=re.escape(f"{path}: {message}")):
        writer(path, rows)
    assert not path.exists()


@pytest.mark.parametrize("writer, old, new", [
    (write_trial_list, [TrialPair(True, "u1", "u2")], [TrialPair(False, "u1", "u3"), TrialPair(True, "u3", "u4")]),
    (write_manifest, [ManifestEntry("u1", "spk", "train")], [ManifestEntry("u2", "spk", "eval")]),
    (save_features, np.zeros((1, 2)), np.ones((2, 3))),
], ids=["trial_list", "manifest", "features"])
def test_a_failed_write_keeps_the_previous_file_and_leaves_no_temp_file(tmp_path, tear_writes, writer, old, new):
    path = tmp_path / "rows.txt"
    writer(path, old)
    previous = path.read_bytes()
    tear_writes()
    with pytest.raises(OSError, match="No space left"):
        writer(path, new)
    assert path.read_bytes() == previous
    assert os.listdir(tmp_path) == ["rows.txt"]


def test_writers_check_each_distinct_id_once(tmp_path):
    checks = []

    class CountedId(str):
        """An id that records each check of it by a writer."""

        def split(self, *args):
            checks.append(str(self))
            return str(self).split(*args)

        def strip(self, *args):
            checks.append(str(self))
            return str(self).strip(*args)

    a, b, c = CountedId("a"), CountedId("b"), CountedId("spk")
    write_trial_list(tmp_path / "trials.txt", [TrialPair(True, a, b), TrialPair(False, b, a),
                                               TrialPair(True, a, a)])
    assert sorted(checks) == ["a", "b"]
    checks.clear()
    write_manifest(tmp_path / "manifest.tsv", [ManifestEntry(a, c, "train"),
                                               ManifestEntry(b, c, "eval")])
    assert sorted(checks) == ["a", "b", "spk"]


def test_dataset_with_disagreeing_segment_counts_is_rejected(tmp_path):
    (tmp_path / "feats").mkdir()
    write_manifest(tmp_path / "manifest.tsv", [ManifestEntry("u1", "spk", "train")])
    save_features(tmp_path / "feats" / "u1.audio.avf", np.zeros((3, 4)))
    save_features(tmp_path / "feats" / "u1.visual.avf", np.zeros((2, 5)))
    with pytest.raises(FeatureFileError, match=r"u1: segment counts disagree \(4 vs 5\)"):
        load_dataset(tmp_path)


def test_missing_feature_file_is_named(tmp_path, capsys):
    (tmp_path / "feats").mkdir()
    write_manifest(tmp_path / "manifest.tsv", [ManifestEntry("u1", "spk", "train")])
    save_features(tmp_path / "feats" / "u1.audio.avf", np.zeros((3, 4)))
    missing = str(tmp_path / "feats" / "u1.visual.avf")
    with pytest.raises(FileNotFoundError, match=re.escape(missing)):
        load_dataset(tmp_path)
    write_trial_list(tmp_path / "trials.txt", [TrialPair(True, "u1", "u1")])
    assert cli.main(["evaluate", "--data", str(tmp_path), "--trials", str(tmp_path / "trials.txt"),
                     "--system", "audio"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and missing in err


def test_dataset_loads_bitwise_from_a_str_or_a_path(tmp_path):
    entries = generate_dataset(SyntheticSpec(n_speakers=3, utts_per_speaker=3, audio_dim=5,
                                             visual_dim=3, segments=4, latent_dim=2), tmp_path)
    rows = [(e.utt_id, e.speaker_id) for e in entries]
    for loaded in (load_dataset(tmp_path), load_dataset(str(tmp_path))):
        assert [(key, u.utt_id, u.speaker_id) for key, u in loaded.items()] == [(i, i, s) for i, s in rows]
        for utt in loaded.values():
            for modality, dim in (("audio", 5), ("visual", 3)):
                want = load_features(tmp_path / "feats" / f"{utt.utt_id}.{modality}.avf")
                got = getattr(utt, modality)
                assert want.shape == got.shape == (dim, 4) and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


def test_dataset_arrays_are_c_contiguous_float64_that_constants_hold_without_a_copy(tmp_path):
    generate_dataset(SyntheticSpec(n_speakers=2, utts_per_speaker=2, audio_dim=3, visual_dim=2,
                                   segments=4, latent_dim=2, eval_utts_per_speaker=1), tmp_path)
    for utt in load_dataset(tmp_path).values():
        for arr in (utt.audio, utt.visual):
            assert arr.dtype == np.float64 and arr.flags.c_contiguous
            assert Constant(arr).data is arr


GOOD = avf(2, 3, range(6))


def write_dataset(root, pairs):
    """Utterances u0, u1, ... of one speaker whose (audio, visual) files hold ``pairs``'s bytes."""
    (root / "feats").mkdir()
    write_manifest(root / "manifest.tsv", [ManifestEntry(f"u{i}", "spk", "train") for i in range(len(pairs))])
    for i, pair in enumerate(pairs):
        for modality, blob in zip(("audio", "visual"), pair):
            (root / "feats" / f"u{i}.{modality}.avf").write_bytes(blob)


def test_an_empty_manifest_loads_as_no_utterances(tmp_path):
    write_dataset(tmp_path, [])
    assert load_dataset(tmp_path) == {}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dataset_names_a_non_finite_value_in_a_later_file_and_its_position(tmp_path, bad):
    write_dataset(tmp_path, [(GOOD, GOOD), (GOOD, avf(2, 3, [0.0, 1.0, 2.0, 3.0, 4.0, bad])), (GOOD, GOOD)])
    with pytest.raises(FeatureFileError, match=rf"u1\.visual\.avf: {bad} at index \(1, 2\) is not a finite"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("blob, error, message", [
    (b"AVF2" + GOOD[4:], BadMagicError, "bad magic b'AVF2'"),
    (GOOD + b"\x00", FeatureFileError, "1 trailing bytes"),
], ids=["bad_magic", "trailing"])
def test_dataset_names_a_malformed_file_in_a_later_utterance(tmp_path, blob, error, message):
    write_dataset(tmp_path, [(GOOD, GOOD), (GOOD, GOOD), (blob, GOOD)])
    with pytest.raises(error, match=re.escape(f"u2.audio.avf: {message}")) as raised:
        load_dataset(tmp_path)
    assert type(raised.value) is error


def test_dataset_raises_a_structural_fault_before_an_earlier_non_finite_value(tmp_path):
    write_dataset(tmp_path, [(avf(2, 3, [np.nan, 1.0, 2.0, 3.0, 4.0, 5.0]), GOOD), (GOOD, b"AVF2" + GOOD[4:])])
    with pytest.raises(BadMagicError, match=re.escape("u1.visual.avf: bad magic")):
        load_dataset(tmp_path)


def test_dataset_refuses_a_non_finite_value_it_read_even_if_the_file_changed_since(tmp_path, monkeypatch):
    # A file rewritten with finite values after the loader read a NaN from it.
    write_dataset(tmp_path, [(GOOD, avf(2, 3, [np.nan, 1.0, 2.0, 3.0, 4.0, 5.0]))])
    real = featio.load_features

    def rewritten(path):
        (tmp_path / "feats" / "u0.visual.avf").write_bytes(GOOD)
        return real(path)

    monkeypatch.setattr(featio, "load_features", rewritten)
    with pytest.raises(FeatureFileError, match="feature files changed while the dataset loaded"):
        load_dataset(tmp_path)


def test_a_feature_path_that_is_a_directory_is_named(tmp_path):
    write_dataset(tmp_path, [(GOOD, GOOD)])
    path = tmp_path / "feats" / "u0.visual.avf"
    path.unlink()
    path.mkdir()
    with pytest.raises(IsADirectoryError, match=re.escape(str(path))):
        load_features(path)
    with pytest.raises(IsADirectoryError, match=re.escape(str(path))):
        load_dataset(tmp_path)


@pytest.fixture(scope="module")
def blob_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "blob.bin"


# Besides raw bytes, inputs that get past the magic: AVF1 plus anything, and an
# AVCK header whose config length matches the config bytes that follow.
_BLOBS = st.one_of(
    st.binary(max_size=48),
    st.binary(max_size=48).map(lambda rest: b"AVF1" + rest),
    st.tuples(st.binary(max_size=8), st.binary(max_size=40)).map(
        lambda t: b"AVCK" + struct.pack("<II", 1, len(t[0])) + t[0] + t[1]),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(blob=_BLOBS)
def test_arbitrary_bytes_load_or_raise_a_format_error(blob_path, blob):
    # CheckpointError is a FeatureFileError, so both readers share one contract.
    blob_path.write_bytes(blob)
    for reader in (load_features, load_checkpoint):
        try:
            reader(blob_path)
        except FeatureFileError:
            pass


# Float64 arrays of rank 0 to 4, empty extents included, holding NaN, +-Inf, values
# beyond the single-precision range and ordinary ones.
_ARRAYS = hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3),
                     elements=st.one_of(st.floats(-4.0, 4.0), st.sampled_from(
                         [np.nan, np.inf, -np.inf, 1e39, -3.5e38, 3.4028235e38, 1e-46])))

_WRITERS = {
    "features": (save_features, load_features),
    "checkpoint": (lambda path, arr: save_checkpoint(path, {"w": arr}, "seed = 1\n"),
                   lambda path: load_checkpoint(path)[0]["w"]),
}


@pytest.mark.parametrize("writer", sorted(_WRITERS))
@settings(derandomize=True, max_examples=150, deadline=None)
@given(arr=_ARRAYS)
def test_writers_refuse_with_no_file_on_disk_or_read_back_the_codec_rounding(tmp_path_factory, writer, arr):
    save, load = _WRITERS[writer]
    out = tmp_path_factory.mktemp(writer)
    try:
        save(out / "saved", arr)
        loaded = load(out / "saved")
    except FeatureFileError:
        assert os.listdir(out) == []
    else:
        assert loaded.dtype == np.float64
        assert np.array_equal(loaded, single_precision(arr, "arr"))


# Text made of the tokens these formats use, plus raw bytes that need not be UTF-8.
_TEXT_BLOBS = st.one_of(
    st.binary(max_size=48),
    st.lists(st.sampled_from(["0", "1", "2", "u1", "spk", "train", "eval", "0.5", "-1e3", "nan", "inf",
                              "1e999", " ", "\t", "\n", "\r\n", "\x85", "\u2028", "\xe9"]),
             max_size=16).map(lambda tokens: "".join(tokens).encode("utf-8")),
)


@pytest.mark.parametrize("reader", [parse_trial_list, read_manifest], ids=["trial_list", "manifest"])
@settings(derandomize=True, max_examples=150, deadline=None)
@given(blob=_TEXT_BLOBS)
def test_arbitrary_text_parses_or_raises_the_readers_error(blob_path, reader, blob):
    blob_path.write_bytes(blob)
    try:
        reader(blob_path)
    except TrialParseError:
        pass

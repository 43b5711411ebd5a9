import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rawnetlite.augment import AugmentConfig
from rawnetlite.data_pipeline import (
    BatchStats, CompositionError, DataError, DomainCap, ManifestEntry, ManifestError,
    MixSpec, ProtocolViolationError, SplitError, compose_pools, load_clip,
    make_batches, parse_manifest, stratified_split,
)

from conftest import make_wav


def entry(path, label, domain="d", split=None):
    return ManifestEntry(path, label, domain, split)


def synthetic_entries(n_real, n_fake, domain="d", prefix=""):
    return ([entry(f"{prefix}{domain}/real_{i}.wav", 0, domain) for i in range(n_real)]
            + [entry(f"{prefix}{domain}/fake_{i}.wav", 1, domain) for i in range(n_fake)])


# --- parse_manifest -----------------------------------------------------------


def test_parse_valid_manifest(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("path,label,domain\na.wav,real,for\nb.wav,fake,for\nc.wav,real,avspoof\n")
    entries = parse_manifest(p)
    assert len(entries) == 3
    assert entries[0] == ManifestEntry("a.wav", 0, "for", None)
    assert entries[1].label == 1


def test_parse_with_split_column(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("path,label,domain,split\na.wav,real,for,train\nb.wav,fake,for,val\n")
    entries = parse_manifest(p)
    assert entries[0].split == "train"
    assert entries[1].split == "val"


def test_parse_unknown_label_names_line(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("path,label,domain\na.wav,real,for\nb.wav,spoof,for\n")
    with pytest.raises(ManifestError, match="line 3.*spoof"):
        parse_manifest(p)


def test_parse_duplicate_path_cites_both_lines(tmp_path):
    p = tmp_path / "m.csv"
    rows = [f"x{i}.wav,real,for" for i in range(8)]
    rows[7] = rows[2]  # duplicate of line 4 on line 9
    p.write_text("path,label,domain\n" + "\n".join(rows) + "\n")
    with pytest.raises(ManifestError, match="lines 4 and 9"):
        parse_manifest(p)


def test_parse_missing_columns(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("path,label\na.wav,real\n")
    with pytest.raises(ManifestError, match="header"):
        parse_manifest(p)


def test_parse_bad_split_tag(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("path,label,domain,split\na.wav,real,for,dev\n")
    with pytest.raises(ManifestError, match="dev"):
        parse_manifest(p)


@pytest.mark.parametrize("content", [
    b"path,label,domain\n" + b"x" * 200_000 + b",real,for\n",  # over the csv module's field limit
    "path,label,domain\ncaf\u00e9.wav,real,for\n".encode("latin-1"),
], ids=["field_too_long", "not_utf8"])
def test_parse_unreadable_text_is_manifest_error(tmp_path, content):
    p = tmp_path / "m.csv"
    p.write_bytes(content)
    with pytest.raises(ManifestError, match="unreadable"):
        parse_manifest(p)


MANIFEST_HEADS = st.sampled_from([b"", b"path,label,domain\n", b"path,label,domain,split\n"])


@given(head=MANIFEST_HEADS, body=st.binary(max_size=300))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_parse_any_bytes_gives_entries_or_manifest_error(tmp_path, head, body):
    p = tmp_path / "m.csv"
    p.write_bytes(head + body)
    try:
        entries = parse_manifest(p)
    except ManifestError:
        return
    assert all(isinstance(e, ManifestEntry) and e.label in (0, 1) and e.path for e in entries)
    assert len({e.path for e in entries}) == len(entries)


# --- stratified_split ------------------------------------------------------------


def test_split_small_exact():
    entries = synthetic_entries(10, 10)
    train, val, test = stratified_split(entries, (0.8, 0.1, 0.1), seed=0)
    for pool, n in ((train, 16), (val, 2), (test, 2)):
        assert len(pool) == n
        assert sum(1 for e in pool if e.label == 0) == n // 2


def test_split_table_scale():
    entries = synthetic_entries(320, 320)
    train, val, test = stratified_split(entries, (0.8, 0.1, 0.1), seed=1)
    assert (len(train), len(val), len(test)) == (512, 64, 64)


def test_split_partitions_input():
    entries = synthetic_entries(13, 17)
    train, val, test = stratified_split(entries, (0.8, 0.1, 0.1), seed=2)
    all_paths = sorted(e.path for pool in (train, val, test) for e in pool)
    assert all_paths == sorted(e.path for e in entries)


def test_split_deterministic():
    entries = synthetic_entries(25, 25)
    a = stratified_split(entries, seed=3)
    b = stratified_split(entries, seed=3)
    assert a == b
    c = stratified_split(entries, seed=4)
    assert a != c


def test_split_empty_class_rejected():
    with pytest.raises(SplitError):
        stratified_split(synthetic_entries(5, 0), seed=0)


def test_split_bad_ratios_rejected():
    with pytest.raises(SplitError):
        stratified_split(synthetic_entries(5, 5), (0.8, 0.1, 0.2), seed=0)


# --- compose_pools: caps ---------------------------------------------------------


def test_compose_caps_and_disjointness():
    manifests = {
        "for": synthetic_entries(100, 100, "for"),
        "avspoof": synthetic_entries(60, 70, "avspoof"),
    }
    spec = MixSpec((DomainCap("for", 80, 80, "train"),
                    DomainCap("avspoof", 20, 20, "train"),
                    DomainCap("avspoof", 40, 50, "test")), seed=5, primary_domain="for")
    train, val, tests = compose_pools(spec, manifests)
    assert len(train) == 200
    assert len(tests["avspoof"]) == 90
    pools = [{e.path for e in pool} for pool in (train, val, tests["for"], tests["avspoof"])]
    assert sum(map(len, pools)) == len(set().union(*pools))
    avs_train = [e for e in train if e.domain == "avspoof"]
    assert sum(1 for e in avs_train if e.label == 0) == 20


def test_compose_cap_exceeds_availability():
    manifests = {"for": synthetic_entries(10, 10, "for"),
                 "avspoof": synthetic_entries(10, 10, "avspoof")}
    spec = MixSpec((DomainCap("avspoof", 11, 5, "train"),), primary_domain="for")
    with pytest.raises(CompositionError, match="avspoof.*11 real"):
        compose_pools(spec, manifests)


def test_compose_train_plus_test_exceeding_pool():
    manifests = {"for": synthetic_entries(10, 10, "for"),
                 "avspoof": synthetic_entries(10, 10, "avspoof")}
    spec = MixSpec((DomainCap("avspoof", 6, 6, "train"),
                    DomainCap("avspoof", 5, 5, "test")), primary_domain="for")
    with pytest.raises(CompositionError, match=r"'avspoof' \(test\): requested 5 real .* only 4"):
        compose_pools(spec, manifests)


def test_compose_zero_caps_reduce_to_baseline():
    manifests = {"for": synthetic_entries(10, 10, "for"),
                 "avspoof": synthetic_entries(10, 10, "avspoof")}
    baseline = MixSpec((DomainCap("for", 8, 8, "train"),), seed=1, primary_domain="for")
    spec = MixSpec(baseline.caps + (DomainCap("avspoof", 0, 0, "train"),), seed=1,
                   primary_domain="for")
    train, val, tests = compose_pools(spec, manifests)
    assert all(e.domain == "for" for e in train)
    assert set(tests) == {"for"}
    assert (train, val, tests) == compose_pools(baseline, manifests)


def test_compose_deterministic():
    manifests = {"for": synthetic_entries(50, 50, "for"),
                 "other": synthetic_entries(50, 50, "other")}
    caps = (DomainCap("for", 30, 30, "train"), DomainCap("for", 3, 3, "test"),
            DomainCap("other", 10, 10, "train"), DomainCap("other", 10, 10, "test"))
    spec = MixSpec(caps, seed=9, primary_domain="for")
    assert compose_pools(spec, manifests) == compose_pools(spec, manifests)
    reseeded = MixSpec(caps, seed=10, primary_domain="for")
    assert compose_pools(spec, manifests) != compose_pools(reseeded, manifests)


def test_compose_unknown_domain():
    spec = MixSpec((DomainCap("nope", 1, 1, "train"),), primary_domain="for")
    with pytest.raises(CompositionError, match="unknown domain"):
        compose_pools(spec, {"for": synthetic_entries(10, 10, "for")})


def test_cap_validation():
    with pytest.raises(ValueError):
        DomainCap("d", -1, 0, "train")
    with pytest.raises(ValueError):
        DomainCap("d", 1, 1, "validate")


# --- compose_pools ----------------------------------------------------------------


def test_pools_single_manifest_takes_whole_splits():
    entries = synthetic_entries(20, 20)
    train, val, tests = compose_pools(MixSpec(split_seed=2), {"d": entries})
    assert (train, val, tests["d"]) == stratified_split(entries, (0.8, 0.1, 0.1), seed=2)
    assert set(tests) == {"d"}


def test_pools_test_sets_keyed_by_manifest():
    manifests = {"for": synthetic_entries(20, 20, "for"),
                 "other": synthetic_entries(10, 10, "x", prefix="o/")}
    spec = MixSpec((DomainCap("other", 2, 2, "train"), DomainCap("other", 3, 1, "test")),
                   primary_domain="for", scale=2.0)
    train, _, tests = compose_pools(spec, manifests)
    assert len(train) == 32 + 8
    assert set(tests) == {"for", "other"}
    assert [e.label for e in tests["other"]] == [0] * 6 + [1] * 2


def test_pools_val_cap_only_on_primary():
    manifests = {"for": synthetic_entries(20, 20, "for"), "b": synthetic_entries(5, 5, "b")}
    spec = MixSpec((DomainCap("b", 1, 1, "val"),), primary_domain="for")
    with pytest.raises(CompositionError, match="primary"):
        compose_pools(spec, manifests)


@pytest.mark.parametrize("role, pool", [("train", "training"), ("val", "validation")])
def test_pools_empty_train_or_val_pool_is_composition_error(role, pool):
    spec = MixSpec((DomainCap("d", 0, 0, role),), scale=0.5)
    with pytest.raises(CompositionError, match=f"at scale 0.5: the {pool} set is empty"):
        compose_pools(spec, {"d": synthetic_entries(20, 20)})


# --- batching -------------------------------------------------------------------


@pytest.fixture
def wav_corpus(tmp_path):
    """33 tiny WAVs on disk with matching entries."""
    rng = np.random.default_rng(0)
    entries = []
    for i in range(33):
        path = tmp_path / f"clip_{i:02d}.wav"
        x = rng.uniform(-0.8, 0.8, size=(1, 1600))
        path.write_bytes(make_wav(x, 16000, "pcm16"))
        entries.append(ManifestEntry(str(path), i % 2, "d"))
    return entries


def test_batch_sizes_without_augmentation(wav_corpus):
    sizes = [y.size for _, y, _ in make_batches(wav_corpus, batch_size=16, shuffle_seed=0, epoch=1)]
    assert sizes == [16, 16, 1]


def test_batch_sizes_with_augmentation(wav_corpus):
    cfg = AugmentConfig(seed=3)
    sizes = [y.size for _, y, _ in
             make_batches(wav_corpus, batch_size=16, shuffle_seed=0, augment=cfg, epoch=1)]
    assert sizes == [16, 16, 16, 16, 2]


def test_batch_shapes_and_dtypes(wav_corpus):
    x, y, batch = next(iter(make_batches(wav_corpus, batch_size=4, shuffle_seed=1, epoch=0)))
    assert x.shape == (4, 1, 48000) and x.dtype == np.float32
    assert y.shape == (4,) and y.dtype == np.float32
    assert len(batch) == 4


def test_batches_deterministic_including_augmented_bytes(wav_corpus):
    cfg = AugmentConfig(seed=7)

    def run():
        out = []
        for x, y, _ in make_batches(wav_corpus, batch_size=8, shuffle_seed=5,
                                    augment=cfg, epoch=2):
            out.append((x.tobytes(), y.tobytes()))
        return out

    assert run() == run()


def test_batches_differ_across_epochs(wav_corpus):
    def order(epoch):
        return [e.path for _, _, batch in
                make_batches(wav_corpus, batch_size=8, shuffle_seed=5, epoch=epoch)
                for e in batch]

    assert order(1) != order(2)


def test_skip_with_warning_and_strict(wav_corpus, tmp_path):
    bad = tmp_path / "broken.wav"
    bad.write_bytes(b"not a wav at all")
    entries = wav_corpus + [ManifestEntry(str(bad), 0, "d")]
    stats = BatchStats()
    total = sum(y.size for _, y, _ in
                make_batches(entries, batch_size=16, shuffle_seed=0, epoch=0, stats=stats))
    assert total == 33
    assert stats.skipped == [str(bad)]
    with pytest.raises(DataError, match="broken.wav"):
        list(make_batches(entries, batch_size=16, shuffle_seed=0, epoch=0, strict=True))


def test_clip_cache_hits(wav_corpus, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    entry0 = wav_corpus[0]
    load_clip(entry0.path, cache_dir=cache)
    assert len(list(cache.glob("*.f32"))) == 1

    from rawnetlite import data_pipeline

    def boom(_):
        raise AssertionError("preprocess should not run on a cache hit")

    monkeypatch.setattr(data_pipeline.audio_io, "preprocess", boom)
    clip = load_clip(entry0.path, cache_dir=cache)
    assert clip.samples.shape == (48000,)



def test_cache_entry_under_the_unversioned_key_is_a_miss(wav_corpus, tmp_path):
    # a cache written before keys carried the preprocessing version used sha256(raw)
    import hashlib

    from rawnetlite import audio_io

    cache = tmp_path / "cache"
    cache.mkdir()
    raw = open(wav_corpus[0].path, "rb").read()
    old = cache / f"{hashlib.sha256(raw).hexdigest()}.f32"
    audio_io.write_clip(audio_io.FixedClip(np.full(48000, 0.5, dtype=np.float32), peak=0.5), old)
    stats = BatchStats()
    clip = load_clip(wav_corpus[0].path, cache_dir=cache, stats=stats)
    assert (stats.cache_hits, stats.cache_misses) == (0, 1)
    assert np.array_equal(clip.samples, audio_io.preprocess(raw).samples)
    assert len(list(cache.glob("*.f32"))) == 2


def _with_sample(data: bytes, value: float) -> bytes:
    samples = np.frombuffer(data, dtype="<f4").copy()
    samples[1234] = value
    return samples.tobytes()


CORRUPT_ENTRIES = {  # each right size or not, none a clip that preprocess could have written
    "torn": lambda data: data[:100],
    "nan": lambda data: _with_sample(data, np.nan),
    "above_peak": lambda data: _with_sample(data, 1.5),
}


def test_torn_cache_entry_is_rebuilt(wav_corpus, tmp_path, capsys):
    from rawnetlite import audio_io, cli

    raw = open(wav_corpus[0].path, "rb").read()
    fresh = audio_io.preprocess(raw).samples
    for name, corrupt in CORRUPT_ENTRIES.items():
        cache = tmp_path / name / "cache"
        load_clip(wav_corpus[0].path, cache_dir=cache)
        [entry_file] = cache.glob("*.f32")
        entry_file.write_bytes(corrupt(entry_file.read_bytes()))
        with pytest.raises(ValueError, match="clip dump has"):
            audio_io.read_clip(entry_file)
        assert np.array_equal(load_clip(wav_corpus[0].path, cache_dir=cache).samples, fresh), name
        assert np.array_equal(audio_io.read_clip(entry_file).samples, fresh), name  # entry rewritten
        assert [p.name for p in cache.iterdir()] == [entry_file.name]  # no temp file left behind

        entry_file.write_bytes(corrupt(entry_file.read_bytes()))
        stats = BatchStats()
        total = sum(y.size for _, y, _ in make_batches(wav_corpus, cache_dir=cache, stats=stats))
        assert total == 33 and stats.skipped == []
        assert (stats.cache_hits, stats.cache_misses) == (0, 33), name  # the rebuilt entry is a miss

        # `rawnetlite preprocess` counts a rebuilt entry as a miss too
        manifest = tmp_path / name / "m.csv"
        manifest.write_text("path,label,domain\n" + "".join(f"{e.path},fake,d\n" for e in wav_corpus[:8]))
        cache = tmp_path / name / "cache8"
        assert cli.main(["preprocess", str(manifest), str(cache)]) == 0
        entry_file = cache / entry_file.name
        entry_file.write_bytes(corrupt(entry_file.read_bytes()))
        capsys.readouterr()
        assert cli.main(["preprocess", str(manifest), str(cache)]) == 0
        assert "processed 8/8 files (7 cache hits" in capsys.readouterr().out, name

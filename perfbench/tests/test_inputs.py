"""Seeded input generators: reproducible, seed-sensitive, type-exact."""

import math

from perfbench import inputs


def test_same_seed_same_digests():
    assert (
        inputs.zipf_corpus(7, 200).describe()["digest"]
        == inputs.zipf_corpus(7, 200).describe()["digest"]
    )
    assert (
        inputs.document_stream(7, 60).describe()["digest"]
        == inputs.document_stream(7, 60).describe()["digest"]
    )
    assert inputs.describe_spec([inputs.overload_spec(7)]) == inputs.describe_spec(
        [inputs.overload_spec(7)]
    )


def test_different_seed_changes_digests():
    assert (
        inputs.zipf_corpus(7, 200).describe()["digest"]
        != inputs.zipf_corpus(8, 200).describe()["digest"]
    )
    assert (
        inputs.document_stream(7, 60).describe()["digest"]
        != inputs.document_stream(8, 60).describe()["digest"]
    )
    assert (
        inputs.describe_spec([inputs.overload_spec(7)])["digest"]
        != inputs.describe_spec([inputs.overload_spec(8)])["digest"]
    )


def test_scenario_parts_differ_but_share_the_load_shape():
    first, second = inputs.overload_spec(7, 0), inputs.overload_spec(7, 1)
    assert first["seed"] != second["seed"]
    assert first["traffic"] == second["traffic"]
    assert first["chaos"] == second["chaos"]


def test_corpus_covers_every_shape_and_size_range():
    corpus = inputs.zipf_corpus(3, 2000)
    described = corpus.describe()
    assert set(described["shape_mix"]) == {"string", "quote", "records", "blob"}
    assert all(count > 0 for count in described["shape_mix"].values())
    assert described["corpus_size"] > 256  # larger than the span caches
    blobs = [p for p, s in zip(corpus.payloads, corpus.shapes) if s == "blob"]
    assert min(len(b) for b in blobs) >= 1024
    assert max(len(b) for b in blobs) <= 8192


def test_documents_are_unique_and_one_call_in_three_is_a_get():
    stream = inputs.document_stream(5, 300)
    assert len(set(stream.docs)) == len(stream.docs)
    assert stream.pattern.count("get") == 100
    sizes = [len(doc.encode("utf-8")) for doc in stream.docs]
    assert sum(1 for n in sizes if n < 256) > len(sizes) // 2
    assert max(sizes) <= 2300


def test_same_is_type_exact():
    assert inputs.same({"a": [1, 2.5, b"x"]}, {"a": [1, 2.5, b"x"]})
    assert not inputs.same(b"x", "x")
    assert not inputs.same(1, True)
    assert not inputs.same(1, 1.0)
    assert not inputs.same(0.0, -0.0)
    assert inputs.same(math.nan, math.nan)
    assert not inputs.same({"a": 1, "b": 2}, {"b": 2, "a": 1})
    assert not inputs.same([1], (1,))


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert inputs.percentile(values, 50) == 50
    assert inputs.percentile(values, 99) == 99
    assert inputs.percentile(values, 100) == 100
    assert inputs.percentile([4.0], 99) == 4.0

import json
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folkmotif.metrics import MetricsReport, evaluate, render_report, split_dataset


@dataclass
class Item:
    id: int
    label: str


def corpus(**sizes):
    items = []
    for label, n in sizes.items():
        base = len(items)
        items.extend(Item(id=base + i, label=label) for i in range(n))
    return items


def test_split_reproduces_the_published_sizes():
    """75% of 2682+2241 songs must give exactly 3692 train / 1231 test."""
    items = corpus(german=2682, chinese=2241)
    train, test = split_dataset(items, ratio=0.75, seed=0)
    assert (len(train), len(test)) == (3692, 1231)
    assert sum(1 for i in test if i.label == "german") == 671
    assert sum(1 for i in test if i.label == "chinese") == 560


def test_split_stratifies_two_per_class():
    items = corpus(a=2, b=2)
    train, test = split_dataset(items, ratio=0.5, seed=1)
    assert sorted(i.label for i in train) == ["a", "b"]
    assert sorted(i.label for i in test) == ["a", "b"]


def test_split_is_deterministic():
    items = corpus(a=20, b=30)
    first = split_dataset(items, ratio=0.75, seed=42)
    second = split_dataset(items, ratio=0.75, seed=42)
    assert [i.id for i in first[0]] == [i.id for i in second[0]]
    assert [i.id for i in first[1]] == [i.id for i in second[1]]


def test_split_rejects_tiny_class():
    with pytest.raises(ValueError, match="fewer than 2"):
        split_dataset(corpus(a=5, b=1), ratio=0.75, seed=0)


def test_split_refuses_a_class_with_no_training_song():
    with pytest.raises(ValueError, match="^class 'a' gets no training song at ratio 0.1$"):
        split_dataset(corpus(a=2, b=20), ratio=0.1, seed=0)


def test_split_refuses_a_class_with_no_test_song():
    with pytest.raises(ValueError, match="^class 'a' gets no test song at ratio 0.9$"):
        split_dataset(corpus(a=2, b=20), ratio=0.9, seed=0)


def test_split_rejects_bad_ratio():
    with pytest.raises(ValueError, match="ratio"):
        split_dataset(corpus(a=2, b=2), ratio=1.0, seed=0)


@settings(max_examples=40)
@given(
    st.dictionaries(
        st.sampled_from(["a", "b", "c"]),
        st.integers(min_value=2, max_value=40),
        min_size=1,
    ),
    st.floats(min_value=0.1, max_value=0.9),
    st.integers(min_value=0, max_value=1000),
)
def test_split_partition_and_stratification(sizes, ratio, seed):
    """Train and test are disjoint, cover everything, and split per class."""
    items = corpus(**sizes)
    test_share = {label: int(np.floor(n * (1 - ratio) + 0.5)) for label, n in sizes.items()}
    starved = [(label, "training" if test_share[label] == n else "test")
               for label, n in sorted(sizes.items()) if test_share[label] in (0, n)]
    if starved:
        label, side = starved[0]
        with pytest.raises(ValueError, match=f"^class {label!r} gets no {side} song"):
            split_dataset(items, ratio=ratio, seed=seed)
        return
    train, test = split_dataset(items, ratio=ratio, seed=seed)
    train_ids = {i.id for i in train}
    test_ids = {i.id for i in test}
    assert train_ids.isdisjoint(test_ids)
    assert len(train_ids | test_ids) == len(items)
    for label, n in sizes.items():
        assert sum(1 for i in test if i.label == label) == test_share[label]


def test_confusion_arithmetic():
    report = MetricsReport(labels=["x", "y"], confusion=[[9, 1], [2, 8]])
    assert report.accuracy == pytest.approx(0.85)
    assert report.precision["x"] == pytest.approx(9 / 11)
    assert report.precision["y"] == pytest.approx(8 / 9)
    assert report.recall["x"] == pytest.approx(0.9)
    assert report.counts == {"x": 10, "y": 10}


def test_perfect_predictions():
    report = evaluate(["a", "b", "a"], ["a", "b", "a"], labels=["a", "b"])
    assert np.array_equal(report.confusion, [[2, 0], [0, 1]])
    assert report.accuracy == 1.0
    assert set(report.precision.values()) == {1.0}
    assert set(report.recall.values()) == {1.0}


def test_never_predicted_class_flagged():
    report = evaluate(["a", "a", "a", "a"], ["a", "a", "b", "b"], labels=["a", "b"])
    assert report.accuracy == 0.5
    assert report.precision["b"] == 0.0
    assert report.undefined_precision == ["b"]


def test_length_mismatch_is_error():
    with pytest.raises(ValueError, match="predictions"):
        evaluate(["a"], ["a", "b"], labels=["a", "b"])


def test_unknown_label_is_error():
    with pytest.raises(ValueError, match="not in"):
        evaluate(["zzz"], ["a"], labels=["a", "b"])


def test_rates_recomputable_from_persisted_confusion():
    report = evaluate(["a", "b", "b"], ["a", "a", "b"], labels=["a", "b"])
    recovered = MetricsReport.from_json(report.to_json())
    assert recovered.accuracy == report.accuracy
    assert recovered.precision == report.precision
    assert recovered.recall == report.recall
    assert recovered.macro_precision == report.macro_precision


@pytest.mark.parametrize("entry", [1.5, True, "3", -1], ids=["float", "bool", "string", "negative"])
def test_persisted_confusion_entry_must_be_a_count(entry):
    message = f"confusion entries must be non-negative integers, got {entry!r}"
    text = json.dumps({"labels": ["a", "b"], "confusion": [[entry, 0], [1, 2]]})
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        MetricsReport.from_json(text)
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        MetricsReport(labels=["a", "b"], confusion=[[entry, 0], [1, 2]])


def test_json_is_deterministic():
    a = evaluate(["a", "b"], ["a", "b"], labels=["a", "b"]).to_json()
    b = evaluate(["a", "b"], ["a", "b"], labels=["a", "b"]).to_json()
    assert a == b


def test_render_report_mentions_every_class():
    report = evaluate(["a", "a", "a", "a"], ["a", "a", "b", "b"], labels=["a", "b"])
    text = render_report(report, title="demo")
    assert "demo" in text
    assert "accuracy" in text
    for label in ("a", "b"):
        assert label in text
    assert "undefined" in text

from __future__ import annotations

import random

import pytest

from keyrag.bm25 import ScoredDoc
from keyrag.llm import BinaryVerdict
from keyrag.metrics import (
    avg_iteration_count,
    delta_stats,
    doc_contains_answer,
    em_accuracy,
    evaluate,
    exact_match,
    latency_report,
    normalize_answer,
    recall_at_k,
    recall_curve,
    score_mode,
)
from keyrag.pipeline import IterationRecord, RunTrace


def _verdict(choice: bool) -> BinaryVerdict:
    return BinaryVerdict(choice, 0.9 if choice else 0.1, 0.1 if choice else 0.9, "logprob")


def _record(i, answer, choice, keywords=(), doc_ids=(), times=None) -> IterationRecord:
    return IterationRecord(
        index=i,
        keywords=list(keywords),
        expanded_query="q",
        retrieved=[ScoredDoc(d, 1.0) for d in doc_ids],
        answer=answer,
        verdict=None if choice is None else _verdict(choice),
        new_keywords=0,
        new_docs=0,
        wall_time_ms=dict(times or {}),
    )


def _trace(steps, early_stop=False, question="q?") -> RunTrace:
    """steps: list of (answer, choice[, keywords, doc_ids]) tuples."""
    records = []
    for i, step in enumerate(steps):
        answer, choice = step[0], step[1]
        keywords = step[2] if len(step) > 2 else ()
        doc_ids = step[3] if len(step) > 3 else ()
        records.append(_record(i, answer, choice, keywords, doc_ids))
    final = records[-1].answer if records else ""
    last_true = records[-1].verdict.choice if records and records[-1].verdict else False
    return RunTrace(
        question=question,
        method="iterative",
        iterations=records,
        stop_reason="validated_true" if last_true else "budget_exhausted",
        final_answer=final,
        early_stop=early_stop,
    )


# --- normalization ----------------------------------------------------------------

NORMALIZATION_CASES = [
    ("The Eagle!", "eagle"),
    ("Newark  Penn   Station", "newark penn station"),
    ("Sir George Cayley", "sir george cayley"),
    ("A an the", ""),
    ("an apple", "apple"),
    ("THE-THE", "thethe"),  # punctuation is deleted before article removal
    ("the quick brown fox", "quick brown fox"),
    ("it's", "its"),
    ("U.S.A.", "usa"),
    ("  padded  ", "padded"),
    ("Hello, World!", "hello world"),
    ("‘curly quotes’", "curly quotes"),
    ("em—dash", "emdash"),
    ("semi;colon", "semicolon"),
    ("a.b.c", "abc"),
    ("The theatre", "theatre"),
    ("AN ANTELOPE", "antelope"),
    ("42nd Street", "42nd street"),
    ("(parenthetical)", "parenthetical"),
    ("tab\tand\nnewline", "tab and newline"),
    ("", ""),
    ("!!!", ""),
    ("Ångström unit", "ångström unit"),
]


@pytest.mark.parametrize("raw,expected", NORMALIZATION_CASES)
def test_normalize_answer_cases(raw, expected):
    assert normalize_answer(raw) == expected


def test_normalize_answer_idempotent():
    for raw, _ in NORMALIZATION_CASES:
        once = normalize_answer(raw)
        assert normalize_answer(once) == once


# --- exact match -------------------------------------------------------------------


def test_exact_match_normalized_equality():
    assert exact_match("eagle", ["The Eagle"]) is True


def test_exact_match_is_not_containment():
    assert exact_match("Apollo 11 Eagle", ["Eagle"]) is False


def test_exact_match_empty_prediction():
    assert exact_match("", ["x"]) is False


def test_exact_match_any_reference():
    assert exact_match("moon", ["sun", "the moon!"]) is True


def test_exact_match_requires_refs():
    with pytest.raises(ValueError):
        exact_match("x", [])


def test_exact_match_invariant_under_prenormalization():
    pred, refs = "The Eagle!", ["eagle"]
    assert exact_match(pred, refs) == exact_match(normalize_answer(pred), refs)
    assert exact_match(pred, refs) == exact_match(pred, [normalize_answer(r) for r in refs])


# --- containment --------------------------------------------------------------------


def test_doc_contains_answer_substring():
    assert doc_contains_answer("…the lunar module Eagle landed…", ["Eagle"]) is True


def test_doc_contains_answer_word_boundaries():
    assert doc_contains_answer("we attended a party", ["art"]) is False
    assert doc_contains_answer("modern art gallery", ["art"]) is True


def test_doc_contains_answer_multiword():
    assert doc_contains_answer("stops at Newark Penn Station daily", ["Newark Penn Station"]) is True


def test_doc_contains_answer_requires_refs():
    with pytest.raises(ValueError):
        doc_contains_answer("text", [])


# --- recall --------------------------------------------------------------------------


def _texts():
    return {
        "hit": "the lunar module Eagle landed",
        "miss1": "nothing to see here",
        "miss2": "still nothing relevant",
    }


def test_recall_union_over_iterations():
    texts = _texts()
    trace = _trace([
        ("a", False, (), ("miss1", "miss2")),
        ("b", True, (), ("hit", "miss1")),
    ])
    refs = [["Eagle"]]
    assert recall_curve([trace], refs, 3, texts.__getitem__) == [0.0, 1.0]
    assert recall_at_k([trace], refs, 3, texts.__getitem__) == 1.0


def test_recall_all_misses():
    texts = _texts()
    trace = _trace([("a", False, (), ("miss1",)), ("b", False, (), ("miss2",))])
    assert recall_at_k([trace], [["Eagle"]], 3, texts.__getitem__) == 0.0


def test_recall_monotone_in_k():
    texts = _texts()
    trace = _trace([("a", False, (), ("miss1", "miss2", "hit"))])
    refs = [["Eagle"]]
    r1 = recall_at_k([trace], refs, 1, texts.__getitem__)
    r3 = recall_at_k([trace], refs, 3, texts.__getitem__)
    assert r1 <= r3
    assert (r1, r3) == (0.0, 1.0)


def test_recall_monotone_in_horizon():
    texts = _texts()
    traces = [
        _trace([("a", False, (), ("miss1",)), ("b", False, (), ("hit",))]),
        _trace([("a", False, (), ("hit",)), ("b", False, (), ("miss1",))]),
    ]
    refs = [["Eagle"], ["Eagle"]]
    curve = recall_curve(traces, refs, 1, texts.__getitem__)
    assert curve == sorted(curve)
    assert curve == [0.5, 1.0]


# --- scoring modes ---------------------------------------------------------------------


def test_modes_all_correct_case():
    trace = _trace([("X", False), ("Y", True)])
    refs = [["Y"]]
    assert score_mode([trace], refs, "base").accuracy == 1.0
    assert score_mode([trace], refs, "verified_true").accuracy == 1.0
    assert score_mode([trace], refs, "verified_all").accuracy == 1.0


def test_modes_miss_false_case():
    # correct answer judged False; a later wrong answer judged True
    trace = _trace([("Y", False), ("X", True)])
    refs = [["Y"]]
    assert score_mode([trace], refs, "base").accuracy == 0.0
    assert score_mode([trace], refs, "verified_true").accuracy == 0.0
    assert score_mode([trace], refs, "verified_all").accuracy == 1.0


def test_modes_miss_true_case():
    # wrong answer judged True first; correct answer judged True later
    trace = _trace([("X", True), ("Y", True)])
    refs = [["Y"]]
    assert score_mode([trace], refs, "base").accuracy == 0.0
    assert score_mode([trace], refs, "verified_true").accuracy == 1.0
    assert score_mode([trace], refs, "verified_all").accuracy == 1.0


def test_no_true_verdict_scores_zero_in_base():
    trace = _trace([("Y", False), ("Y", False)])
    refs = [["Y"]]
    assert score_mode([trace], refs, "base").accuracy == 0.0
    assert em_accuracy([trace], refs) == 1.0  # plain EM of the final answer


def test_verified_modes_refuse_early_stopped_traces():
    trace = _trace([("Y", True)], early_stop=True)
    with pytest.raises(ValueError, match="early stopping"):
        score_mode([trace], [["Y"]], "verified_true")
    with pytest.raises(ValueError, match="early stopping"):
        score_mode([trace], [["Y"]], "verified_all")
    # base is fine on early-stopped traces
    assert score_mode([trace], [["Y"]], "base").accuracy == 1.0


def test_mode_monotonicity_random_traces():
    rng = random.Random(42)
    answers = ["alpha", "beta", "gamma"]
    traces, refs = [], []
    for _ in range(300):
        steps = [(rng.choice(answers), rng.random() < 0.5) for _ in range(5)]
        traces.append(_trace(steps))
        refs.append([rng.choice(answers)])
    base = score_mode(traces, refs, "base").accuracy
    v_true = score_mode(traces, refs, "verified_true").accuracy
    v_all = score_mode(traces, refs, "verified_all").accuracy
    assert base <= v_true <= v_all


def test_per_iteration_accuracy_nondecreasing():
    rng = random.Random(9)
    answers = ["a", "b"]
    traces = [
        _trace([(rng.choice(answers), rng.random() < 0.5) for _ in range(5)]) for _ in range(100)
    ]
    refs = [["a"]] * 100
    for mode in ("base", "verified_true", "verified_all"):
        curve = score_mode(traces, refs, mode).per_iteration_accuracy
        assert len(curve) == 5
        assert curve == sorted(curve)


def test_alignment_checked():
    with pytest.raises(ValueError, match="traces"):
        score_mode([_trace([("a", True)])], [], "base")


# --- deltas -------------------------------------------------------------------------


def test_delta_keywords_set_difference():
    trace = _trace([
        ("x", False, ("a", "b"), ()),
        ("x", False, ("b", "c", "d"), ()),
    ])
    stats = delta_stats([trace])
    assert stats.keyword_step_means == {2: 2.0}


def test_delta_docs_identical_sets_zero():
    trace = _trace([
        ("x", False, (), ("d1", "d2")),
        ("x", False, (), ("d1", "d2")),
        ("x", False, (), ("d2", "d1")),
    ])
    stats = delta_stats([trace])
    assert stats.doc_step_means == {2: 0.0, 3: 0.0}
    assert stats.doc_total == 0.0


def test_delta_totals_and_mean_identities():
    traces = [
        _trace([
            ("x", False, ("a", "b"), ("d1",)),
            ("x", False, ("b", "c"), ("d2",)),
            ("x", False, ("c", "d", "e"), ("d1", "d3")),
        ]),
        _trace([
            ("x", False, ("p",), ("d1",)),
            ("x", False, ("p", "q"), ("d1",)),
            ("x", False, ("q",), ("d4",)),
        ]),
    ]
    stats = delta_stats(traces)
    # step 2: trace1 adds {c}=1, trace2 adds {q}=1 -> mean 1.0
    # step 3: trace1 adds {d,e}=2, trace2 adds nothing -> mean 1.0
    assert stats.keyword_step_means == {2: 1.0, 3: 1.0}
    assert stats.doc_step_means == {2: 0.5, 3: 1.0}
    assert stats.keyword_total == pytest.approx(sum(stats.keyword_step_means.values()))
    assert stats.keyword_mean == pytest.approx(stats.keyword_total / 2)
    assert stats.doc_total == pytest.approx(sum(stats.doc_step_means.values()))
    assert stats.doc_mean == pytest.approx(stats.doc_total / 2)


def test_delta_case_insensitive_keywords():
    trace = _trace([
        ("x", False, ("Apollo",), ()),
        ("x", False, ("APOLLO", "eagle"), ()),
    ])
    assert delta_stats([trace]).keyword_step_means == {2: 1.0}


def test_delta_shorter_traces_excluded_from_later_steps():
    traces = [
        _trace([("x", False, ("a",), ()), ("x", False, ("b",), ())]),
        _trace([("x", True, ("a",), ())]),  # stopped after one iteration
    ]
    stats = delta_stats(traces)
    assert stats.keyword_step_means == {2: 1.0}  # only the first trace reaches step 2


# --- latency ---------------------------------------------------------------------------


def test_latency_means_and_total():
    t1 = RunTrace("q", "iterative",
                  [_record(0, "a", False, times={"retrieval": 10.0, "answer_generation": 5.0})],
                  "budget_exhausted", "a", False)
    t2 = RunTrace("q", "iterative",
                  [_record(0, "a", False, times={"retrieval": 30.0, "answer_generation": 5.0})],
                  "budget_exhausted", "a", False)
    report = latency_report([t1, t2])
    assert report["retrieval"] == pytest.approx(0.02)
    assert report["answer_generation"] == pytest.approx(0.005)
    assert report["total"] == pytest.approx(sum(v for k, v in report.items() if k != "total"))


def test_latency_sums_across_iterations():
    trace = RunTrace("q", "iterative",
                     [_record(0, "a", False, times={"retrieval": 10.0}),
                      _record(1, "a", False, times={"retrieval": 20.0})],
                     "budget_exhausted", "a", False)
    assert latency_report([trace])["retrieval"] == pytest.approx(0.03)


def test_latency_vanilla_rows_absent():
    trace = RunTrace("q", "vanilla",
                     [_record(0, "a", None, times={"answer_generation": 8.0})],
                     None, "a", False)
    report = latency_report([trace])
    assert "retrieval" not in report
    assert "answer_validation" not in report
    assert set(report) == {"answer_generation", "total"}


# --- aggregates --------------------------------------------------------------------------


def test_avg_iteration_count():
    traces = [
        _trace([("a", True)]),
        _trace([("a", False), ("b", True)]),
        _trace([("a", False)] * 5),
    ]
    assert avg_iteration_count(traces) == pytest.approx(8 / 3)


def test_avg_iterations_equals_budget_when_never_validated():
    traces = [_trace([("a", False)] * 4) for _ in range(3)]
    assert avg_iteration_count(traces) == 4.0


def test_evaluate_with_recall():
    texts = {"hit": "the Eagle landed", "miss": "nothing"}
    trace = _trace([("Eagle", True, (), ("miss", "hit"))])
    result = evaluate([trace], [["Eagle"]], mode="base", recall_ks=(1, 2),
                      text_lookup=texts.__getitem__)
    assert result.accuracy == 1.0
    assert result.recall_at[1] == 0.0  # only the top-1 doc considered
    assert result.recall_at[2] == 1.0
    assert result.recall_curves[2] == [1.0]
    d = result.to_dict()
    assert d["recall_at"]["2"] == 1.0


def test_evaluate_recall_ks_1_3_5_report_unchanged():
    # Reference: the recall report computed doc by doc with doc_contains_answer,
    # for each k, iteration and question, as evaluate did before it cached texts.
    rng = random.Random(5)
    texts = {f"d{i}": rng.choice(["the Eagle landed", "nothing here", "Apollo, the 11th!",
                                  "a lunar module", "Newark Penn Station"]) for i in range(12)}
    traces = [
        _trace([("x", rng.random() < 0.3, (), tuple(rng.sample(sorted(texts), 5)))
                for _ in range(rng.randint(1, 5))])
        for _ in range(30)
    ]
    refs = [[rng.choice(["Eagle", "apollo 11th", "lunar", "Penn"])] for _ in traces]

    def reference_curve(k):
        horizon = max(len(t.iterations) for t in traces)
        firsts = [next((h for h, rec in enumerate(t.iterations, 1)
                        if any(doc_contains_answer(texts[d.chunk_id], r) for d in rec.retrieved[:k])),
                       None) for t, r in zip(traces, refs)]
        return [sum(f is not None and f <= h for f in firsts) / len(traces)
                for h in range(1, horizon + 1)]

    looked_up = []

    def lookup(chunk_id):
        looked_up.append(chunk_id)
        return texts[chunk_id]

    report = evaluate(traces, refs, mode="base", recall_ks=(1, 3, 5), text_lookup=lookup).to_dict()
    want = {k: reference_curve(k) for k in (1, 3, 5)}
    assert report["recall_curves"] == {str(k): c for k, c in want.items()}
    assert report["recall_at"] == {str(k): c[-1] for k, c in want.items()}
    assert report["recall_mean_over_horizons"] == {str(k): sum(c) / len(c) for k, c in want.items()}
    assert len(looked_up) == len(set(looked_up))  # each chunk text normalized once per call


def test_evaluate_recall_requires_lookup():
    trace = _trace([("a", True)])
    with pytest.raises(ValueError, match="lookup"):
        evaluate([trace], [["a"]], recall_ks=(1,))

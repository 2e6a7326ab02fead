from __future__ import annotations

import threading

import pytest

from keyrag.llm import (
    BinaryVerdict,
    ChatMessage,
    MockBackend,
    ScriptEntry,
    ScriptError,
    forced_choice,
    verdict_from_text,
)


def _msgs(user: str) -> list[ChatMessage]:
    return [ChatMessage("system", "sys"), ChatMessage("user", user)]


# --- message validation ---------------------------------------------


def test_chat_message_requires_content():
    with pytest.raises(ValueError):
        ChatMessage("user", "")


def test_chat_message_role_restricted():
    with pytest.raises(ValueError):
        ChatMessage("assistant", "hi")


# --- mock ----------------------------------------------------------------------


def test_mock_first_match_consumed_in_order():
    mock = MockBackend([
        ScriptEntry("Generate a list", '["Moon landing"]'),
        ScriptEntry("Generate a list", '["Second call"]'),
    ])
    assert mock.complete(_msgs("Generate a list of keywords"), 30) == '["Moon landing"]'
    assert mock.complete(_msgs("Generate a list of keywords"), 30) == '["Second call"]'


def test_mock_exhaustion_error():
    mock = MockBackend([ScriptEntry("Generate a list", "x")])
    mock.complete(_msgs("Generate a list"), 30)
    with pytest.raises(ScriptError, match="exhausted"):
        mock.complete(_msgs("Generate a list"), 30)


def test_mock_no_match_names_prompt():
    mock = MockBackend([ScriptEntry("something else", "x")])
    with pytest.raises(ScriptError, match="some unmatched prompt"):
        mock.complete(_msgs("some unmatched prompt text"), 30)


def test_mock_empty_messages_rejected():
    mock = MockBackend([ScriptEntry("", "x")])
    with pytest.raises(ValueError):
        mock.complete([], 30)


def test_mock_determinism():
    script = [
        ScriptEntry("alpha", "one"),
        ScriptEntry("beta", "two"),
        ScriptEntry("alpha", "three"),
    ]
    outputs = []
    for _ in range(2):
        mock = MockBackend(script)
        outputs.append([
            mock.complete(_msgs("alpha prompt"), 30),
            mock.complete(_msgs("beta prompt"), 30),
            mock.complete(_msgs("alpha prompt"), 30),
        ])
    assert outputs[0] == outputs[1] == ["one", "two", "three"]


def test_mock_thread_safety_total_consumption():
    script = [ScriptEntry("go", f"r{i}") for i in range(50)]
    mock = MockBackend(script)
    results = []
    lock = threading.Lock()

    def worker():
        for _ in range(10):
            out = mock.complete(_msgs("go now"), 30)
            with lock:
                results.append(out)

    threads = [threading.Thread(target=worker) for _ in range(5)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(results) == sorted(f"r{i}" for i in range(50))
    assert len(mock.calls) == 50


def test_mock_script_file_round_trip(tmp_path):
    path = tmp_path / "script.jsonl"
    path.write_text(
        '{"match": "keywords", "response": "[\\"a\\"]"}\n'
        '{"match": "correct", "p_true": 0.9, "p_false": 0.1}\n',
        encoding="utf-8",
    )
    mock = MockBackend.from_script_file(path)
    assert mock.complete(_msgs("give me keywords"), 30) == '["a"]'
    verdict = forced_choice(mock, _msgs("is it correct?"), 30)
    assert verdict.choice is True and verdict.method == "logprob"


# --- forced choice ----------------------------------------------------------------


def test_forced_choice_logprob_argmax():
    mock = MockBackend([ScriptEntry("correct", p_true=0.7, p_false=0.3)])
    verdict = forced_choice(mock, _msgs("is it correct?"), 30)
    assert verdict == BinaryVerdict(True, 0.7, 0.3, "logprob")


def test_forced_choice_tie_goes_false():
    mock = MockBackend([ScriptEntry("correct", p_true=0.5, p_false=0.5)])
    assert forced_choice(mock, _msgs("is it correct?"), 30).choice is False


def test_forced_choice_text_fallback():
    mock = MockBackend([ScriptEntry("correct", " False.")])
    verdict = forced_choice(mock, _msgs("is it correct?"), 30)
    assert verdict.choice is False
    assert verdict.method == "text-fallback"
    assert not verdict.flagged


def test_forced_choice_unparseable_text_flags_false():
    mock = MockBackend([ScriptEntry("correct", "I cannot say")])
    verdict = forced_choice(mock, _msgs("is it correct?"), 30)
    assert verdict.choice is False
    assert verdict.method == "text-fallback"
    assert verdict.flagged


def test_forced_choice_counts_one_call_either_path():
    probed = MockBackend([ScriptEntry("correct", p_true=0.9, p_false=0.1)])
    forced_choice(probed, _msgs("is it correct?"), 30)
    assert len(probed.calls) == 1
    texty = MockBackend([ScriptEntry("correct", "True")])
    forced_choice(texty, _msgs("is it correct?"), 30)
    assert len(texty.calls) == 1


def test_forced_choice_empty_messages():
    mock = MockBackend([ScriptEntry("", "True")])
    with pytest.raises(ValueError):
        forced_choice(mock, [], 30)


def test_forced_choice_probe_symmetric():
    # Same probabilities regardless of which option the caller thinks of first;
    # the verdict depends only on the (p_true, p_false) pair.
    for p_true, p_false, expected in [(0.9, 0.1, True), (0.1, 0.9, False)]:
        mock = MockBackend([ScriptEntry("correct", p_true=p_true, p_false=p_false)])
        verdict = forced_choice(mock, _msgs("is it correct?"), 30)
        assert verdict.choice is expected
        assert verdict.p_true == p_true and verdict.p_false == p_false


# --- word scan --------------------------------------------------------------------


def test_verdict_from_text_finds_first_mapping_word():
    assert verdict_from_text("Well, true I think").choice is True
    assert verdict_from_text("the statement is false, not true").choice is False
    assert verdict_from_text("TRUE").choice is True


def test_verdict_from_text_ignores_non_mapping_words():
    verdict = verdict_from_text("maybe; unclear!")
    assert verdict.choice is False and verdict.flagged

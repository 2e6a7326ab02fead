from __future__ import annotations

import threading

import pytest

from keyrag.llm import ChatMessage, MockBackend, ScriptEntry, ScriptError

from .helpers import RecordingMock


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
    mock = RecordingMock(script)
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
    assert mock.choice_probs(_msgs("is it correct?")) == (0.9, 0.1)


def test_mock_script_file_takes_integer_probabilities_and_skips_blank_lines(tmp_path):
    path = tmp_path / "script.jsonl"
    path.write_text('\n{"match": "correct", "p_true": 1, "p_false": null}\n  \n',
                    encoding="utf-8")
    probs = MockBackend.from_script_file(path).choice_probs(_msgs("is it correct?"))
    assert probs == (1, 0.0) and type(probs[0]) is int


# --- probe ------------------------------------------------------------------------


def test_mock_probe_takes_an_entry_with_probabilities():
    mock = RecordingMock([ScriptEntry("correct", p_true=0.7, p_false=0.3)])
    assert mock.choice_probs(_msgs("is it correct?")) == (0.7, 0.3)
    assert mock.calls == ["is it correct?"]
    with pytest.raises(ScriptError, match="exhausted"):
        mock.choice_probs(_msgs("is it correct?"))


def test_mock_probe_leaves_a_text_entry_for_complete():
    mock = RecordingMock([ScriptEntry("correct", " False.")])
    assert mock.choice_probs(_msgs("is it correct?")) is None
    assert mock.calls == []
    assert mock.complete(_msgs("is it correct?"), 30) == " False."
    assert mock.calls == ["is it correct?"]


def test_mock_probe_reads_a_missing_option_as_zero():
    mock = MockBackend([ScriptEntry("correct", p_true=0.4)])
    assert mock.choice_probs(_msgs("is it correct?")) == (0.4, 0.0)


def test_mock_probe_rejects_empty_messages():
    mock = MockBackend([ScriptEntry("", p_true=0.9, p_false=0.1)])
    with pytest.raises(ValueError):
        mock.choice_probs([])


def test_mock_probe_names_an_unmatched_prompt():
    mock = MockBackend([ScriptEntry("something else", p_true=0.9, p_false=0.1)])
    with pytest.raises(ScriptError, match="some unmatched prompt"):
        mock.choice_probs(_msgs("some unmatched prompt text"))

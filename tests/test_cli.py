from __future__ import annotations

import functools
import hashlib
import json
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import CancelledError

import pytest

from keyrag import bm25, cli
from keyrag.bm25 import load_index
from keyrag.cli import main, read_traces
from keyrag.llm import HttpBackend, MockBackend

from .helpers import (
    MOON_QUESTION,
    FaultServer,
    StubLlmServer,
    completion_body,
    http_response,
    keyrag_env,
    logprob_body,
    write_jsonl,
)


@pytest.fixture()
def corpus_path(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [
        {"id": "apollo", "title": "Apollo 11",
         "text": "The Apollo 11 lunar module Eagle landed the first humans on the Moon in 1969."},
        {"id": "challenger", "title": "Challenger",
         "text": "The Space Shuttle Challenger broke apart shortly after launch in 1986."},
    ])
    return path


@pytest.fixture()
def dataset_path(tmp_path):
    path = tmp_path / "qa.jsonl"
    write_jsonl(path, [
        {"question": "What is the name of the spacecraft that first landed humans on the Moon?",
         "answers": ["Eagle"]},
    ])
    return path


@pytest.fixture()
def index_path(tmp_path, corpus_path):
    path = tmp_path / "corpus.idx"
    assert main(["index", "--corpus", str(corpus_path), "--out", str(path)]) == 0
    return path


@pytest.fixture()
def script_path(tmp_path):
    path = tmp_path / "script.jsonl"
    write_jsonl(path, [
        {"match": "Generate a list of important keywords",
         "response": '["Moon landing", "Spacecraft", "First humans"]'},
        {"match": "Here is a question", "response": "Space Shuttle Challenger"},
        {"match": "Is the following answer correct", "p_true": 0.2, "p_false": 0.8},
        {"match": "Refine the keyword selection", "response": '["Apollo 11", "Lunar module name"]'},
        {"match": "Here is a question", "response": "Eagle"},
        {"match": "Is the following answer correct", "p_true": 0.9, "p_false": 0.1},
    ])
    return path


# --- index ---------------------------------------------------------------------


def test_index_builds_and_reports(capsys, tmp_path, corpus_path):
    out = tmp_path / "built.idx"
    code = main(["index", "--corpus", str(corpus_path), "--out", str(out)])
    assert code == 0
    assert out.exists()
    printed = capsys.readouterr().out
    assert "2 documents" in printed and "chunks" in printed


def test_index_usage_error_on_bad_overlap(tmp_path, corpus_path):
    out = tmp_path / "bad.idx"
    code = main(["index", "--corpus", str(corpus_path), "--out", str(out),
                 "--chunk-size", "256", "--overlap", "300"])
    assert code == 2
    assert not out.exists()


def test_index_refuses_overwrite_without_force(tmp_path, corpus_path, index_path):
    code = main(["index", "--corpus", str(corpus_path), "--out", str(index_path)])
    assert code == 1
    code = main(["index", "--corpus", str(corpus_path), "--out", str(index_path), "--force"])
    assert code == 0


def test_index_missing_corpus(tmp_path):
    code = main(["index", "--corpus", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "x.idx")])
    assert code == 1


def test_index_names_the_line_of_a_lone_surrogate(capsys, tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": "a", "text": "fine"}\n{"id": "b", "text": "bad \\ud800"}\n',
                      encoding="utf-8")
    out = tmp_path / "x.idx"
    assert main(["index", "--corpus", str(corpus), "--out", str(out)]) == 1
    assert "line 2: lone surrogate" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["overlap", "k1", "out-exists", "corpus-json", "stopwords"])
def test_index_failure_prints_its_message_and_exit_code(capsys, tmp_path, corpus_path, case):
    out = tmp_path / "x.idx"
    stopwords = tmp_path / "missing-stopwords.txt"
    argv = ["index", "--corpus", str(corpus_path), "--out", str(out)]
    if case == "overlap":
        argv += ["--chunk-size", "50", "--overlap", "50"]
        expected = 2, "usage error: need 0 <= overlap < chunk_size, got overlap=50 chunk_size=50"
    elif case == "k1":
        argv += ["--k1", "-1"]
        expected = 2, "usage error: k1 must be nonnegative, got -1.0"
    elif case == "out-exists":
        out.write_text("an earlier index", encoding="utf-8")
        expected = 1, f"error: {out} already exists (use --force to overwrite)"
    elif case == "corpus-json":
        corpus_path.write_text('{"id": "a", "text": "fine"}\nnot json\n', encoding="utf-8")
        expected = 1, "error: line 2: invalid JSON (Expecting value)"
    else:
        argv += ["--stopwords", str(stopwords)]
        expected = 1, f"error: [Errno 2] No such file or directory: '{stopwords}'"
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (expected[0], expected[1] + "\n")
    assert captured.out == ""
    if case == "out-exists":
        assert out.read_text(encoding="utf-8") == "an earlier index"
    else:
        assert not out.exists()


# --- run -----------------------------------------------------------------------


def test_run_iterative_with_mock(tmp_path, dataset_path, index_path, script_path):
    out = tmp_path / "traces.jsonl"
    code = main([
        "run", "--dataset", str(dataset_path), "--index", str(index_path),
        "--method", "iterative", "--mock-script", str(script_path), "--out", str(out),
    ])
    assert code == 0
    header, rows = read_traces(out)
    assert header["config"]["method"] == "iterative"
    assert header["config"]["index_sha256"]
    assert len(rows) == 1
    qid, trace = rows[0]
    assert qid == 0
    assert len(trace.iterations) == 2
    assert trace.final_answer == "Eagle"
    assert trace.stop_reason == "validated_true"


def test_run_header_records_the_sha256_of_the_loaded_index(tmp_path, dataset_path, index_path,
                                                          script_path):
    header, _ = read_traces(_run_traces(tmp_path, dataset_path, index_path, script_path))
    digest = hashlib.sha256(index_path.read_bytes()).hexdigest()
    assert header["config"]["index_sha256"] == load_index(index_path).sha256 == digest


def test_run_opens_the_index_file_once(tmp_path, dataset_path, index_path, script_path):
    code = (
        "import os, sys\n"
        "opened = []\n"
        "sys.addaudithook(lambda event, args: event == 'open' and opened.append(args[0]))\n"
        "from keyrag.cli import main\n"
        "assert main(sys.argv[2:]) == 0\n"
        "paths = [os.fsdecode(p) for p in opened if isinstance(p, (str, bytes))]\n"
        "print(paths.count(sys.argv[1]))\n"
    )
    argv = ["run", "--dataset", str(dataset_path), "--index", str(index_path),
            "--mock-script", str(script_path), "--out", str(tmp_path / "traces.jsonl")]
    done = subprocess.run([sys.executable, "-c", code, str(index_path), *argv],
                          env=keyrag_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1"]


def test_run_vanilla_three_questions(tmp_path):
    dataset = tmp_path / "qa3.jsonl"
    write_jsonl(dataset, [{"question": f"Question {i}?", "answers": ["x"]} for i in range(3)])
    script = tmp_path / "script.jsonl"
    write_jsonl(script, [{"match": "Here is a question", "response": "x"}] * 3)
    out = tmp_path / "traces.jsonl"
    code = main(["run", "--dataset", str(dataset), "--method", "vanilla",
                 "--mock-script", str(script), "--out", str(out)])
    assert code == 0
    _, rows = read_traces(out)
    assert len(rows) == 3
    assert all(trace.iterations[0].retrieved == [] for _, trace in rows)


@pytest.mark.parametrize("source", ["flag", "config"])
def test_run_refuses_workers_below_one_and_keeps_the_output_file(
    capsys, tmp_path, dataset_path, index_path, script_path, monkeypatch, source
):
    out = tmp_path / "existing.jsonl"
    out.write_bytes(b"earlier traces\n")
    monkeypatch.setattr(cli, "_build_backends", lambda *args: pytest.fail("backend made"))
    argv = ["run", "--dataset", str(dataset_path), "--index", str(index_path),
            "--mock-script", str(script_path), "--out", str(out)]
    if source == "flag":
        argv += ["--workers", "0"]
    else:
        config = tmp_path / "keyrag.conf"
        config.write_text("workers = -1\n", encoding="utf-8")
        argv += ["--config", str(config)]
    assert main(argv) == 2
    assert "workers must be >= 1" in capsys.readouterr().err
    assert out.read_bytes() == b"earlier traces\n"


@pytest.mark.parametrize("flags, config_text, message", [
    pytest.param(["--top-k", "0"], None, "top_k must be >= 1, got 0", id="top-k"),
    pytest.param(["--max-iterations", "0"], None, "max_iterations must be >= 1, got 0",
                 id="max-iterations"),
    pytest.param([], "workers = two\n", "workers must be an integer, got 'two' (in {config})",
                 id="config-workers"),
    pytest.param([], "top_k = 2.5\n", "top_k must be an integer, got '2.5' (in {config})",
                 id="config-top_k"),
    pytest.param([], "timeout = 0\n", "timeout must be finite and > 0, got '0' (in {config})",
                 id="config-timeout"),
    pytest.param(["--limit", "-1"], None, "--limit must be >= 1, got -1", id="limit-negative"),
    pytest.param(["--limit", "0"], None, "--limit must be >= 1, got 0", id="limit-zero"),
])
def test_run_refuses_a_bad_setting_naming_it_and_keeps_the_output_file(
    capsys, tmp_path, dataset_path, index_path, script_path, monkeypatch,
    flags, config_text, message,
):
    out = tmp_path / "existing.jsonl"
    out.write_bytes(b"earlier traces\n")
    monkeypatch.setattr(cli, "_build_backends", lambda *args: pytest.fail("backend made"))
    argv = ["run", "--dataset", str(dataset_path), "--index", str(index_path),
            "--mock-script", str(script_path), "--out", str(out), *flags]
    config = tmp_path / "keyrag.conf"
    if config_text is not None:
        config.write_text(config_text, encoding="utf-8")
        argv += ["--config", str(config)]
    assert main(argv) == 2
    assert f"usage error: {message.format(config=config)}\n" in capsys.readouterr().err
    assert out.read_bytes() == b"earlier traces\n"


def test_index_refuses_a_limit_below_one_and_keeps_the_index(capsys, tmp_path, corpus_path,
                                                            index_path):
    before = index_path.read_bytes()
    code = main(["index", "--corpus", str(corpus_path), "--out", str(index_path),
                 "--force", "--limit", "0"])
    assert code == 2
    assert "--limit must be >= 1, got 0" in capsys.readouterr().err
    assert index_path.read_bytes() == before


def test_run_refuses_a_lone_surrogate_question_and_keeps_the_output_file(
    capsys, tmp_path, index_path, script_path
):
    dataset = tmp_path / "qa.jsonl"
    dataset.write_text('{"question": "Q1?", "answers": ["a"]}\n'
                       '{"question": "Q2 \\ud800?", "answers": ["a"]}\n', encoding="utf-8")
    out = tmp_path / "existing.jsonl"
    out.write_bytes(b"earlier traces\n")
    code = main(["run", "--dataset", str(dataset), "--index", str(index_path),
                 "--mock-script", str(script_path), "--out", str(out)])
    assert code == 1
    assert "line 2: lone surrogate" in capsys.readouterr().err
    assert out.read_bytes() == b"earlier traces\n"


def test_run_requires_index_for_rag(tmp_path, dataset_path, script_path):
    code = main(["run", "--dataset", str(dataset_path), "--method", "rag",
                 "--mock-script", str(script_path), "--out", str(tmp_path / "t.jsonl")])
    assert code == 2


def test_run_requires_backend(tmp_path, dataset_path, index_path, monkeypatch):
    monkeypatch.delenv("KEYRAG_ENDPOINT", raising=False)
    code = main(["run", "--dataset", str(dataset_path), "--index", str(index_path),
                 "--out", str(tmp_path / "t.jsonl")])
    assert code == 2


def test_run_unreachable_endpoint_errors(tmp_path, dataset_path, index_path, monkeypatch):
    monkeypatch.setattr(cli, "HttpBackend", functools.partial(HttpBackend, backoff=0.0))
    out = tmp_path / "traces.jsonl"
    code = main([
        "run", "--dataset", str(dataset_path), "--index", str(index_path),
        "--endpoint", "http://127.0.0.1:9/v1", "--model", "m", "--out", str(out),
    ])
    assert code == 1  # every question errored -> >10% failure exit
    _, rows = read_traces(out)
    assert rows[0][1].error


def test_run_broken_response_is_a_question_error(tmp_path, dataset_path, index_path,
                                                monkeypatch):
    truncated = http_response(completion_body("ok"))[:-5]  # the server closes mid-body
    monkeypatch.setattr(cli, "HttpBackend", functools.partial(HttpBackend, backoff=0.0))
    out = tmp_path / "traces.jsonl"
    with FaultServer(truncated) as server:
        code = main([
            "run", "--dataset", str(dataset_path), "--index", str(index_path),
            "--endpoint", server.url, "--model", "m", "--out", str(out),
        ])
    assert code == 1  # the question failed, the run did not abort
    _, rows = read_traces(out)
    assert len(rows) == 1
    assert "IncompleteRead" in rows[0][1].error
    assert len(server.requests) == 4  # initial call + 3 retries


class _AnswerFailsInIterationTwo(MockBackend):
    """Raises RuntimeError, not an LlmError, on the Moon question's second answer call."""

    moon_answers = 0

    def complete(self, messages, max_tokens):
        prompt = messages[-1].content
        if prompt.startswith("Here is a question") and "Moon" in prompt:
            self.moon_answers += 1
            if self.moon_answers == 2:
                raise RuntimeError("answer step broke")
        return super().complete(messages, max_tokens)


def test_run_worker_exception_is_a_question_error(capsys, tmp_path, index_path, monkeypatch):
    dataset = tmp_path / "qa2.jsonl"
    write_jsonl(dataset, [
        {"question": "What is the name of the spacecraft that first landed humans on the Moon?",
         "answers": ["Eagle"]},
        {"question": "Second question?", "answers": ["y"]},
    ])
    script = tmp_path / "script.jsonl"
    write_jsonl(script, [
        {"match": "landed humans", "response": '["Moon landing"]'},
        {"match": "landed humans", "response": "Challenger"},
        {"match": "landed humans", "p_true": 0.2, "p_false": 0.8},
        {"match": "landed humans", "response": '["Apollo 11"]'},
        {"match": "Second question", "response": '["second"]'},
        {"match": "Second question", "response": "y"},
        {"match": "Second question", "p_true": 0.9, "p_false": 0.1},
    ])
    monkeypatch.setattr(cli, "MockBackend", _AnswerFailsInIterationTwo)
    out = tmp_path / "traces.jsonl"
    code = main(["run", "--dataset", str(dataset), "--index", str(index_path),
                 "--mock-script", str(script), "--workers", "1", "--out", str(out)])
    assert code == 1  # 1 of 2 questions failed: over the 10% threshold
    _, rows = read_traces(out)
    assert [(qid, trace.error) for qid, trace in rows] == [
        (0, "RuntimeError: answer step broke"),
        (1, None),
    ]
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: answer step broke" in err


def _record_backends(monkeypatch) -> tuple[list, list]:
    """Lists of the HttpBackends that cmd_run makes and closes; retries do not wait."""
    made, closed = [], []

    class Recording(HttpBackend):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

        def close(self):
            closed.append(self)
            super().close()

    monkeypatch.setattr(cli, "HttpBackend", functools.partial(Recording, backoff=0.0))
    return made, closed


def test_run_closes_its_backends(tmp_path, dataset_path, index_path, monkeypatch):
    made, closed = _record_backends(monkeypatch)
    main([
        "run", "--dataset", str(dataset_path), "--index", str(index_path),
        "--endpoint", "http://127.0.0.1:9/v1", "--model", "m", "--answer-model", "m2",
        "--regen-mode", "docwise", "--out", str(tmp_path / "traces.jsonl"),
    ])
    assert len(made) == 2
    assert {id(b) for b in closed} == {id(b) for b in made}


def test_run_makes_one_backend_per_model_its_steps_use_and_closes_each(
        tmp_path, dataset_path, index_path, monkeypatch):
    made, closed = _record_backends(monkeypatch)
    main([
        "run", "--dataset", str(dataset_path), "--index", str(index_path),
        "--endpoint", "http://127.0.0.1:9/v1", "--model", "m", "--keyword-model", "a",
        "--answer-model", "b", "--validation-model", "c", "--out", str(tmp_path / "traces.jsonl"),
    ])
    assert sorted(backend.model for backend in made) == ["a", "b", "c"]
    assert {id(b) for b in closed} == {id(b) for b in made}


@pytest.mark.skipif(not hasattr(signal, "pthread_sigmask"), reason="POSIX signal masks")
def test_run_leaves_sigint_to_the_main_thread(tmp_path, dataset_path, index_path, monkeypatch):
    callers = []

    class Recording(HttpBackend):
        def complete(self, messages, max_tokens):
            blocked = signal.pthread_sigmask(signal.SIG_BLOCK, [])
            callers.append((threading.current_thread().name, signal.SIGINT in blocked))
            return super().complete(messages, max_tokens)

    monkeypatch.setattr(cli, "HttpBackend", Recording)
    with StubLlmServer(_moon_stub) as server:
        code = main(["run", "--dataset", str(dataset_path), "--index", str(index_path),
                     "--endpoint", server.url, "--model", "m", "--regen-mode", "docwise",
                     "--no-early-stop", "--max-iterations", "2",
                     "--out", str(tmp_path / "traces.jsonl")])
    assert code == 0
    assert any(name.startswith("keyrag-llm") for name, _ in callers)  # helper threads too
    assert [blocked for _, blocked in callers] == [True] * len(callers)
    assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, [])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("flags, per_question", [
    ([], 1),
    (["--no-early-stop"], 3),
    (["--regen-mode", "docwise"], 3),  # --top-k 3
    (["--regen-mode", "docwise", "--no-early-stop"], 5),
])
def test_run_sizes_its_backends_by_workers_times_a_questions_calls_in_flight(
        monkeypatch, tmp_path, dataset_path, index_path, flags, per_question, workers):
    sized = []

    def build_backends(args, file_values, timeout, max_in_flight):
        sized.append(max_in_flight)
        raise cli.UsageError("no backend needed")

    monkeypatch.setattr(cli, "_build_backends", build_backends)
    code = main(["run", "--dataset", str(dataset_path), "--index", str(index_path),
                 "--endpoint", "http://127.0.0.1:9/v1", "--model", "m", "--top-k", "3",
                 "--workers", str(workers), "--out", str(tmp_path / "traces.jsonl"), *flags])
    assert code == 2
    assert sized == [workers * per_question]


def test_import_cli_leaves_requests_unloaded():
    # `keyrag index` and `keyrag eval` never make a request.
    code = "import sys, keyrag.cli; sys.exit('requests' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=keyrag_env()).returncode == 0


def test_import_cli_leaves_http_client_unloaded():
    code = ("import sys, keyrag.cli\n"
            "loaded = [m for m in ('http.client', 'urllib.request') if m in sys.modules]\n"
            "sys.exit(', '.join(loaded) or None)")
    done = subprocess.run([sys.executable, "-c", code], env=keyrag_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.skipif(sys.platform == "win32", reason="SIGINT cannot be sent to a child")
def test_run_ctrl_c_cancels_queued_questions_and_keeps_finished_ones(tmp_path):
    n = 60
    dataset = tmp_path / "qa.jsonl"
    write_jsonl(dataset, [{"question": f"Question {i}?", "answers": ["ok"]} for i in range(n)])
    out = tmp_path / "traces.jsonl"

    def slow(payload, i):
        time.sleep(0.25)
        return {"status": 200, "body": completion_body("ok")}

    with StubLlmServer(slow) as server:
        # One call per question on 2 workers: the queue drains in n * 0.25 / 2 = 7.5 s.
        proc = subprocess.Popen(
            [sys.executable, "-m", "keyrag.cli", "run", "--method", "vanilla",
             "--dataset", str(dataset), "--endpoint", server.url, "--model", "m",
             "--workers", "2", "--out", str(out)],
            env=keyrag_env(NO_PROXY="127.0.0.1"), stderr=subprocess.PIPE, text=True,
            # A shell's background job ignores SIGINT, and its children inherit that.
            preexec_fn=functools.partial(signal.signal, signal.SIGINT, signal.SIG_DFL),
        )
        try:
            deadline = time.monotonic() + 30
            while len(server.requests) < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(server.requests) >= 3, "the run never got going"
            proc.send_signal(signal.SIGINT)
            t0 = time.monotonic()
            _, stderr = proc.communicate(timeout=30)
            elapsed = time.monotonic() - t0
        finally:
            proc.kill()
            proc.wait()
        asked = len(server.requests)
    assert proc.returncode == 1, stderr
    assert "interrupted" in stderr
    assert elapsed < 3.0
    assert asked < n
    lines = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert lines[0]["kind"] == "header"
    traces = lines[1:]
    # Every question that reached the server finished and was written, once.
    assert len({t["qid"] for t in traces}) == len(traces) == asked
    assert all(t["final_answer"] == "ok" and not t.get("error") for t in traces)


@pytest.mark.skipif(sys.platform == "win32", reason="SIGINT cannot be sent to a child")
@pytest.mark.parametrize("flags", [
    ["--method", "vanilla"],
    ["--regen-mode", "docwise", "--no-early-stop"],  # answers in flight on helper threads
])
def test_run_second_ctrl_c_ends_the_run_at_once(tmp_path, index_path, flags):
    n = 6
    dataset = tmp_path / "qa.jsonl"
    write_jsonl(dataset, [{"question": f"Question {i}?", "answers": ["ok"]} for i in range(n)])
    out = tmp_path / "traces.jsonl"
    release = threading.Event()

    def answers_held(payload, i):
        user = payload["messages"][-1]["content"]
        if payload.get("logprobs"):
            return {"status": 200, "body": logprob_body([("True", 0.9), ("False", 0.1)])}
        if "Here is a question" in user:
            release.wait(timeout=20)
            return {"status": 200, "body": completion_body("ok")}
        return {"status": 200, "body": completion_body('["moon"]')}

    with StubLlmServer(answers_held) as server:
        proc = subprocess.Popen(
            [sys.executable, "-m", "keyrag.cli", "run", "--dataset", str(dataset),
             "--index", str(index_path), "--endpoint", server.url, "--model", "m",
             "--workers", "2", "--out", str(out), *flags],
            env=keyrag_env(NO_PROXY="127.0.0.1"), stderr=subprocess.PIPE, text=True,
            preexec_fn=functools.partial(signal.signal, signal.SIGINT, signal.SIG_DFL),
        )
        try:
            deadline = time.monotonic() + 30
            while (sum("logprobs" not in r and "Here is a question" in r["messages"][-1]["content"]
                       for r in list(server.requests)) < 2 and time.monotonic() < deadline):
                time.sleep(0.01)
            proc.send_signal(signal.SIGINT)
            time.sleep(0.3)
            proc.send_signal(signal.SIGINT)
            t0 = time.monotonic()
            _, stderr = proc.communicate(timeout=30)
            elapsed = time.monotonic() - t0
        finally:
            release.set()
            proc.kill()
            proc.wait()
    assert proc.returncode == 1, stderr
    assert "interrupted" in stderr
    assert "Traceback" not in stderr
    assert elapsed < 5.0
    lines = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert lines[0]["kind"] == "header"


@pytest.mark.skipif(sys.platform == "win32", reason="SIGINT cannot be sent to a child")
def test_run_started_with_sigint_ignored_keeps_ignoring_it(tmp_path):
    n = 6
    dataset = tmp_path / "qa.jsonl"
    write_jsonl(dataset, [{"question": f"Question {i}?", "answers": ["ok"]} for i in range(n)])
    out = tmp_path / "traces.jsonl"

    def slow(payload, i):
        time.sleep(0.1)
        return {"status": 200, "body": completion_body("ok")}

    with StubLlmServer(slow) as server:
        proc = subprocess.Popen(
            [sys.executable, "-m", "keyrag.cli", "run", "--method", "vanilla",
             "--dataset", str(dataset), "--endpoint", server.url, "--model", "m",
             "--workers", "2", "--out", str(out)],
            env=keyrag_env(NO_PROXY="127.0.0.1"), stderr=subprocess.PIPE, text=True,
            preexec_fn=functools.partial(signal.signal, signal.SIGINT, signal.SIG_IGN),
        )
        try:
            deadline = time.monotonic() + 30
            while not server.requests and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.requests, "the run never got going"
            proc.send_signal(signal.SIGINT)
            _, stderr = proc.communicate(timeout=30)
        finally:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0, stderr
    assert "interrupted" not in stderr
    _, rows = read_traces(out)
    assert [qid for qid, _ in rows] == list(range(n))


@pytest.fixture()
def sigint_default():
    """SIGINT handled as in a foreground run, also where pytest runs with it ignored."""
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    yield
    signal.signal(signal.SIGINT, previous)


class _InterruptingFile:
    """A trace file that sends this process SIGINT `times` times from its second flush.

    The first flush follows the header, the second the first trace line: the
    point where a KeyboardInterrupt once made the run write that trace twice.
    """

    def __init__(self, f, times: int):
        self._f = f
        self._times = times
        self._flushes = 0

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._f.close()

    def flush(self):
        self._f.flush()
        self._flushes += 1
        if self._flushes == 2:
            for _ in range(self._times):
                signal.raise_signal(signal.SIGINT)


@pytest.mark.parametrize("times", [1, 2])
def test_run_ctrl_c_as_a_trace_is_written_keeps_every_line_whole_and_once(
        capsys, monkeypatch, tmp_path, sigint_default, times):
    n = 6
    dataset = tmp_path / "qa.jsonl"
    write_jsonl(dataset, [{"question": f"Question {i}?", "answers": ["ok"]} for i in range(n)])
    script = tmp_path / "script.jsonl"
    write_jsonl(script, [{"match": "Here is a question", "response": "ok"}] * n)
    out = tmp_path / "traces.jsonl"

    def open_interrupting(file, mode="r", *args, **kwargs):
        f = open(file, mode, *args, **kwargs)
        return _InterruptingFile(f, times) if file == out and mode in ("w", "a") else f

    monkeypatch.setattr(cli, "open", open_interrupting, raising=False)
    code = main(["run", "--method", "vanilla", "--dataset", str(dataset), "--mock-script",
                 str(script), "--workers", "1", "--out", str(out)])
    assert code == 1
    assert "interrupted" in capsys.readouterr().err
    assert signal.getsignal(signal.SIGINT) is signal.default_int_handler
    lines = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert lines[0]["kind"] == "header"
    qids = [t["qid"] for t in lines[1:]]
    assert qids == list(range(len(qids))) and 1 <= len(qids) <= n


class _CutByClose(MockBackend):
    """Question 0's answer waits until question 1's has started; question 1's
    waits for close() and then raises `cut`, as a question whose backend was
    closed under it can.
    """

    cut: Exception

    def __init__(self, entries):
        super().__init__(entries)
        self.cutting = threading.Event()
        self.closed = threading.Event()

    def complete(self, messages, max_tokens):
        if "Question 1?" in messages[-1].content:
            self.cutting.set()
            assert self.closed.wait(timeout=10)
            raise self.cut
        assert self.cutting.wait(timeout=10)
        return super().complete(messages, max_tokens)

    def close(self):
        self.closed.set()


@pytest.mark.parametrize("cut", [
    pytest.param(RuntimeError("cannot schedule new futures after shutdown"), id="late-submit"),
    pytest.param(CancelledError(), id="cancelled"),
])
def test_run_second_ctrl_c_prints_no_traceback_for_the_questions_it_cuts(
        capsys, monkeypatch, tmp_path, sigint_default, cut):
    n = 4
    dataset = tmp_path / "qa.jsonl"
    write_jsonl(dataset, [{"question": f"Question {i}?", "answers": ["ok"]} for i in range(n)])
    script = tmp_path / "script.jsonl"
    write_jsonl(script, [{"match": "Here is a question", "response": "ok"}] * n)
    out = tmp_path / "traces.jsonl"

    def open_interrupting(file, mode="r", *args, **kwargs):
        f = open(file, mode, *args, **kwargs)
        return _InterruptingFile(f, 2) if file == out and mode in ("w", "a") else f

    monkeypatch.setattr(cli, "open", open_interrupting, raising=False)
    monkeypatch.setattr(_CutByClose, "cut", cut, raising=False)
    monkeypatch.setattr(cli, "MockBackend", _CutByClose)
    code = main(["run", "--method", "vanilla", "--dataset", str(dataset), "--mock-script",
                 str(script), "--workers", "2", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert "interrupted" in err
    assert "Traceback" not in err
    _, rows = read_traces(out)
    qids = [qid for qid, _ in rows]
    assert 0 in qids and 1 not in qids


def _moon_stub(payload, i):
    """A stub model that answers the Moon question in one iteration."""
    user = payload["messages"][-1]["content"]
    if payload.get("logprobs"):
        return {"status": 200, "body": logprob_body([("True", 0.9), ("False", 0.1)])}
    if "Generate a list of important keywords" in user:
        return {"status": 200, "body": completion_body('["Apollo 11", "lunar module"]')}
    return {"status": 200, "body": completion_body("Eagle")}


def _moon_dataset(tmp_path, n: int):
    dataset = tmp_path / "moon.jsonl"
    write_jsonl(dataset, [{"question": f"{MOON_QUESTION} ({i})", "answers": ["Eagle"]}
                          for i in range(n)])
    return dataset


def test_run_loads_the_index_while_the_first_keyword_calls_are_in_flight(
        monkeypatch, tmp_path, index_path):
    asked = threading.Event()

    def respond(payload, i):
        if "Generate a list of important keywords" in payload["messages"][-1]["content"]:
            asked.set()
        return _moon_stub(payload, i)

    real_load, waited = bm25.load_index, []

    def load_once_a_keyword_call_is_in(source):
        waited.append(asked.wait(timeout=10))
        return real_load(source)

    monkeypatch.setattr(bm25, "load_index", load_once_a_keyword_call_is_in)
    out = tmp_path / "traces.jsonl"
    with StubLlmServer(respond) as server:
        code = main(["run", "--dataset", str(_moon_dataset(tmp_path, 3)), "--index",
                     str(index_path), "--endpoint", server.url, "--model", "m", "--workers", "2",
                     "--out", str(out)])
    assert waited == [True]
    assert code == 0
    header, rows = read_traces(out)
    assert header["config"]["index_sha256"] == hashlib.sha256(index_path.read_bytes()).hexdigest()
    assert [(qid, trace.final_answer, trace.error) for qid, trace in sorted(rows)] == [
        (0, "Eagle", None), (1, "Eagle", None), (2, "Eagle", None)]


def test_run_ctrl_c_while_the_index_loads_ends_the_run_as_an_interrupt(
        capsys, monkeypatch, tmp_path, index_path, sigint_default):
    script = tmp_path / "script.jsonl"
    write_jsonl(script, [
        {"match": "Generate a list of important keywords", "response": '["Apollo 11"]'},
        {"match": "Here is a question", "response": "Eagle"},
        {"match": "Is the following answer correct", "p_true": 0.9, "p_false": 0.1},
    ] * 4)
    real_load, escaped = bm25.load_index, []

    def load_then_interrupt(source):
        index = real_load(source)
        try:
            signal.raise_signal(signal.SIGINT)
        except KeyboardInterrupt:
            escaped.append(True)
        return index

    monkeypatch.setattr(bm25, "load_index", load_then_interrupt)
    out = tmp_path / "traces.jsonl"
    code = main(["run", "--dataset", str(_moon_dataset(tmp_path, 4)), "--index",
                 str(index_path), "--mock-script", str(script), "--workers", "1",
                 "--out", str(out)])
    assert escaped == []
    assert code == 1
    assert "interrupted" in capsys.readouterr().err
    header, rows = read_traces(out)
    assert header["config"]["index_sha256"]
    assert [qid for qid, _ in rows] == list(range(len(rows)))
    assert all(trace.final_answer == "Eagle" for _, trace in rows)


def _wrong_version(index_path, tmp_path):
    path = tmp_path / "v2.idx"
    data = bytearray(index_path.read_bytes())
    data[len(bm25.MAGIC)] = 2
    path.write_bytes(data)
    return path


def _not_an_index(index_path, tmp_path):
    path = tmp_path / "notes.idx"
    path.write_text("these are notes, not an index\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("make_bad, message", [
    (lambda index_path, tmp_path: tmp_path / "missing.idx", "No such file or directory"),
    (_not_an_index, "error: bad magic: not a recognized index file"),
    (_wrong_version, "error: unsupported index version 2 (this keyrag reads version 3)"),
])
def test_run_refuses_a_file_that_is_no_index_of_this_version_before_any_request(
        capsys, tmp_path, index_path, make_bad, message):
    bad = make_bad(index_path, tmp_path)
    out = tmp_path / "traces.jsonl"
    out.write_text("earlier traces\n", encoding="utf-8")
    with StubLlmServer(_moon_stub) as server:
        code = main(["run", "--dataset", str(_moon_dataset(tmp_path, 3)), "--index", str(bad),
                     "--endpoint", server.url, "--model", "m", "--out", str(out)])
    assert code == 1
    assert message in capsys.readouterr().err
    assert server.requests == []
    assert out.read_text(encoding="utf-8") == "earlier traces\n"


def test_run_refuses_an_out_path_it_cannot_write_before_any_request(capsys, tmp_path,
                                                                    index_path):
    out = tmp_path / "missing" / "traces.jsonl"
    with StubLlmServer(_moon_stub) as server:
        code = main(["run", "--dataset", str(_moon_dataset(tmp_path, 3)), "--index",
                     str(index_path), "--endpoint", server.url, "--model", "m", "--out", str(out)])
    assert code == 1
    assert "No such file or directory" in capsys.readouterr().err
    assert server.requests == []


@pytest.mark.parametrize("earlier", ["earlier traces\n", None])
def test_run_with_an_index_whose_postings_are_corrupt_fails_as_load_index_does(
        capsys, tmp_path, index_path, earlier):
    index = load_index(index_path)
    data = bytearray(index_path.read_bytes())
    # The refs column (u32 each) and then the impacts column (f64 each) end the file.
    refs_at = len(data) - 12 * len(index.refs)
    data[refs_at:refs_at + 4] = index.n_docs.to_bytes(4, "little")
    bad = tmp_path / "bad.idx"
    bad.write_bytes(data)
    out = tmp_path / "traces.jsonl"
    if earlier is not None:
        out.write_text(earlier, encoding="utf-8")
    with StubLlmServer(_moon_stub) as server:
        code = main(["run", "--dataset", str(_moon_dataset(tmp_path, 6)), "--index", str(bad),
                     "--endpoint", server.url, "--model", "m", "--workers", "2",
                     "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: corrupt index file: posting refers past the last chunk" in err
    assert "Traceback" not in err
    assert len(server.requests) <= 2
    if earlier is None:
        assert not out.exists()
    else:
        assert out.read_text(encoding="utf-8") == earlier


@pytest.mark.skipif(sys.platform == "win32", reason="symlinks need privileges")
def test_run_writes_through_an_out_symlink_whose_target_does_not_exist_yet(tmp_path,
                                                                           index_path):
    target, out = tmp_path / "target.jsonl", tmp_path / "traces.jsonl"
    out.symlink_to(target)
    with StubLlmServer(_moon_stub) as server:
        code = main(["run", "--dataset", str(_moon_dataset(tmp_path, 3)), "--index",
                     str(index_path), "--endpoint", server.url, "--model", "m", "--out", str(out)])
    assert code == 0
    assert out.is_symlink()
    header, rows = read_traces(target)
    assert header["config"]["index_sha256"] and [qid for qid, _ in rows] == [0, 1, 2]


def test_run_skip_completed_refuses_a_file_written_with_another_index_before_any_request(
        capsys, tmp_path, corpus_path, dataset_path, index_path):
    other = tmp_path / "other.idx"
    assert main(["index", "--corpus", str(corpus_path), "--out", str(other), "--no-titles"]) == 0
    out = tmp_path / "traces.jsonl"
    with StubLlmServer(_moon_stub) as server:
        argv = ["run", "--dataset", str(dataset_path), "--endpoint", server.url, "--model", "m",
                "--out", str(out)]
        assert main(argv + ["--index", str(index_path)]) == 0
        before, asked = out.read_bytes(), len(server.requests)
        assert main(argv + ["--index", str(other), "--skip-completed"]) == 2
        assert len(server.requests) == asked
    assert "it was written with index_sha256=" in capsys.readouterr().err
    assert out.read_bytes() == before


def test_run_deterministic_outputs(tmp_path, dataset_path, index_path, script_path):
    outs = []
    for name in ("a.jsonl", "b.jsonl"):
        out = tmp_path / name
        code = main([
            "run", "--dataset", str(dataset_path), "--index", str(index_path),
            "--mock-script", str(script_path), "--out", str(out, ), "--no-timings",
        ])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_run_skip_completed(tmp_path, index_path, script_path):
    dataset = tmp_path / "qa2.jsonl"
    write_jsonl(dataset, [
        {"question": "What is the name of the spacecraft that first landed humans on the Moon?",
         "answers": ["Eagle"]},
        {"question": "Second question?", "answers": ["y"]},
    ])
    out = tmp_path / "traces.jsonl"
    code = main(["run", "--dataset", str(dataset), "--index", str(index_path),
                 "--mock-script", str(script_path), "--out", str(out), "--limit", "1"])
    assert code == 0
    _, rows = read_traces(out)
    assert [qid for qid, _ in rows] == [0]

    extra_script = tmp_path / "extra.jsonl"
    write_jsonl(extra_script, [
        {"match": "Generate a list of important keywords", "response": '["second"]'},
        {"match": "Here is a question", "response": "y"},
        {"match": "Is the following answer correct", "p_true": 0.9, "p_false": 0.1},
    ])
    code = main(["run", "--dataset", str(dataset), "--index", str(index_path),
                 "--mock-script", str(extra_script), "--out", str(out), "--skip-completed"])
    assert code == 0
    _, rows = read_traces(out)
    assert [qid for qid, _ in rows] == [0, 1]


def test_run_skip_completed_refuses_a_file_of_another_config(capsys, tmp_path, dataset_path,
                                                            index_path, script_path):
    out = tmp_path / "traces.jsonl"
    argv = ["run", "--dataset", str(dataset_path), "--index", str(index_path),
            "--mock-script", str(script_path), "--out", str(out)]
    assert main(argv) == 0
    before = out.read_bytes()
    assert main(argv + ["--skip-completed", "--top-k", "2"]) == 2
    err = capsys.readouterr().err
    assert "written with top_k=3" in err and "this run has top_k=2" in err
    assert out.read_bytes() == before


def test_run_skip_completed_ignores_workers_and_fields_an_old_header_lacks(tmp_path, index_path,
                                                                           script_path):
    dataset = tmp_path / "qa2.jsonl"
    write_jsonl(dataset, [
        {"question": "What is the name of the spacecraft that first landed humans on the Moon?",
         "answers": ["Eagle"]},
        {"question": "Second question?", "answers": ["y"]},
    ])
    out = tmp_path / "traces.jsonl"
    assert main(["run", "--dataset", str(dataset), "--index", str(index_path), "--workers", "1",
                 "--mock-script", str(script_path), "--out", str(out), "--limit", "1"]) == 0
    header, *rest = out.read_text(encoding="utf-8").splitlines()
    older = json.loads(header)
    del older["config"]["top_k"]  # as if written before top_k was recorded
    out.write_text("\n".join([json.dumps(older), *rest]) + "\n", encoding="utf-8")
    extra = tmp_path / "extra.jsonl"
    write_jsonl(extra, [
        {"match": "Generate a list of important keywords", "response": '["second"]'},
        {"match": "Here is a question", "response": "y"},
        {"match": "Is the following answer correct", "p_true": 0.9, "p_false": 0.1},
    ])
    assert main(["run", "--dataset", str(dataset), "--index", str(index_path), "--workers", "2",
                 "--no-timings", "--top-k", "2", "--mock-script", str(extra), "--out", str(out),
                 "--skip-completed"]) == 0
    _, rows = read_traces(out)
    assert [qid for qid, _ in rows] == [0, 1]


def test_run_skip_completed_header_only_file_keeps_one_header(tmp_path, dataset_path, index_path,
                                                             script_path):
    out = tmp_path / "traces.jsonl"
    argv = ["run", "--dataset", str(dataset_path), "--index", str(index_path),
            "--mock-script", str(script_path), "--out", str(out)]
    assert main(argv) == 0
    header_line = out.read_text(encoding="utf-8").splitlines()[0]
    assert json.loads(header_line)["kind"] == "header"
    out.write_text(header_line + "\n", encoding="utf-8")  # interrupted before any trace
    assert main(argv + ["--skip-completed"]) == 0
    kinds = [json.loads(line).get("kind") for line in out.read_text(encoding="utf-8").splitlines()]
    assert kinds.count("header") == 1
    _, rows = read_traces(out)
    assert [qid for qid, _ in rows] == [0]


def test_run_skip_completed_retries_errored_questions(capsys, tmp_path, dataset_path,
                                                    index_path, script_path):
    out = tmp_path / "traces.jsonl"
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")  # an exhausted script: the question errors
    argv = ["run", "--dataset", str(dataset_path), "--index", str(index_path), "--out", str(out)]
    assert main(argv + ["--mock-script", str(empty)]) == 1
    _, rows = read_traces(out)
    assert [qid for qid, _ in rows] == [0] and rows[0][1].error

    assert main(argv + ["--mock-script", str(script_path), "--skip-completed"]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3  # header, the errored trace, the retried one
    _, rows = read_traces(out)
    assert len(rows) == 1
    assert rows[0][1].error is None and rows[0][1].final_answer == "Eagle"
    capsys.readouterr()
    assert main(["eval", "--traces", str(out), "--dataset", str(dataset_path)]) == 0
    printed = capsys.readouterr().out
    assert "n                1\n" in printed
    assert "accuracy         1.0000" in printed


def test_read_traces_keeps_every_run_of_concatenated_files(capsys, tmp_path, dataset_path,
                                                          index_path, script_path):
    parts = [_run_traces(tmp_path / name, dataset_path, index_path, script_path)
             for name in ("a", "b")]
    merged = tmp_path / "merged.jsonl"
    merged.write_text("".join(p.read_text(encoding="utf-8") for p in parts), encoding="utf-8")
    _, rows = read_traces(merged)
    assert [qid for qid, _ in rows] == [0, 0]  # one question per run, each with its header
    capsys.readouterr()
    assert main(["eval", "--traces", str(merged), "--dataset", str(dataset_path)]) == 0
    assert "n                2\n" in capsys.readouterr().out


def test_run_save_raw_embeds_prompts(tmp_path, dataset_path, index_path, script_path):
    out = tmp_path / "traces.jsonl"
    main(["run", "--dataset", str(dataset_path), "--index", str(index_path),
          "--mock-script", str(script_path), "--out", str(out), "--save-raw"])
    with open(out, encoding="utf-8") as f:
        lines = [json.loads(line) for line in f if line.strip()]
    trace_obj = next(obj for obj in lines if obj.get("kind") != "header")
    raw = trace_obj["iterations"][0]["raw"]
    assert any("Generate a list of important keywords" in r["user"] for r in raw)


# --- eval ----------------------------------------------------------------------


def _run_traces(tmp_path, dataset_path, index_path, script_path, *extra):
    tmp_path.mkdir(exist_ok=True)
    out = tmp_path / "traces.jsonl"
    code = main(["run", "--dataset", str(dataset_path), "--index", str(index_path),
                 "--mock-script", str(script_path), "--out", str(out), *extra])
    assert code == 0
    return out


def test_eval_em_and_base(capsys, tmp_path, dataset_path, index_path, script_path):
    traces = _run_traces(tmp_path, dataset_path, index_path, script_path)
    code = main(["eval", "--traces", str(traces), "--dataset", str(dataset_path),
                 "--mode", "base"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "accuracy         1.0000" in printed


def test_eval_em_report(capsys, tmp_path, dataset_path, index_path, script_path):
    traces = _run_traces(tmp_path, dataset_path, index_path, script_path, "--no-timings")
    report_path = tmp_path / "report.json"
    assert main(["eval", "--traces", str(traces), "--dataset", str(dataset_path), "--mode", "em",
                 "--recall-ks", "1,2", "--index", str(index_path), "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    header, _ = read_traces(traces)
    assert report == {
        "v": 1,
        "config": header["config"],
        "result": {
            "mode": "em",
            "accuracy": 1.0,  # the final answer, Eagle
            "n": 1,
            "per_iteration_accuracy": [],
            "avg_iterations": 2.0,
            "keyword_deltas": {"per_step": {"2": 2.0}, "total": 2.0, "mean": 2.0},
            "doc_deltas": {"per_step": {"2": 0.0}, "total": 0.0, "mean": 0.0},
            "latency_seconds": {
                "query_expansion": 0.0,
                "retrieval": 0.0,
                "answer_generation": 0.0,
                "answer_validation": 0.0,
                "total": 0.0,
            },
            "recall_at": {"1": 1.0, "2": 1.0},
            "recall_curves": {"1": [1.0, 1.0], "2": [1.0, 1.0]},
            "recall_mean_over_horizons": {"1": 1.0, "2": 1.0},
        },
    }
    assert "per-iteration" not in capsys.readouterr().out


def test_eval_verified_refused_on_early_stopped(tmp_path, dataset_path, index_path, script_path):
    traces = _run_traces(tmp_path, dataset_path, index_path, script_path)
    code = main(["eval", "--traces", str(traces), "--dataset", str(dataset_path),
                 "--mode", "verified_true"])
    assert code == 1


def test_eval_recall_ks_monotone(capsys, tmp_path, dataset_path, index_path, script_path):
    traces = _run_traces(tmp_path, dataset_path, index_path, script_path)
    report_path = tmp_path / "report.json"
    code = main(["eval", "--traces", str(traces), "--dataset", str(dataset_path),
                 "--recall-ks", "1,2,3", "--index", str(index_path),
                 "--out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    recall = report["result"]["recall_at"]
    assert recall["1"] <= recall["2"] <= recall["3"]
    assert report["config"]["method"] == "iterative"


def test_eval_recall_requires_index(tmp_path, dataset_path, index_path, script_path):
    traces = _run_traces(tmp_path, dataset_path, index_path, script_path)
    code = main(["eval", "--traces", str(traces), "--dataset", str(dataset_path),
                 "--recall-ks", "1"])
    assert code == 2


@pytest.mark.parametrize("ks", ["1,-1,0", "0", "1,x", "2.5"])
def test_eval_refuses_recall_ks_that_are_not_positive_integers(
    capsys, tmp_path, dataset_path, index_path, script_path, ks
):
    traces = _run_traces(tmp_path, dataset_path, index_path, script_path)
    capsys.readouterr()
    code = main(["eval", "--traces", str(traces), "--dataset", str(dataset_path),
                 "--recall-ks", ks, "--index", str(index_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert "--recall-ks takes integers >= 1" in captured.err
    assert "recall@" not in captured.out


def test_eval_refuses_an_index_other_than_the_runs(tmp_path, dataset_path, corpus_path,
                                                  index_path, script_path):
    traces = _run_traces(tmp_path, dataset_path, index_path, script_path)
    other = tmp_path / "other.idx"
    assert main(["index", "--corpus", str(corpus_path), "--out", str(other), "--no-titles"]) == 0
    argv = ["eval", "--traces", str(traces), "--dataset", str(dataset_path), "--recall-ks", "1"]
    assert main(argv + ["--index", str(index_path)]) == 0
    assert main(argv + ["--index", str(other)]) == 2
    # A header without index_sha256 cannot be checked, and is not refused.
    lines = traces.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    del header["config"]["index_sha256"]
    traces.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n", encoding="utf-8")
    assert main(argv + ["--index", str(other)]) == 0


def test_eval_index_that_fails_to_load_exits_1(capsys, tmp_path, dataset_path, index_path,
                                               script_path):
    traces = _run_traces(tmp_path, dataset_path, index_path, script_path)
    v2 = tmp_path / "v2.idx"
    v2.write_bytes(b"ITKIDX1" + bytes([2]) + b"\x00" * 40)
    cut = tmp_path / "cut.idx"
    cut.write_bytes(index_path.read_bytes()[:-1])
    capsys.readouterr()
    for bad, message in ((v2, "rebuild the index"), (cut, "truncated")):
        code = main(["eval", "--traces", str(traces), "--dataset", str(dataset_path),
                     "--index", str(bad)])
        assert code == 1
        assert message in capsys.readouterr().err


def test_eval_misaligned_dataset(tmp_path, dataset_path, index_path, script_path):
    traces = _run_traces(tmp_path, dataset_path, index_path, script_path)
    other = tmp_path / "other.jsonl"
    write_jsonl(other, [{"question": "A different question?", "answers": ["z"]}])
    code = main(["eval", "--traces", str(traces), "--dataset", str(other)])
    assert code == 2


def test_eval_aligns_by_question_text_when_order_differs(tmp_path, index_path, script_path):
    dataset = tmp_path / "qa2.jsonl"
    write_jsonl(dataset, [
        {"question": "What is the name of the spacecraft that first landed humans on the Moon?",
         "answers": ["Eagle"]},
        {"question": "Placeholder question?", "answers": ["none"]},
    ])
    traces = tmp_path / "traces.jsonl"
    extra = tmp_path / "extra.jsonl"
    write_jsonl(extra, [
        {"match": "Generate a list of important keywords", "response": '["kw"]'},
        {"match": "Here is a question", "response": "nope"},
        {"match": "Is the following answer correct", "p_true": 0.9, "p_false": 0.1},
    ])
    assert main(["run", "--dataset", str(dataset), "--index", str(index_path),
                 "--mock-script", str(script_path), "--out", str(traces), "--limit", "1"]) == 0
    assert main(["run", "--dataset", str(dataset), "--index", str(index_path),
                 "--mock-script", str(extra), "--out", str(traces), "--skip-completed"]) == 0

    swapped = tmp_path / "swapped.jsonl"
    write_jsonl(swapped, [
        {"question": "Placeholder question?", "answers": ["none"]},
        {"question": "What is the name of the spacecraft that first landed humans on the Moon?",
         "answers": ["Eagle"]},
    ])
    code = main(["eval", "--traces", str(traces), "--dataset", str(swapped), "--mode", "em"])
    assert code == 0


def test_no_early_stop_enables_verified_modes(capsys, tmp_path, dataset_path, index_path):
    # iteration 0: wrong answer judged True; iteration 1: correct answer judged True.
    script = tmp_path / "miss_true.jsonl"
    write_jsonl(script, [
        {"match": "Generate a list of important keywords", "response": '["kw0"]'},
        {"match": "Here is a question", "response": "Columbia"},
        {"match": "Is the following answer correct", "p_true": 0.9, "p_false": 0.1},
        {"match": "Refine the keyword selection", "response": '["kw1"]'},
        {"match": "Here is a question", "response": "Eagle"},
        {"match": "Is the following answer correct", "p_true": 0.9, "p_false": 0.1},
    ])
    traces = tmp_path / "traces.jsonl"
    code = main(["run", "--dataset", str(dataset_path), "--index", str(index_path),
                 "--mock-script", str(script), "--out", str(traces),
                 "--no-early-stop", "--max-iterations", "2"])
    assert code == 0
    header, rows = read_traces(traces)
    assert header["config"]["early_stop"] is False
    assert len(rows[0][1].iterations) == 2

    assert main(["eval", "--traces", str(traces), "--dataset", str(dataset_path),
                 "--mode", "base"]) == 0
    base_out = capsys.readouterr().out
    assert "accuracy         0.0000" in base_out  # first True answer is wrong

    assert main(["eval", "--traces", str(traces), "--dataset", str(dataset_path),
                 "--mode", "verified_true"]) == 0
    verified_out = capsys.readouterr().out
    assert "accuracy         1.0000" in verified_out  # a later True answer matches


def test_multi_chunk_documents_flow_through(tmp_path):
    # The target phrase lives in the tail chunk of a 300-token document.
    filler = " ".join(f"pad{i}" for i in range(280))
    corpus = tmp_path / "long.jsonl"
    write_jsonl(corpus, [
        {"id": "long", "title": "Long Doc",
         "text": filler + " the lunar module Eagle carried the crew to the surface"},
        {"id": "short", "title": "Short", "text": "unrelated filler content entirely"},
    ])
    index_path = tmp_path / "long.idx"
    assert main(["index", "--corpus", str(corpus), "--out", str(index_path)]) == 0

    dataset = tmp_path / "qa.jsonl"
    write_jsonl(dataset, [{"question": "Which module carried the crew?", "answers": ["Eagle"]}])
    script = tmp_path / "script.jsonl"
    write_jsonl(script, [
        {"match": "Generate a list of important keywords", "response": '["lunar module Eagle"]'},
        {"match": "Here is a question", "response": "Eagle"},
        {"match": "Is the following answer correct", "p_true": 0.9, "p_false": 0.1},
    ])
    traces = tmp_path / "traces.jsonl"
    assert main(["run", "--dataset", str(dataset), "--index", str(index_path),
                 "--mock-script", str(script), "--out", str(traces)]) == 0
    _, rows = read_traces(traces)
    retrieved_ids = [doc.chunk_id for doc in rows[0][1].iterations[0].retrieved]
    assert "long#1" in retrieved_ids  # the second window of the long document

    report = tmp_path / "report.json"
    assert main(["eval", "--traces", str(traces), "--dataset", str(dataset),
                 "--recall-ks", "3", "--index", str(index_path), "--out", str(report)]) == 0
    assert json.loads(report.read_text())["result"]["recall_at"]["3"] == 1.0


# --- config precedence ------------------------------------------------------------


def test_config_file_fills_run_settings(tmp_path, dataset_path, index_path, script_path):
    config = tmp_path / "keyrag.conf"
    config.write_text("top_k = 2\nmax_iterations = 4\n# comment\n", encoding="utf-8")
    out = tmp_path / "traces.jsonl"
    code = main(["run", "--dataset", str(dataset_path), "--index", str(index_path),
                 "--mock-script", str(script_path), "--out", str(out),
                 "--config", str(config)])
    assert code == 0
    header, _ = read_traces(out)
    assert header["config"]["top_k"] == 2
    assert header["config"]["max_iterations"] == 4


def test_flags_override_config_file(tmp_path, dataset_path, index_path, script_path):
    config = tmp_path / "keyrag.conf"
    config.write_text("top_k = 2\n", encoding="utf-8")
    out = tmp_path / "traces.jsonl"
    code = main(["run", "--dataset", str(dataset_path), "--index", str(index_path),
                 "--mock-script", str(script_path), "--out", str(out),
                 "--config", str(config), "--top-k", "1"])
    assert code == 0
    header, _ = read_traces(out)
    assert header["config"]["top_k"] == 1


def test_config_file_rejects_unknown_keys(tmp_path, dataset_path, index_path, script_path):
    config = tmp_path / "keyrag.conf"
    config.write_text("bogus_key = 1\n", encoding="utf-8")
    code = main(["run", "--dataset", str(dataset_path), "--index", str(index_path),
                 "--mock-script", str(script_path), "--out", str(tmp_path / "t.jsonl"),
                 "--config", str(config)])
    assert code == 2


def test_env_endpoint_used_when_no_flag(tmp_path, dataset_path, index_path, monkeypatch):
    monkeypatch.setattr(cli, "HttpBackend", functools.partial(HttpBackend, backoff=0.0))
    monkeypatch.setenv("KEYRAG_ENDPOINT", "http://127.0.0.1:9/v1")
    monkeypatch.setenv("KEYRAG_MODEL", "env-model")
    out = tmp_path / "traces.jsonl"
    code = main(["run", "--dataset", str(dataset_path), "--index", str(index_path),
                 "--out", str(out)])
    assert code == 1  # endpoint unreachable, but env config was accepted
    header, rows = read_traces(out)
    assert header["config"]["model"] == "env-model"
    assert rows[0][1].error

from __future__ import annotations

import functools
import json
import signal
import subprocess
import sys
import time

import pytest

from keyrag import cli
from keyrag.cli import main, read_traces
from keyrag.llm import HttpBackend, MockBackend

from .helpers import (
    FaultServer,
    StubLlmServer,
    completion_body,
    http_response,
    keyrag_env,
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

    def complete(self, messages, params):
        prompt = messages[-1].content
        if prompt.startswith("Here is a question") and "Moon" in prompt:
            self.moon_answers += 1
            if self.moon_answers == 2:
                raise RuntimeError("answer step broke")
        return super().complete(messages, params)


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


def test_run_closes_its_backends(tmp_path, dataset_path, index_path, monkeypatch):
    made, closed = [], []

    class Recording(HttpBackend):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

        def close(self):
            closed.append(self)
            super().close()

    monkeypatch.setattr(cli, "HttpBackend", functools.partial(Recording, backoff=0.0))
    main([
        "run", "--dataset", str(dataset_path), "--index", str(index_path),
        "--endpoint", "http://127.0.0.1:9/v1", "--model", "m", "--answer-model", "m2",
        "--regen-mode", "docwise", "--out", str(tmp_path / "traces.jsonl"),
    ])
    assert len(made) == 2
    assert {id(b) for b in closed} == {id(b) for b in made}


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

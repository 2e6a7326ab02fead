"""End-to-end benchmark of keyrag against a fixed-latency chat-completions stub.

    python3 perfbench/run.py --workload iter_10k --seed 1 --seconds 30 --trace 0

Run from the root of a keyrag checkout; the program is taken from ``src/``.
One run generates the workload from ``--seed`` (see ``workload.py``), then:

``--trace 0``  builds the index with ``keyrag index``, starts the stub and
               runs ``keyrag run --endpoint <stub>`` as a child process in
               ``SESSIONS`` slices of the question set, then scores the
               traces with ``keyrag eval``. Prints the end-to-end metrics.
``--trace 1``  builds the index in-process with a span around each layer
               call, then runs ``keyrag run`` in-process twice on the same
               questions (half as many), untraced and traced, and
               ``keyrag eval`` traced. Prints the per-layer metrics and the
               tracing overhead.

Either way every trace is checked against an independent brute-force BM25
(``oracle.py``) and the synthetic model, the stub's request count for each
question against the method's call count, and the ``keyrag eval`` accuracy
against the benchmark's own count. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; ``attempted`` and
``failed`` count questions. Generated files go to ``.perfbench/<workload>/``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

from oracle import BruteForceBm25
from workload import (MAX_ITERATIONS, NOMINAL_QPS, SESSIONS, UNKNOWN, WORKLOADS, Question, Spec,
                      keywords_at, make_workload)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MB = float(1 << 20)
MODES = ("base", "verified_true", "verified_all")


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


def keyrag(*args: str) -> list[str]:
    return [sys.executable, "-m", "keyrag.cli", *args]


def wait_child(proc: subprocess.Popen) -> tuple[int, float]:
    """Reap a child; returns (exit code, peak RSS in MB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss * 1024 / MB


class Stub:
    """The stub server as a child process (``stub.py``)."""

    def __init__(self, truth: Path, latency_ms: float):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--truth", str(truth),
             "--latency-ms", str(latency_ms)],
            stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"stub did not start: {line!r}")
        self.base = f"http://127.0.0.1:{int(line.split()[1])}"
        self.url = self.base + "/v1"
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def take_log(self) -> list[list]:
        with self._opener.open(self.base + "/stats", timeout=30) as resp:
            return json.load(resp)["requests"]

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


# --- checks ------------------------------------------------------------------


class Checker:
    """Derives every iteration the program must produce, independently of it."""

    def __init__(self, workload, spec: Spec):
        self.spec = spec
        for doc in workload.docs:
            if len(doc["text"].split()) > 256:
                raise ValueError(f"document {doc['id']} would span several chunks")
        self.oracle = BruteForceBm25(
            [d["id"] + "#0" for d in workload.docs],
            [f"{d['title']}\n{d['text']}" for d in workload.docs],
        )
        self.by_text = {q.question: q for q in workload.questions}
        self.errors: list[str] = []

    def expected(self, q: Question) -> list[dict]:
        """Per iteration: keywords, expanded query, top-k, answer, verdict."""
        out = []
        for it in range(1, MAX_ITERATIONS + 1):
            keywords = keywords_at(q, it)
            query = q.question + " " + " ".join(keywords)
            top = self.oracle.top_k(query, self.spec.top_k)
            hit = any(cid == q.doc_id + "#0" for cid, _ in top)
            out.append({"keywords": keywords, "query": query, "top": top,
                        "answer": q.answer if hit else UNKNOWN, "verdict": hit})
            if hit and self.spec.early_stop:
                break
        return out

    def expected_requests(self, its: list[dict]) -> int:
        if not self.spec.docwise:
            return 3 * len(its)
        return 3 + sum(len(prev["top"]) + 2 for prev in its[:-1])

    def fail(self, msg: str) -> None:
        if len(self.errors) < 20:
            print(f"check failed: {msg}", file=sys.stderr)
        self.errors.append(msg)

    def check(self, traces: list[dict], requests: dict[int, int]) -> tuple[int, dict[str, int]]:
        """Check every trace; returns (failed questions, correct count per eval mode)."""
        failed = 0
        correct = dict.fromkeys(MODES, 0)
        seen: set[int] = set()
        for tr in traces:
            q = self.by_text.get(tr["question"])
            if q is None:
                self.fail(f"trace for unknown question {tr['question'][:40]!r}")
                continue
            seen.add(q.qid)
            if tr.get("error"):
                failed += 1
                continue
            exp = self.expected(q)
            got = tr["iterations"]
            tag = f"q{q.qid}"
            if len(got) != len(exp):
                self.fail(f"{tag}: {len(got)} iterations, expected {len(exp)}")
                continue
            for i, (g, e) in enumerate(zip(got, exp), 1):
                if g["keywords"] != e["keywords"]:
                    self.fail(f"{tag} it{i}: keywords {g['keywords']} != {e['keywords']}")
                if g["expanded_query"] != e["query"]:
                    self.fail(f"{tag} it{i}: expanded query {g['expanded_query']!r}")
                ids = [r["chunk_id"] for r in g["retrieved"]]
                if ids != [cid for cid, _ in e["top"]]:
                    self.fail(f"{tag} it{i}: retrieved {ids} != oracle {e['top']}")
                elif any(abs(r["score"] - s) > 1e-9 for r, (_, s) in zip(g["retrieved"], e["top"])):
                    self.fail(f"{tag} it{i}: scores differ from the oracle by more than 1e-9")
                if g["answer"] != e["answer"]:
                    self.fail(f"{tag} it{i}: answer {g['answer']!r} != {e['answer']!r}")
                if (g["verdict"] or {}).get("choice") != e["verdict"]:
                    self.fail(f"{tag} it{i}: verdict {g['verdict']} != {e['verdict']}")
            if tr["final_answer"] != exp[-1]["answer"]:
                self.fail(f"{tag}: final answer {tr['final_answer']!r}")
            want = self.expected_requests(exp)
            if requests.get(q.qid) != want:
                self.fail(f"{tag}: stub saw {requests.get(q.qid)} requests, expected {want}")
            # The model's verdict is True exactly when its answer is right, so
            # base, verified_true and verified_all all count a retrieval hit.
            hit = any(e["verdict"] for e in exp)
            for mode in MODES:
                correct[mode] += hit
        missing = len(self.by_text) - len(seen)
        if missing:
            self.fail(f"{missing} questions have no trace")
        return failed + missing, correct

    def check_eval(self, reports: dict[str, dict], correct: dict[str, int], n: int) -> None:
        for mode, report in reports.items():
            acc = report["result"]["accuracy"]
            if report["result"]["n"] != n or abs(acc - correct[mode] / n) > 1e-12:
                self.fail(f"keyrag eval {mode}: accuracy {acc} over {report['result']['n']},"
                          f" expected {correct[mode]}/{n}")
        accs = [reports[m]["result"]["accuracy"] for m in MODES if m in reports]
        if accs != sorted(accs):
            self.fail(f"eval accuracies not monotone across {MODES}: {accs}")


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def request_counts(log: list[list]) -> tuple[dict[int, int], int]:
    """Requests per question id, and requests that did not get a 200."""
    counts: dict[int, int] = {}
    for qid, _kind, _t0, _t1, _status in log:
        counts[qid] = counts.get(qid, 0) + 1
    return counts, sum(1 for row in log if row[4] != 200)


# --- end-to-end run ----------------------------------------------------------


def run_e2e(spec, wl, work: Path, checker: Checker):
    corpus_path, qa_path, truth_path = work / "corpus.jsonl", work / "qa.jsonl", work / "truth.json"
    index_path = work / "corpus.idx"
    env = child_env()

    t0 = time.monotonic()
    subprocess.run(keyrag("index", "--corpus", str(corpus_path), "--out", str(index_path)),
                   env=env, check=True, stdout=subprocess.DEVNULL)
    build_s = time.monotonic() - t0

    questions = wl.questions
    per = len(questions) // SESSIONS
    setup_s, busy_s, rss_mb, question_ms = [], [], [], []
    log_all: list[list] = []
    trace_rows: list[dict] = []
    with Stub(truth_path, spec.latency_ms) as stub:
        for s in range(SESSIONS):
            part = questions[s * per:(s + 1) * per]
            qa_part, traces_part = work / f"qa_{s}.jsonl", work / f"traces_{s}.jsonl"
            with open(qa_part, "w", encoding="utf-8") as f:
                for q in part:
                    f.write(json.dumps({"question": q.question, "answers": [q.answer]}) + "\n")
            with open(work / f"run_{s}.log", "w") as err:
                t0 = time.monotonic()
                proc = subprocess.Popen(
                    keyrag("run", "--dataset", str(qa_part), "--index", str(index_path),
                           "--endpoint", stub.url, "--model", "stub", "--out", str(traces_part),
                           *spec.run_flags()),
                    env=env, stdout=subprocess.DEVNULL, stderr=err,
                )
                code, rss = wait_child(proc)
                t_exit = time.monotonic()
            log = stub.take_log()
            if not log:
                raise RuntimeError(f"keyrag run sent no request; see {work / f'run_{s}.log'}")
            if code != 0:
                checker.fail(f"keyrag run exited with {code}; see {work / f'run_{s}.log'}")
            first = min(row[2] for row in log)
            setup_s.append(first - t0)
            busy_s.append(t_exit - first)
            rss_mb.append(rss)
            spans: dict[int, list[float]] = {}
            for qid, _kind, t_recv, t_sent, _status in log:
                lo_hi = spans.setdefault(qid, [t_recv, t_sent])
                lo_hi[0], lo_hi[1] = min(lo_hi[0], t_recv), max(lo_hi[1], t_sent)
            question_ms += [(hi - lo) * 1000.0 for lo, hi in spans.values()]
            log_all += log
            trace_rows += [r for r in read_jsonl(traces_part) if r.get("kind") != "header"]

    counts, bad_requests = request_counts(log_all)
    failed, correct = checker.check(trace_rows, counts)

    merged = work / "traces.jsonl"
    with open(merged, "w", encoding="utf-8") as out:
        for s in range(SESSIONS):
            out.write((work / f"traces_{s}.jsonl").read_text(encoding="utf-8"))
    reports = {}
    for mode in (MODES if not spec.early_stop else ("base",)):
        report = work / f"eval_{mode}.json"
        subprocess.run(keyrag("eval", "--traces", str(merged), "--dataset", str(qa_path),
                              "--mode", mode, "--out", str(report)),
                       env=env, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        reports[mode] = json.loads(report.read_text(encoding="utf-8"))
    checker.check_eval(reports, correct, len(questions))

    metrics = {
        # The median, not the least, of the sessions: over 13 and 10 runs the
        # least of 4 start-ups spread more (12% and 21%) than their median (8% and 16%).
        "setup_s": (statistics.median(setup_s), "s"),
        "questions_per_s": (len(questions) / sum(busy_s), "1/s"),
        "question_ms_p50": (percentile(question_ms, 50), "ms"),
        "question_ms_p90": (percentile(question_ms, 90), "ms"),
        "peak_rss_mb": (statistics.median(rss_mb), "MB"),
    }
    # Host drift moves build time too much to hold a bound: bm25.build_s stands in for it.
    print(f"setup_s per session {['%.3f' % v for v in setup_s]};"
          f" keyrag index took {build_s:.3f}s", file=sys.stderr)
    return metrics, len(questions), failed, len(log_all), bad_requests


# --- traced run --------------------------------------------------------------


def run_traced(spec, wl, work: Path, checker: Checker):
    sys.path.insert(0, str(SRC))
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    from keyrag import bm25, cli, corpus, llm, metrics, pipeline, prompts
    from spans import Tracer

    corpus_path, qa_path, truth_path = work / "corpus.jsonl", work / "qa.jsonl", work / "truth.json"
    index_path = work / "corpus.idx"
    tracer = Tracer({q.question: q.qid for q in wl.questions})

    tracer.phase = "build"
    with tracer.span("corpus.load_corpus"):
        docs = list(corpus.load_corpus(corpus_path))
    with tracer.span("corpus.chunk_corpus"):
        chunks = list(corpus.chunk_corpus(docs, 256, 50))
    with tracer.span("bm25.build_index"):
        index = bm25.build_index(chunks)
    with tracer.span("bm25.save_index"):
        bm25.save_index(index, index_path)
    del docs, chunks, index

    run_argv = ["run", "--dataset", str(qa_path), "--index", str(index_path), "--model", "stub",
                *spec.run_flags()]
    n = len(wl.questions)

    def timed_run(stub: Stub, out: Path) -> tuple[float, list[list]]:
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(run_argv + ["--endpoint", stub.url, "--out", str(out)])
        t_exit = time.monotonic()
        log = stub.take_log()
        if not log:
            raise RuntimeError("in-process keyrag run sent no request")
        if code != 0:
            checker.fail(f"in-process keyrag run returned {code}")
        return n / (t_exit - min(row[2] for row in log)), log

    last_template = {}

    def on_render(span, call_args, result):
        span.attrs["template"] = call_args[0]
        span.attrs["bytes"] = sum(len(m.content.encode()) for m in result or ())
        last_template[span.qid] = call_args[0]

    def on_llm(span, call_args, result):
        span.attrs["template"] = last_template.get(span.qid)

    with Stub(truth_path, spec.latency_ms) as stub:
        untraced_qps, _ = timed_run(stub, work / "traces_untraced.jsonl")
        tracer.patch_function(bm25.load_index, "bm25.load_index")
        tracer.patch_function(bm25.retrieve_top_k, "bm25.retrieve_top_k")
        tracer.patch_function(prompts.render, "prompts.render", on_render)
        tracer.patch_function(prompts.parse_keyword_list, "prompts.parse_keyword_list")
        tracer.patch_method(llm.HttpBackend, "complete", "llm.call", on_llm)
        tracer.patch_method(llm.HttpBackend, "choice_probs", "llm.call", on_llm)
        tracer.patch_function(pipeline.run_iterative, "pipeline.run_iterative", question_root=True)
        tracer.patch_function(pipeline.trace_to_dict, "pipeline.trace_to_dict")
        tracer.patch_function(pipeline.trace_from_dict, "pipeline.trace_from_dict")
        tracer.patch_function(cli.read_traces, "cli.read_traces")
        tracer.patch_function(metrics.evaluate, "metrics.evaluate")
        tracer.patch_function(metrics.recall_curve, "metrics.recall_curve")
        try:
            tracer.phase = "run"
            traces_path = work / "traces.jsonl"
            traced_qps, log = timed_run(stub, traces_path)
            tracer.phase = "eval"
            ks = [k for k in (1, 3, 5) if k <= spec.top_k]
            report = work / "eval_base.json"
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main(["eval", "--traces", str(traces_path), "--dataset", str(qa_path),
                          "--mode", "base", "--recall-ks", ",".join(map(str, ks)),
                          "--index", str(index_path), "--out", str(report)])
        finally:
            tracer.restore()

    counts, bad_requests = request_counts(log)
    trace_rows = [r for r in read_jsonl(traces_path) if r.get("kind") != "header"]
    failed, correct = checker.check(trace_rows, counts)
    checker.check_eval({"base": json.loads(report.read_text(encoding="utf-8"))}, correct, n)

    def ms(spans, scale=1000.0):
        return [s.seconds * scale for s in spans]

    def one(name, phase):
        return tracer.by_name(name, phase)[0].seconds

    roots = [i for i, s in enumerate(tracer.spans) if s.name == "pipeline.run_iterative"]
    calls = tracer.by_name("llm.call", "run")
    service: dict[int, list[float]] = {}
    for qid, _kind, t_recv, t_sent, _status in sorted(log, key=lambda row: row[2]):
        service.setdefault(qid, []).append(t_sent - t_recv)
    calls_by_q: dict[int, list] = {}
    for span in sorted(calls, key=lambda s: s.start):
        calls_by_q.setdefault(span.qid, []).append(span)
    overhead_ms = [(c.seconds - svc) * 1000.0 for qid, cs in calls_by_q.items()
                   for c, svc in zip(cs, service.get(qid, []))]
    rounds = []
    for cs in calls_by_q.values():
        current = []
        for c in cs + [None]:
            if c is not None and str(c.attrs.get("template")).startswith("step4_regen"):
                current.append(c)
            elif current:
                rounds.append((current[-1].end - current[0].start) * 1000.0)
                current = []
    recall = tracer.by_name("metrics.recall_curve", "eval")
    renders = tracer.by_name("prompts.render", "run")
    metrics_out = {
        "corpus.load_s": (one("corpus.load_corpus", "build"), "s"),
        "corpus.chunk_s": (one("corpus.chunk_corpus", "build"), "s"),
        "bm25.build_s": (one("bm25.build_index", "build"), "s"),
        "bm25.save_s": (one("bm25.save_index", "build"), "s"),
        "bm25.index_mb": (index_path.stat().st_size / MB, "MB"),
        "bm25.load_s": (one("bm25.load_index", "run"), "s"),
        "bm25.retrieve_ms_p50": (percentile(ms(tracer.by_name("bm25.retrieve_top_k", "run")), 50), "ms"),
        "bm25.retrieve_ms_p90": (percentile(ms(tracer.by_name("bm25.retrieve_top_k", "run")), 90), "ms"),
        "bm25.retrieve_calls": (len(tracer.by_name("bm25.retrieve_top_k", "run")), "count"),
        "prompts.render_us_p50": (percentile(ms(renders, 1e6), 50), "us"),
        "prompts.parse_us_p50": (percentile(ms(tracer.by_name("prompts.parse_keyword_list", "run"), 1e6), 50), "us"),
        "prompts.prompt_kb_per_question": (sum(s.attrs["bytes"] for s in renders) / 1024 / n, "KiB"),
        "llm.calls_per_question": (len(calls) / n, "count"),
        "llm.call_ms_p50": (percentile(ms(calls), 50), "ms"),
        "llm.client_overhead_ms_p50": (percentile(overhead_ms, 50), "ms"),
        "llm.retries": (len(log) - len(calls), "count"),
        "pipeline.iterations_per_question": (sum(len(r["iterations"]) for r in trace_rows) / n, "count"),
        "pipeline.self_ms_per_question": (sum(tracer.self_seconds(i) for i in roots) * 1000.0 / n, "ms"),
        "pipeline.llm_wait_ms_per_question": (sum(ms(calls)) / n, "ms"),
        "pipeline.regen_round_ms_p50": (percentile(rounds, 50) if rounds else 0.0, "ms"),
        "pipeline.trace_serialize_us_p50": (percentile(ms(tracer.by_name("pipeline.trace_to_dict", "run"), 1e6), 50), "us"),
        "pipeline.trace_parse_us_p50": (percentile(ms(tracer.by_name("pipeline.trace_from_dict", "eval"), 1e6), 50), "us"),
        "cli.read_traces_s": (one("cli.read_traces", "eval"), "s"),
        "metrics.evaluate_s": (one("metrics.evaluate", "eval"), "s"),
        "metrics.recall_s_per_k": (sum(s.seconds for s in recall) / max(1, len(recall)), "s"),
        "trace.overhead_pct": ((untraced_qps / traced_qps - 1.0) * 100.0, "%"),
    }
    return metrics_out, n, failed, len(log), bad_requests


# --- main --------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="target length of the measured keyrag run phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--docs", type=int, help="corpus size override (smoke test)")
    args = parser.parse_args()

    if not (SRC / "keyrag" / "cli.py").is_file():
        print(f"error: no keyrag sources under {SRC}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    n_questions = SESSIONS * max(1, math.ceil(args.seconds * NOMINAL_QPS / SESSIONS))
    if args.trace:
        n_questions = max(1, n_questions // 2)  # run twice: untraced, then traced
    work = ROOT / ".perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    t0 = time.monotonic()
    wl = make_workload(args.workload, args.seed, n_questions, args.docs)
    wl.write(work / "corpus.jsonl", work / "qa.jsonl", work / "truth.json")
    checker = Checker(wl, spec)
    print(f"{args.workload} seed {args.seed}: {len(wl.docs)} documents, {n_questions} questions,"
          f" generated in {time.monotonic() - t0:.2f}s", file=sys.stderr)

    run = run_traced if args.trace else run_e2e
    metrics, attempted, failed, requests, bad_requests = run(spec, wl, work, checker)
    print(f"questions: {attempted} attempted, {failed} failed;"
          f" llm requests: {requests} attempted, {bad_requests} failed")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6f} {unit}")
    result = {
        "correct": not checker.errors and bad_requests == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: build indexes, run QA pipelines, evaluate trace files.

Exit codes: 0 success, 1 runtime failure, 2 usage error. Option precedence for
backend settings is flags over config file over environment variables
(KEYRAG_ENDPOINT, KEYRAG_API_KEY, KEYRAG_MODEL).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import queue
import signal
import sys
import traceback
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import fields
from pathlib import Path

from . import bm25, corpus, metrics, pipeline
from .llm import HttpBackend, LlmError, MockBackend
from .pipeline import RunConfig, StepBackends
from .prompts import load_templates

ENV_ENDPOINT = "KEYRAG_ENDPOINT"
ENV_API_KEY = "KEYRAG_API_KEY"
ENV_MODEL = "KEYRAG_MODEL"

_CONFIG_KEYS = {
    "endpoint",
    "api_key",
    "model",
    "keyword_model",
    "answer_model",
    "validation_model",
    "top_k",
    "max_iterations",
    "workers",
    "timeout",
}

_STEP_MODELS = ("keyword_model", "answer_model", "validation_model")
# The RunConfig fields a run header records.
_CONFIG_FIELDS = tuple(f.name for f in fields(RunConfig) if f.name != "templates")

# Run header fields that shape a trace: --skip-completed refuses a file written
# with other values. A field an older header lacks is not compared. The endpoint
# and the mock script say where replies come from, so a resumed run may change them.
_RESUME_KEYS = (
    "method", "index_sha256", *_CONFIG_FIELDS, "templates_sha256", "model", *_STEP_MODELS,
    "no_logprobs",
)


class UsageError(Exception):
    pass


def _json_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def _load_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise UsageError(f"config line {line_no}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise UsageError(f"config line {line_no}: unknown key {key!r}")
            values[key] = value.strip()
    return values


def _merged(flag_value, file_values: dict, key: str, env_var: str | None = None, default=None):
    if flag_value is not None:
        return flag_value
    if key in file_values:
        return file_values[key]
    if env_var and os.environ.get(env_var):
        return os.environ[env_var]
    return default


def _check_limit(limit: int | None) -> None:
    if limit is not None and limit < 1:
        raise UsageError(f"--limit must be >= 1, got {limit}")


# --- index -------------------------------------------------------------------


def cmd_index(args) -> int:
    _check_limit(args.limit)
    if args.chunk_size <= 0 or not 0 <= args.overlap < args.chunk_size:
        raise UsageError(
            f"need 0 <= overlap < chunk_size,"
            f" got overlap={args.overlap} chunk_size={args.chunk_size}"
        )
    try:
        params = bm25.Bm25Params(k1=args.k1, b=args.b)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    out = Path(args.out)
    if out.exists() and not args.force:
        raise FileExistsError(f"{out} already exists (use --force to overwrite)")
    stopwords = frozenset()
    if args.stopwords:
        words = Path(args.stopwords).read_text(encoding="utf-8").split()
        stopwords = frozenset(w.lower() for w in words)
    docs = corpus.load_corpus(args.corpus, limit=args.limit)
    n_docs = 0

    def counted(stream):
        nonlocal n_docs
        for doc in stream:
            n_docs += 1
            yield doc

    chunks = corpus.chunk_corpus(
        counted(docs), args.chunk_size, args.overlap, prepend_titles=not args.no_titles
    )
    index = bm25.build_index(chunks, params=params, stopwords=stopwords)
    bm25.save_index(index, out)
    print(
        f"indexed {n_docs} documents into {index.n_docs} chunks"
        f" (vocab {index.vocab_size}, avg chunk length {index.avg_doc_len:.2f} tokens)"
        f" -> {out}"
    )
    return 0


# --- run ---------------------------------------------------------------------


def _run_setting(args, file_values: dict, key: str, kind, default):
    """A run setting as a positive int or float: its flag, else the config file, else default.

    A bad value is a usage error that names the setting, and the config file
    when the value came from there.
    """
    flag_value = getattr(args, key, None)
    value = _merged(flag_value, file_values, key, default=default)
    where = f" (in {args.config})" if flag_value is None and key in file_values else ""
    try:
        number = kind(value)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise UsageError(f"{key} must be {noun}, got {value!r}{where}") from None
    if not 0 < number < math.inf:
        least = ">= 1" if kind is int else "finite and > 0"
        raise UsageError(f"{key} must be {least}, got {value!r}{where}")
    return number


def _backend_settings(args, file_values) -> dict:
    """The endpoint, API key, --model and each step's model, from flags, config file and env.

    A step's model is its own setting, else --model; a step the method never
    calls has none. Without --mock-script, the endpoint and the model of each
    step the method calls must be set.
    """
    model = _merged(args.model, file_values, "model", ENV_MODEL)
    settings = {
        "endpoint": _merged(args.endpoint, file_values, "endpoint", ENV_ENDPOINT),
        "api_key": _merged(args.api_key, file_values, "api_key", ENV_API_KEY),
        "model": model,
        **dict.fromkeys(_STEP_MODELS),
    }
    if not (settings["endpoint"] or args.mock_script):
        raise UsageError("no backend: pass --mock-script or --endpoint (or set KEYRAG_ENDPOINT)")
    called = _STEP_MODELS if args.method == pipeline.METHOD_ITERATIVE else ("answer_model",)
    for key in called:
        settings[key] = _merged(getattr(args, key), file_values, key) or model
        if not (settings[key] or args.mock_script):
            flag = "--" + key.replace("_", "-")
            raise UsageError(f"no model id: pass --model or {flag} (or set KEYRAG_MODEL)")
    return settings


def _build_backends(args, settings, timeout: float, max_in_flight: int) -> StepBackends:
    if args.mock_script:
        return StepBackends.shared(MockBackend.from_script_file(args.mock_script))
    by_model = {  # one backend per model a step uses
        step_model: HttpBackend(
            settings["endpoint"],
            step_model,
            settings["api_key"],
            supports_logprobs=not args.no_logprobs,
            timeout=timeout,
            max_in_flight=max_in_flight,
        )
        for step_model in dict.fromkeys(filter(None, (settings[key] for key in _STEP_MODELS)))
    }
    answer_gen = by_model[settings["answer_model"]]
    # A step the method never calls makes no request: it takes the answer step's backend.
    return StepBackends(
        keyword_gen=by_model.get(settings["keyword_model"], answer_gen),
        answer_gen=answer_gen,
        validate=by_model.get(settings["validation_model"], answer_gen),
    )


def _strip_timings(trace: pipeline.RunTrace) -> None:
    for rec in trace.iterations:
        for step in rec.wall_time_ms:
            rec.wall_time_ms[step] = 0.0


def _block_sigint() -> None:
    """Block SIGINT in this thread and in the threads it starts (POSIX only).

    Python runs signal handlers in the main thread, and a main thread waiting
    on a queue does not wake for a signal that another thread took.
    """
    if hasattr(signal, "pthread_sigmask"):
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})


def cmd_run(args) -> int:
    _check_limit(args.limit)
    file_values = _load_config_file(args.config) if args.config else {}
    workers = _run_setting(args, file_values, "workers", int, 4)
    max_iterations = _run_setting(args, file_values, "max_iterations", int, 5)
    top_k = _run_setting(args, file_values, "top_k", int, 3)
    timeout = _run_setting(args, file_values, "timeout", float, 60.0)
    examples = corpus.load_qa(args.dataset, limit=args.limit)
    if args.method != "vanilla" and not args.index:
        raise UsageError(f"--index is required for method {args.method!r}")

    settings = _backend_settings(args, file_values)
    templates = load_templates(args.templates) if args.templates else None
    config = RunConfig(
        max_iterations=max_iterations,
        top_k=top_k,
        regen_mode="docwise" if args.regen_mode == "docwise" else "keywords_only",
        validation_mode="cot" if args.cot else "plain",
        early_stop=not args.no_early_stop,
        accumulate_validation_docs=args.accumulate_docs,
        save_raw=args.save_raw,
        templates=templates,
    )
    effective = {
        "method": args.method,
        "dataset": str(args.dataset),
        "index": str(args.index) if args.index else None,
        "index_sha256": None,  # set once the index has loaded
        **{name: getattr(config, name) for name in _CONFIG_FIELDS},
        # The wording --templates loaded, whatever directory it came from.
        "templates_sha256": None if templates is None else hashlib.sha256(
            _json_line({tid: vars(t) for tid, t in templates.items()}).encode()
        ).hexdigest(),
        "mock_script": str(args.mock_script) if args.mock_script else None,
        **{key: settings[key] for key in ("model", *_STEP_MODELS, "endpoint")},
        "no_logprobs": args.no_logprobs,
        "workers": workers,
        "no_timings": args.no_timings,
        "n_questions": len(examples),
    }

    out = Path(args.out)
    resume = args.skip_completed and out.exists()
    with ExitStack() as cleanup:
        index = None  # a Future of the Index: the questions start before it has loaded
        if args.method != "vanilla":
            # Only the magic and the version are read here. A file that is not
            # an index of this version fails before any request; the rest loads
            # while the first keyword calls are in flight.
            index_file = cleanup.enter_context(bm25.open_index(args.index))
            index = Future()
        done_qids: set[int] = set()
        write_header = True
        if resume:
            if index:
                # The header check needs the index's digest, so a resumed run
                # loads the index before any question starts.
                index.set_result(bm25.load_index(index_file))
                effective["index_sha256"] = index.result().sha256
            header, rows = read_traces(out)
            written_with = (header or {}).get("config", {})
            for key in _RESUME_KEYS:
                if key in written_with and written_with[key] != effective[key]:
                    raise UsageError(
                        f"cannot resume {out}: it was written with {key}={written_with[key]!r},"
                        f" this run has {key}={effective[key]!r}"
                    )
            write_header = header is None
            # A question whose last trace records an error is run again.
            done_qids = {qid for qid, trace in rows if not trace.error}

        # Each worker runs one question.
        max_in_flight = workers * config.calls_in_flight
        backends = _build_backends(args, settings, timeout, max_in_flight)
        cleanup.callback(backends.close)
        # An --out that cannot be written fails here, before any request. The
        # file is opened to append, so it is left as it was until the index
        # has loaded.
        created = not os.path.lexists(out)
        sink = cleanup.enter_context(open(out, "a", encoding="utf-8"))
        pool = ThreadPoolExecutor(max_workers=workers, initializer=_block_sigint)
        cleanup.callback(pool.shutdown, cancel_futures=True)

        # Ctrl-C only counts and wakes the loop below, which acts on it between
        # whole trace lines. The first drops the queued questions and lets the
        # running ones finish; the second writes no more traces and closes the
        # backends, which ends the running questions' calls at once. Installed
        # before the questions start, restored before the wait for the running
        # ones to end. A run started with SIGINT ignored, as a shell starts a
        # background job, keeps ignoring it.
        finished: queue.SimpleQueue[Future | None] = queue.SimpleQueue()
        interrupts = 0

        def on_sigint(signum, frame):
            nonlocal interrupts
            interrupts += 1
            finished.put(None)  # SimpleQueue.put is safe in a signal handler

        previous = signal.getsignal(signal.SIGINT)
        if previous is not signal.SIG_IGN:
            signal.signal(signal.SIGINT, on_sigint)
            cleanup.callback(signal.signal, signal.SIGINT, previous)

        todo = [(qid, ex.question) for qid, ex in enumerate(examples) if qid not in done_qids]
        errored = 0
        written = 0

        def work(qid: int, question: str):
            try:
                return qid, pipeline.run(args.method, question, index, backends, config)
            except LlmError as exc:
                error = str(exc)
            except Exception as exc:  # a bug, or an OSError from a template: this question fails
                if interrupts > 1:
                    raise  # its backends were closed: no trace of it is written
                if index and index.done() and exc is index.exception():
                    raise  # the index did not load: the run fails, reported once below
                traceback.print_exc()
                error = f"{type(exc).__name__}: {exc}"
            # early_stop as the pipeline records it: only the keyword loop stops early.
            early_stop = args.method == pipeline.METHOD_ITERATIVE and config.early_stop
            return qid, pipeline.RunTrace(question, args.method, early_stop=early_stop, error=error)

        for qid, question in todo:  # each lands in `finished` as it finishes
            pool.submit(work, qid, question).add_done_callback(finished.put)
        if index and not index.done():
            try:
                index.set_result(bm25.load_index(index_file))
            except BaseException as exc:
                # No queued question may start: cancel them before the running
                # ones see the error.
                pool.shutdown(wait=False, cancel_futures=True)
                index.set_exception(exc)
                if created:
                    sink.close()
                    out.unlink()
                raise
            effective["index_sha256"] = index.result().sha256

        if not resume:
            sink.truncate(0)
        if write_header:
            sink.write(_json_line({"v": 1, "kind": "header", "config": effective}) + "\n")
            sink.flush()
        left = len(todo)
        while left:
            future = finished.get()
            if future is None:  # Ctrl-C
                if interrupts > 1:
                    backends.close()  # the running questions' calls end now
                    break  # the traces of finished questions are written
                pool.shutdown(wait=False, cancel_futures=True)  # drop the queued questions
                continue
            left -= 1
            if future.cancelled():
                continue
            qid, trace = future.result()
            if trace.error:
                errored += 1
                print(f"question {qid} failed: {trace.error}", file=sys.stderr)
            if args.no_timings:
                _strip_timings(trace)
            sink.write(_json_line(pipeline.trace_to_dict(trace, qid=qid)) + "\n")
            sink.flush()
            written += 1
            if written % 25 == 0:
                print(f"{written}/{len(todo)} traces written", file=sys.stderr)
        if interrupts:
            print(
                f"interrupted: {written}/{len(todo)} traces preserved in {out}"
                " (resume with --skip-completed)",
                file=sys.stderr,
            )
            return 1

    print(f"wrote {written} traces to {out} ({errored} errored)", file=sys.stderr)
    if todo and errored > 0.10 * len(todo):
        print(f"error: {errored}/{len(todo)} questions failed (>10%)", file=sys.stderr)
        return 1
    return 0


# --- eval --------------------------------------------------------------------


def read_traces(path) -> tuple[dict | None, list[tuple[int, pipeline.RunTrace]]]:
    """Read a trace file; returns (header, traces sorted by question index).

    Within one run, a question traced more than once (a resumed run retries
    failed questions) keeps its last trace. A file may also hold several runs
    one after another, each starting with its header; each keeps its traces. A
    line that is not a trace of this schema raises ValueError naming the line.
    """
    header = None
    runs = 0
    rows: dict[tuple[int, int], tuple[int, pipeline.RunTrace]] = {}
    with open(path, encoding="utf-8") as f:
        for pos, line in enumerate(f):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError(f"not a JSON object: {line.strip()[:40]}")
                if obj.get("kind") == "header":
                    if not isinstance(obj.get("config", {}), dict):
                        raise ValueError("the header's config is not a JSON object")
                    header = obj
                    runs += 1
                    continue
                qid = obj.get("qid", pos)
                if type(qid) is not int:
                    raise ValueError(f"qid {qid!r} is not an integer")
                rows[runs, qid] = (qid, pipeline.trace_from_dict(obj))
            except KeyError as exc:
                raise ValueError(f"{path} line {pos + 1}: no field {exc}") from None
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path} line {pos + 1}: {exc}") from None
    return header, sorted(rows.values(), key=lambda pair: pair[0])


def _align_refs(rows, examples) -> list[tuple[str, ...]]:
    by_question = {}
    for ex in examples:
        by_question.setdefault(ex.question, ex.answers)
    refs: list[tuple[str, ...]] = []
    for qid, trace in rows:
        if qid < len(examples) and examples[qid].question == trace.question:
            refs.append(examples[qid].answers)
        elif trace.question in by_question:
            refs.append(by_question[trace.question])
        else:
            raise UsageError(
                f"trace qid={qid} question does not match the dataset:"
                f" {trace.question[:60]!r}"
            )
    return refs


def _recall_ks(text: str | None) -> list[int]:
    """The ks of --recall-ks: comma-separated integers >= 1."""
    ks = []
    for part in filter(str.strip, (text or "").split(",")):
        try:
            k = int(part)
        except ValueError:
            k = 0
        if k < 1:
            raise UsageError(f"--recall-ks takes integers >= 1, got {part.strip()!r}")
        ks.append(k)
    return ks


def cmd_eval(args) -> int:
    recall_ks = _recall_ks(args.recall_ks)
    header, rows = read_traces(args.traces)
    if not rows:
        print("error: no traces found", file=sys.stderr)
        return 1
    index = bm25.load_index(args.index) if args.index else None
    run_sha = (header or {}).get("config", {}).get("index_sha256")
    if index and run_sha and index.sha256 != run_sha:
        raise UsageError(
            f"{args.index} does not match the run's index (index_sha256 {run_sha[:12]}...);"
            " pass the index the traces were produced with"
        )
    examples = corpus.load_qa(args.dataset)
    refs_list = _align_refs(rows, examples)
    traces = [trace for _, trace in rows]

    text_lookup = None
    if recall_ks:
        if index is None:
            raise UsageError("--recall-ks requires --index to resolve chunk texts")
        run_top_k = (header or {}).get("config", {}).get("top_k")
        if run_top_k is not None:
            too_big = [k for k in recall_ks if k > run_top_k]
            if too_big:
                raise UsageError(
                    f"recall k={too_big[0]} exceeds the run's top_k={run_top_k};"
                    " traces only hold top_k documents per iteration"
                )
        text_lookup = index.text_of

    try:
        result = metrics.evaluate(
            traces, refs_list, mode=args.mode, recall_ks=recall_ks, text_lookup=text_lookup
        )
    except KeyError as exc:
        raise UsageError(
            f"trace references chunk id {exc.args[0]!r} that is not in the index;"
            " pass the index the traces were produced with"
        ) from exc

    _print_report(result)
    if args.out:
        report = {"v": 1, "config": (header or {}).get("config"), "result": result.to_dict()}
        Path(args.out).write_text(_json_line(report) + "\n", encoding="utf-8")
        print(f"report written to {args.out}", file=sys.stderr)
    return 0


def _print_report(result: metrics.EvalResult) -> None:
    print(f"mode             {result.mode}")
    print(f"n                {result.n}")
    print(f"accuracy         {result.accuracy:.4f}")
    print(f"avg_iterations   {result.avg_iterations:.3f}")
    if result.per_iteration_accuracy:
        curve = " ".join(f"{v:.4f}" for v in result.per_iteration_accuracy)
        print(f"per-iteration    {curve}")
    if result.recall_at:
        for k in sorted(result.recall_at):
            curve = " ".join(f"{v:.4f}" for v in result.recall_curves[k])
            print(f"recall@{k}         {result.recall_at[k]:.4f} (by horizon: {curve})")
    if result.deltas and result.deltas.keyword_step_means:
        kw = " ".join(
            f"step{s}={v:.2f}" for s, v in sorted(result.deltas.keyword_step_means.items())
        )
        print(
            f"new keywords     {kw} total={result.deltas.keyword_total:.2f}"
            f" mean={result.deltas.keyword_mean:.2f}"
        )
        docs = " ".join(
            f"step{s}={v:.2f}" for s, v in sorted(result.deltas.doc_step_means.items())
        )
        print(
            f"new documents    {docs} total={result.deltas.doc_total:.2f}"
            f" mean={result.deltas.doc_mean:.2f}"
        )
    if result.latency:
        parts = " ".join(f"{step}={sec:.3f}s" for step, sec in result.latency.items())
        print(f"latency          {parts}")


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="keyrag",
        description="BM25 QA with an LLM loop that iteratively refines search keywords.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="chunk a corpus and build a BM25 index")
    p_index.add_argument("--corpus", required=True, help="JSONL file of {id,title,text}")
    p_index.add_argument("--out", required=True, help="index file to write")
    p_index.add_argument("--chunk-size", type=int, default=256)
    p_index.add_argument("--overlap", type=int, default=50)
    p_index.add_argument("--k1", type=float, default=1.5)
    p_index.add_argument("--b", type=float, default=0.75)
    p_index.add_argument("--stopwords", help="file of stopwords, one per line")
    p_index.add_argument("--no-titles", action="store_true", help="do not prepend titles to chunks")
    p_index.add_argument("--limit", type=int, help="index only the first N documents")
    p_index.add_argument("--force", action="store_true", help="overwrite an existing index")
    p_index.set_defaults(func=cmd_index)

    p_run = sub.add_parser("run", help="answer a QA dataset, writing one trace per question")
    p_run.add_argument("--dataset", required=True, help="JSONL file of {question,answers}")
    p_run.add_argument("--out", required=True, help="trace file to write (JSONL)")
    p_run.add_argument("--method", choices=pipeline.METHODS, default="iterative")
    p_run.add_argument("--index", help="index file (required unless --method vanilla)")
    p_run.add_argument("--mock-script", help="scripted mock backend (JSONL) instead of HTTP")
    p_run.add_argument("--endpoint", help="chat-completions endpoint URL")
    p_run.add_argument("--model", help="model id sent to the endpoint")
    p_run.add_argument("--api-key")
    p_run.add_argument("--keyword-model", help="override model for keyword generation")
    p_run.add_argument("--answer-model", help="override model for answer generation")
    p_run.add_argument("--validation-model", help="override model for answer validation")
    p_run.add_argument("--no-logprobs", action="store_true",
                       help="skip the probability probe; validate via generated text")
    p_run.add_argument("--max-iterations", type=int)
    p_run.add_argument("--top-k", type=int)
    p_run.add_argument("--no-early-stop", action="store_true",
                       help="always run the full iteration budget (needed for verified modes)")
    p_run.add_argument("--regen-mode", choices=["keywords", "docwise"], default="keywords")
    p_run.add_argument("--cot", action="store_true",
                       help="use the step-by-step validation and regeneration prompts")
    p_run.add_argument("--accumulate-docs", action="store_true",
                       help="validation sees all documents retrieved so far")
    p_run.add_argument("--save-raw", action="store_true",
                       help="embed prompts and raw completions in the traces")
    p_run.add_argument("--templates", help="directory of prompt template overrides")
    p_run.add_argument("--workers", type=int)
    p_run.add_argument("--limit", type=int, help="run only the first N questions")
    p_run.add_argument("--skip-completed", action="store_true",
                       help="append, skipping questions already in the output file")
    p_run.add_argument("--no-timings", action="store_true",
                       help="zero wall-time fields for byte-reproducible outputs")
    p_run.add_argument("--config", help="key = value config file")
    p_run.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("eval", help="score a trace file against its dataset")
    p_eval.add_argument("--traces", required=True)
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--mode", choices=metrics.MODES, default="em")
    p_eval.add_argument("--recall-ks", help="comma-separated ks, e.g. 1,3,5")
    p_eval.add_argument("--index", help="index file, required for recall")
    p_eval.add_argument("--out", help="write the report as JSON")
    p_eval.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LlmError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

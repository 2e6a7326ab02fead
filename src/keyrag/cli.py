"""Command-line surface: build indexes, run QA pipelines, evaluate trace files.

Exit codes: 0 success, 1 runtime failure, 2 usage error. A `keyrag run` setting
(_SETTINGS) comes from its flag, else the config file, else its environment
variable, else its default.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import queue
import re
import signal
import sys
import traceback
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import fields
from pathlib import Path

from . import bm25, corpus, pipeline
from .llm import HttpBackend, LlmError, MockBackend
from .pipeline import RunConfig
from .prompts import load_templates

# Each `keyrag run` setting a --config file may hold: its type, the environment
# variable it falls back on, and its default. _settings resolves them all.
_SETTINGS = {
    "workers": (int, None, 4),
    "max_iterations": (int, None, 5),
    "top_k": (int, None, 3),
    "timeout": (float, None, 60.0),
    "endpoint": (str, "KEYRAG_ENDPOINT", None),
    "api_key": (str, "KEYRAG_API_KEY", None),
    "model": (str, "KEYRAG_MODEL", None),
    "keyword_model": (str, None, None),
    "answer_model": (str, None, None),
    "validation_model": (str, None, None),
}

_STEP_MODELS = ("keyword_model", "answer_model", "validation_model")
# The RunConfig fields a run header records, each step's model among them.
_CONFIG_FIELDS = tuple(f.name for f in fields(RunConfig) if f.name != "templates")

# Run header fields that shape a trace: --skip-completed refuses a file written
# with other values. A field an older header lacks is not compared. The endpoint
# and the mock script say where replies come from, so a resumed run may change them.
_RESUME_KEYS = (
    "method", "index_sha256", *_CONFIG_FIELDS, "templates_sha256", "model", "no_logprobs",
)


class UsageError(Exception):
    pass


def _json_line(obj: dict) -> str:
    """obj as one line of JSON. A reply may escape half a surrogate pair (\\ud83d):
    UTF-8 cannot hold it, so each such lone surrogate becomes U+FFFD."""
    line = json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return re.sub("[\ud800-\udfff]", "\ufffd", line)


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
            if key not in _SETTINGS:
                raise UsageError(f"config line {line_no}: unknown key {key!r}")
            values[key] = value.strip()
    return values


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
        f" (vocab {index.vocab_size}, avg chunk length {sum(index.doc_len) / index.n_docs:.2f} tokens)"
        f" -> {out}"
    )
    return 0


# --- run ---------------------------------------------------------------------


def _settings(args) -> dict:
    """Every run setting of _SETTINGS: its flag, else its --config value, else its
    environment variable when that is set and not empty, else its default.

    A number must be a positive integer (int) or a finite positive float: else a
    usage error that names the setting, and the config file when the value came
    from there. A step's model is its own setting, else model; a step the method
    never calls has none. Without --mock-script, the endpoint and the model of
    each step the method calls must be set.
    """
    file_values = _load_config_file(args.config) if args.config else {}
    settings = {}
    for key, (kind, env_var, default) in _SETTINGS.items():
        value, where = getattr(args, key, None), ""
        if value is None and key in file_values:
            value, where = file_values[key], f" (in {args.config})"
        if value is None:
            value = env_var and os.environ.get(env_var) or default
        if kind is not str:
            try:
                number = kind(value)
            except ValueError:
                noun = "an integer" if kind is int else "a number"
                raise UsageError(f"{key} must be {noun}, got {value!r}{where}") from None
            if not 0 < number < math.inf:
                least = ">= 1" if kind is int else "finite and > 0"
                raise UsageError(f"{key} must be {least}, got {value!r}{where}")
            value = number
        settings[key] = value
    if not (settings["endpoint"] or args.mock_script):
        raise UsageError("no backend: pass --mock-script or --endpoint (or set KEYRAG_ENDPOINT)")
    called = _STEP_MODELS if args.method == pipeline.METHOD_ITERATIVE else ("answer_model",)
    for key in _STEP_MODELS:
        settings[key] = (settings[key] or settings["model"]) if key in called else None
        if key in called and not (settings[key] or args.mock_script):
            flag = "--" + key.replace("_", "-")
            raise UsageError(f"no model id: pass --model or {flag} (or set KEYRAG_MODEL)")
    return settings


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
    settings = _settings(args)
    workers = settings["workers"]
    examples = corpus.load_qa(args.dataset, limit=args.limit)
    if args.method != "vanilla" and not args.index:
        raise UsageError(f"--index is required for method {args.method!r}")

    templates = load_templates(args.templates) if args.templates else None
    config = RunConfig(
        max_iterations=settings["max_iterations"],
        top_k=settings["top_k"],
        regen_mode="docwise" if args.regen_mode == "docwise" else "keywords_only",
        validation_mode="cot" if args.cot else "plain",
        early_stop=not args.no_early_stop,
        accumulate_validation_docs=args.accumulate_docs,
        save_raw=args.save_raw,
        templates=templates,
        **{key: settings[key] for key in _STEP_MODELS},
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
        **{key: settings[key] for key in ("model", "endpoint")},
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
        keep = 0  # the bytes of --out the run keeps: on resume, all but a torn last line
        torn: list[tuple[int, int]] = []  # (line number, bytes) of that torn line
        ending = ""  # a newline, when the last line kept is whole but lacks it
        if resume:
            if index:
                # The header check needs the index's digest, so a resumed run
                # loads the index before any question starts.
                index.set_result(bm25.load_index(index_file))
                effective["index_sha256"] = index.result().sha256
            headers, rows = read_traces(out, lambda *line: torn.append(line))
            written_with = headers[-1].get("config", {}) if headers else {}
            for key in _RESUME_KEYS:
                if key in written_with and written_with[key] != effective[key]:
                    raise UsageError(
                        f"cannot resume {out}: it was written with {key}={written_with[key]!r},"
                        f" this run has {key}={effective[key]!r}"
                    )
            write_header = not headers
            keep = out.stat().st_size - sum(size for _, size in torn)
            with open(out, "rb") as f:
                f.seek(max(keep - 1, 0))
                if keep and f.read(1) != b"\n":
                    ending = "\n"
            # A question whose last trace records an error is run again.
            done_qids = {qid for qid, trace in rows if not trace.error}

        pool = ThreadPoolExecutor(max_workers=workers, initializer=_block_sigint)
        cleanup.callback(pool.shutdown, cancel_futures=True)
        if args.mock_script:
            backend = MockBackend.from_script_file(args.mock_script)
        else:  # each request names its step's model; the answer step's is the default
            backend = HttpBackend(
                settings["endpoint"],
                settings["answer_model"],
                settings["api_key"],
                supports_logprobs=not args.no_logprobs,
                timeout=settings["timeout"],
                max_in_flight=workers * config.calls_in_flight,  # each worker runs one question
            )
        # Every way out closes it before the pool's wait: the running questions' calls end.
        cleanup.callback(backend.close)
        # An --out that cannot be written fails here, before any request. The
        # file is opened to append, so it is left as it was until the index
        # has loaded.
        created = not os.path.lexists(out)
        sink = cleanup.enter_context(open(out, "a", encoding="utf-8"))

        # Ctrl-C only counts and wakes the loop below, which acts on it between
        # whole trace lines. The first drops the queued questions and lets the
        # running ones finish; the second writes no more traces and closes the
        # backend, which ends the running questions' calls at once. Installed
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
        # Each question's future, to its (qid, question). A question is read only
        # as its trace is written: one cut by a closed backend or by an index
        # that failed to load is never read, and prints nothing.
        asked: dict[Future, tuple[int, str]] = {}
        for qid, question in todo:  # each lands in `finished` as it finishes
            future = pool.submit(pipeline.run, args.method, question, index, backend, config)
            asked[future] = qid, question
            future.add_done_callback(finished.put)
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

        sink.truncate(keep)
        sink.write(ending)
        for line_no, size in torn:
            print(f"{out} line {line_no}: dropped its {size} bytes, cut short with no"
                  " newline; its question runs again", file=sys.stderr)
        if write_header:
            header = {"v": pipeline.TRACE_SCHEMA_VERSION, "kind": "header", "config": effective}
            sink.write(_json_line(header) + "\n")
            sink.flush()
            os.fsync(sink.fileno())
        while asked:
            future = finished.get()
            if future is None:  # Ctrl-C
                if interrupts > 1:
                    break  # the traces of finished questions are written
                pool.shutdown(wait=False, cancel_futures=True)  # drop the queued questions
                continue
            qid, question = asked.pop(future)
            if future.cancelled():
                continue
            try:
                trace = future.result()
            except Exception as exc:  # this question fails; the run goes on
                if isinstance(exc, LlmError):
                    error = str(exc)
                else:  # a bug, or an OSError from a template
                    traceback.print_exception(exc)
                    error = f"{type(exc).__name__}: {exc}"
                # early_stop as the pipeline records it: only the keyword loop stops early.
                early_stop = args.method == pipeline.METHOD_ITERATIVE and config.early_stop
                trace = pipeline.RunTrace(question, args.method, [], early_stop=early_stop,
                                          error=error)
            if trace.error:
                errored += 1
                print(f"question {qid} failed: {trace.error}", file=sys.stderr)
            if args.no_timings:
                _strip_timings(trace)
            sink.write(_json_line(pipeline.trace_to_dict(trace, qid=qid)) + "\n")
            sink.flush()
            os.fsync(sink.fileno())
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


def read_traces(path, torn=None) -> tuple[list[dict], list[tuple[int, pipeline.RunTrace]]]:
    """Read a trace file; returns (each run's header, traces sorted by question index).

    Within one run, a question traced more than once (a resumed run retries
    failed questions) keeps its last trace. A file may also hold several runs
    one after another, each starting with its header; each keeps its traces. A
    line that is not a trace of this schema with an integer qid, or a header of
    another schema version, whose run config is not a valid RunConfig or whose
    index digest is not a string, raises ValueError naming the line.

    A last line with no newline that is not JSON was cut short as the run that
    wrote it ended. It raises ValueError saying so, or, if torn is given, is
    left out and passed to torn(line number, its length in bytes).
    """
    def refuse_torn(line_no: int, size: int):
        raise ValueError(f"{path} line {line_no}: cut short, with no newline: the run that wrote"
                         " it ended mid-line (keyrag run --skip-completed drops it)")

    headers: list[dict] = []
    rows: dict[tuple[int, int], tuple[int, pipeline.RunTrace]] = {}
    lines = corpus.read_jsonl(path, lambda msg: ValueError(f"{path} {msg}"), torn or refuse_torn)
    for line_no, obj in lines:
        try:
            if obj.get("kind") == "header":
                if obj.get("v") != pipeline.TRACE_SCHEMA_VERSION:
                    raise ValueError(
                        f"run header schema v{obj.get('v')},"
                        f" expected v{pipeline.TRACE_SCHEMA_VERSION}"
                    )
                config = obj.get("config", {})
                if not isinstance(config, dict):
                    raise ValueError("the header's config is not a JSON object")
                # The values eval and resume read: the run config, the index digest.
                corpus.record(RunConfig, {k: v for k, v in config.items() if k in _CONFIG_FIELDS})
                if not isinstance(config.get("index_sha256"), (str, type(None))):
                    raise ValueError(f"index_sha256 is {config['index_sha256']!r:.40}, not str")
                headers.append(obj)
                continue
            if "qid" not in obj:
                raise ValueError("missing 'qid'")
            qid = obj["qid"]
            if type(qid) is not int:
                raise ValueError(f"qid {qid!r} is not an integer")
            rows[len(headers), qid] = (qid, pipeline.trace_from_dict(obj))
        except ValueError as exc:
            raise ValueError(f"{path} line {line_no}: {exc}") from None
    return headers, sorted(rows.values(), key=lambda pair: pair[0])


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
    from . import metrics  # only eval scores traces: `keyrag run` does not load it

    recall_ks = _recall_ks(args.recall_ks)
    headers, rows = read_traces(args.traces)
    if not rows:
        print("error: no traces found", file=sys.stderr)
        return 1
    # A file may hold several runs: each run's header is checked.
    configs = [header.get("config", {}) for header in headers]
    index = bm25.load_index(args.index) if args.index else None
    for config in configs:
        run_sha = config.get("index_sha256")
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
        for config in configs:
            run_top_k = config.get("top_k")
            too_big = [k for k in recall_ks if run_top_k is not None and k > run_top_k]
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
        config = headers[-1].get("config") if headers else None
        report = {"v": 1, "config": config, "result": result.to_dict()}
        Path(args.out).write_text(_json_line(report) + "\n", encoding="utf-8")
        print(f"report written to {args.out}", file=sys.stderr)
    return 0


def _print_report(result) -> None:
    """Print a metrics.EvalResult."""
    print(f"mode             {result.mode}")
    print(f"n                {result.n}")
    print(f"accuracy         {result.accuracy:.4f}")
    print(f"avg_iterations   {result.avg_iterations:.3f}")
    if result.per_iteration_accuracy:
        curve = " ".join(f"{v:.4f}" for v in result.per_iteration_accuracy)
        print(f"per-iteration    {curve}")
    # Steps and ks are the report's string keys, printed in numeric order.
    for k in sorted(result.recall_at or (), key=int):
        curve = " ".join(f"{v:.4f}" for v in result.recall_curves[k])
        print(f"{'recall@' + k:<16} {result.recall_at[k]:.4f} (by horizon: {curve})")
    for label, deltas in [("new keywords", result.keyword_deltas),
                          ("new documents", result.doc_deltas)]:
        if deltas and deltas["per_step"]:
            steps = " ".join(
                f"step{s}={deltas['per_step'][s]:.2f}" for s in sorted(deltas["per_step"], key=int)
            )
            print(f"{label:<17}{steps} total={deltas['total']:.2f} mean={deltas['mean']:.2f}")
    if result.latency_seconds:
        parts = " ".join(f"{step}={sec:.3f}s" for step, sec in result.latency_seconds.items())
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
    p_eval.add_argument("--mode", choices=pipeline.EVAL_MODES, default="em")
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

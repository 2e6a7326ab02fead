from __future__ import annotations

import json
import random
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from keyrag.prompts import (
    TEMPLATES,
    BinaryVerdict,
    KeywordParseError,
    TemplateError,
    dedupe_keywords,
    format_documents,
    format_keywords,
    load_templates,
    parse_cot_verdict,
    parse_keyword_list,
    render,
    verdict_from_text,
)

# Golden copies: any change to the embedded template wording must show up here.

GOLDEN_STEP1_SYSTEM = "You are an assistant that generates keywords for information retrieval."
GOLDEN_STEP1_USER = (
    "Generate a list of important keywords related to the Query: {q}.\n\n"
    "Focus on keywords that are relevant and likely to appear in documents"
    " for BM25 search in the RAG framework.\n\n"
    'Output the keywords as: ["keyword1", "keyword2", "keyword3", ...].\n\n'
    "Separate each keyword with a comma and do not include any additional text."
)

GOLDEN_STEP4_SYSTEM = (
    "You refine keywords to improve document retrieval for BM25 search in the RAG framework."
)
GOLDEN_STEP4_USER = (
    "Refine the keyword selection process to improve the accuracy of"
    " retrieving documents with the correct answer.\n\n"
    "Query: {q}\n\n"
    "Previous Keywords: {K}\n\n"
    'Provide the refined list of keywords in this format: ["keyword1", "keyword2", ...].\n\n'
    "Separate each keyword with a comma and do not include any additional text."
)


def test_step1_template_frozen():
    t = TEMPLATES["step1_keywords"]
    assert t.system == GOLDEN_STEP1_SYSTEM
    assert t.user == GOLDEN_STEP1_USER


def test_step4_template_frozen():
    t = TEMPLATES["step4_regen"]
    assert t.system == GOLDEN_STEP4_SYSTEM
    assert t.user == GOLDEN_STEP4_USER


def test_step2_template_key_lines():
    t = TEMPLATES["step2_answer"]
    assert t.system == "You are an assistant that generates answers based on retrieved documents."
    assert "Here is a question that you need to answer:" in t.user
    assert "Documents: {D}" in t.user
    assert "Provide a clear and concise answer. Do not include any additional text." in t.user


def test_step3_template_key_lines():
    t = TEMPLATES["step3_validate"]
    assert t.system == "You are an assistant that validates whether the provided answer is correct."
    assert t.user.startswith("Is the following answer correct?")
    assert "Answer: {a}" in t.user
    assert "Previous Retrieval Documents: {Docs}" in t.user
    assert "Respond 'True' or 'False'. Do not provide any additional explanation or text." in t.user


def test_docwise_template_key_lines():
    t = TEMPLATES["step4_regen_docwise"]
    assert "Previous Keywords: {K}" in t.user
    assert "Previous Retrieval Documents: {Docs}" in t.user
    assert "Ensure each keyword is separated by a comma, and do not include any additional text." in t.user


def test_cot_templates_key_lines():
    validate = TEMPLATES["step3_validate_cot"]
    assert "Let's think step by step." in validate.user
    assert "Conclusion: True or False" in validate.user
    regen = TEMPLATES["step4_regen_cot"]
    assert "The previous keywords failed to retrieve useful documents for the query: {q}" in regen.user
    assert regen.user.endswith("Refined Keywords:")


# --- rendering -----------------------------------------------------------------


def test_render_step1_substitutes_query():
    messages = render("step1_keywords", {"q": "Who wrote Hamlet?"})
    assert len(messages) == 2
    assert messages[0].role == "system"
    assert messages[1].role == "user"
    assert "Query: Who wrote Hamlet?" in messages[1].content
    assert "{q}" not in messages[1].content


def test_render_step4_keyword_formatting():
    messages = render("step4_regen", {"q": "q?", "K": format_keywords(["apollo 11"])})
    assert 'Previous Keywords: ["apollo 11"]' in messages[1].content


def test_render_missing_binding_names_placeholder():
    with pytest.raises(TemplateError, match="unbound placeholder a"):
        render("step3_validate", {"q": "q?", "Docs": "Document 1: x"})


def test_render_extra_binding_rejected():
    with pytest.raises(TemplateError, match="unexpected binding D"):
        render("step1_keywords", {"q": "q?", "D": "docs"})


def test_render_unknown_template():
    with pytest.raises(TemplateError, match="unknown template"):
        render("step9_nonsense", {"q": "q?"})


def test_render_injective_in_query():
    a = render("step1_keywords", {"q": "first question"})[1].content
    b = render("step1_keywords", {"q": "second question"})[1].content
    assert a != b


def test_render_substitutes_each_placeholder_once():
    # A bound value that holds a placeholder's text is inserted as it is.
    user = render("step2_answer", {"q": "What does {D} mean?", "D": "Document 1: x"})[1].content
    assert "Query: What does {D} mean?\n" in user
    assert user.count("Document 1: x") == 1
    keywords = format_keywords(["{Docs}", "{q}"])
    bindings = {"q": "q?", "K": keywords, "Docs": "Document 1: y"}
    user = render("step4_regen_docwise", bindings)[1].content
    assert f"Previous Keywords: {keywords}\n" in user
    assert user.count("Document 1: y") == 1


def test_format_documents_rank_order():
    rendered = format_documents(["top ranked text", "second text"])
    assert rendered == "Document 1: top ranked text\n\nDocument 2: second text"
    assert format_documents([]) == ""


# --- keyword parsing -------------------------------------------------------------


def test_parse_json_array():
    assert parse_keyword_list('["Moon landing", "Spacecraft", "First humans"]') == [
        "Moon landing",
        "Spacecraft",
        "First humans",
    ]


def test_parse_tolerates_prefix_and_dedupes():
    assert parse_keyword_list('Here are keywords: ["A", "a", "B"]') == ["A", "B"]


def test_parse_comma_fallback():
    assert parse_keyword_list("Moon, Apollo 11, Eagle") == ["Moon", "Apollo 11", "Eagle"]


def test_parse_fallback_with_fences_and_quotes():
    text = "```json\n['Moon', 'Apollo 11']\n```"
    assert parse_keyword_list(text) == ["Moon", "Apollo 11"]


def test_parse_empty_output_raises():
    with pytest.raises(KeywordParseError):
        parse_keyword_list("")
    with pytest.raises(KeywordParseError):
        parse_keyword_list("[]")


@pytest.mark.parametrize("text, keywords", [
    ('["Eiffel", null]', ["Eiffel"]),
    ('[true, 1, 2.5, "x", false]', ["1", "2.5", "x"]),
    ('[["b"], {"k": 1}, "c"]', ["c"]),
])
def test_parse_keeps_only_the_strings_and_numbers_of_a_json_array(text, keywords):
    assert parse_keyword_list(text) == keywords


@pytest.mark.parametrize("text", ["[null]", "[true, false]", '[["b"], {"k": 1}]'])
def test_parse_a_json_array_of_no_string_or_number_raises(text):
    # A reply that gives no keywords is not parsed, so the one-prompt retry asks again.
    with pytest.raises(KeywordParseError):
        parse_keyword_list(text)


def test_parse_never_returns_quotes_or_padding():
    rng = random.Random(5)
    alphabet = string.ascii_letters + ' ",[]\''
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 60)))
        try:
            keywords = parse_keyword_list(text)
        except KeywordParseError:
            continue
        for kw in keywords:
            assert '"' not in kw
            assert kw == kw.strip()
            assert kw != ""


def test_parse_format_round_trip():
    for keywords in (["Moon landing", "Spacecraft"], ["a"], ["x y", "Z-9", "worm hole"]):
        assert parse_keyword_list(format_keywords(keywords)) == keywords


# --- plain verdict parsing (word scan) ---------------------------------------------


def test_verdict_from_text_finds_first_mapping_word():
    assert verdict_from_text("Well, true I think").choice is True
    assert verdict_from_text("the statement is false, not true").choice is False
    assert verdict_from_text("TRUE") == BinaryVerdict(True, None, None, "text-fallback")


def test_verdict_from_text_ignores_non_mapping_words():
    verdict = verdict_from_text("maybe; unclear!")
    assert verdict.choice is False and verdict.flagged


# --- CoT verdict parsing ----------------------------------------------------------


def test_cot_conclusion_true():
    text = "Chain of thought: the documents support it.\nConclusion: True"
    verdict = parse_cot_verdict(text)
    assert verdict.choice is True
    assert not verdict.flagged


def test_cot_conclusion_false_case_insensitive():
    verdict = parse_cot_verdict("Conclusion: false")
    assert verdict.choice is False
    assert not verdict.flagged


def test_cot_last_conclusion_wins():
    text = "Conclusion: False\nwait, revising.\nConclusion: True"
    assert parse_cot_verdict(text).choice is True


def test_cot_missing_conclusion_flags_false():
    verdict = parse_cot_verdict("no conclusion line, answer seems right")
    assert verdict.choice is False
    assert verdict.flagged


def test_cot_fallback_word_scan():
    verdict = parse_cot_verdict("I believe this is true overall.")
    assert verdict.choice is True
    assert not verdict.flagged


# --- template directory overrides --------------------------------------------------


def test_load_templates_overrides(tmp_path):
    (tmp_path / "step1_keywords.txt").write_text(
        "Custom system text.\n---\nCustom user text for {q}.", encoding="utf-8"
    )
    table = load_templates(tmp_path)
    messages = render("step1_keywords", {"q": "probe"}, table)
    assert messages[0].content == "Custom system text."
    assert messages[1].content == "Custom user text for probe."
    # untouched templates still present
    assert "step2_answer" in table


def test_load_templates_requires_separator(tmp_path):
    (tmp_path / "step1_keywords.txt").write_text("no separator", encoding="utf-8")
    with pytest.raises(TemplateError, match="---"):
        load_templates(tmp_path)


@pytest.mark.parametrize("name, text, message", [
    ("step1_keyword.txt", "System.\n---\nKeywords for {q}.", "no built-in template is named"),
    ("step1_keywords.txt", " \n---\nKeywords for {q}.", "empty system text"),
    ("step1_keywords.txt", "System.\n---\n\n", "empty user text"),
    ("step1_keywords.txt", "System.\n---\nKeywords, please.", "placeholders"),
    ("step2_answer.txt", "System.\n---\nQuery: {q}\nDocuments: {D}\nAnswer: {a}", "placeholders"),
], ids=["unknown_id", "empty_system", "empty_user", "missing_placeholder", "extra_placeholder"])
def test_load_templates_refuses_a_file_no_prompt_could_render(tmp_path, name, text, message):
    (tmp_path / name).write_text(text, encoding="utf-8")
    with pytest.raises(TemplateError, match=f"^{name}: .*{message}"):
        load_templates(tmp_path)


# --- parser properties ---------------------------------------------------------

# Text built from the characters the parsers look for, plus arbitrary text.
_reply_text = st.text(alphabet=st.sampled_from('[]",\n `abTrueFalsconi:')) | st.text()


# JSON arrays of mixed values; their strings hold no bracket, so the array is the
# first balanced [...] span of its own text.
_json_scalar = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(alphabet=st.characters(blacklist_characters="[]")))
_json_array = st.lists(_json_scalar | st.lists(_json_scalar)
                       | st.dictionaries(st.sampled_from("abc"), _json_scalar))


@given(_reply_text | _json_array.map(json.dumps))
def test_parse_keyword_list_gives_non_empty_stripped_unique_strings_or_raises(text):
    try:
        keywords = parse_keyword_list(text)
    except KeywordParseError:
        return
    assert keywords
    for keyword in keywords:
        assert isinstance(keyword, str) and keyword == keyword.strip() and keyword
    assert len({keyword.casefold() for keyword in keywords}) == len(keywords)


@given(_json_array)
def test_parse_keyword_list_reads_the_strings_and_numbers_of_a_json_array(items):
    kept = [item for item in items if type(item) in (str, int, float)]
    try:
        keywords = parse_keyword_list(json.dumps(items))
    except KeywordParseError:
        keywords = []
    assert keywords == dedupe_keywords(kept)


@given(_reply_text)
def test_verdict_parsers_never_raise(text):
    assert isinstance(parse_cot_verdict(text), BinaryVerdict)
    assert isinstance(verdict_from_text(text), BinaryVerdict)

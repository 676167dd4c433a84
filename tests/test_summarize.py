"""QA-consistency tests: agreement canonicalization, mock client behavior,
identity/worst-case score ordering, hand-computed averages, retries of a
failing summarize or judge call, candidate selection, question-set
blindness and the question file format."""

import numpy as np
import pytest

from clef import summarize as sm
from clef.cohortgen import default_phenotypes, generate_records
from clef.config import CHANNELS_DESK, CohortConfig
from clef.errors import DataError

MOCK = sm.MockLlmClient()


# ---------------------------------------------------------------------------
# agreement


def test_boolean_agreement():
    assert sm.agreement("yes", "yes", "boolean", MOCK) == 1.0
    assert sm.agreement("Yes", "YES", "boolean", MOCK) == 1.0
    assert sm.agreement("yes", "no", "boolean", MOCK) == 0.0
    assert sm.agreement("true", "yes", "boolean", MOCK) == 1.0


def test_integer_agreement_canonicalization():
    assert sm.agreement("8", "8.0", "integer", MOCK) == 1.0
    assert sm.agreement("8", "9", "integer", MOCK) == 0.0
    assert sm.agreement("none", "8", "integer", MOCK) == 0.0
    assert sm.canonical_integer("between 8 and 10 Hz") == 8.0  # the first
    assert sm.canonical_integer("none") is None


def test_free_text_jaccard():
    assert sm.agreement("a b", "a c", "free_text", MOCK) == pytest.approx(1 / 3)
    assert sm.agreement("same words", "same words", "free_text", MOCK) == 1.0
    assert MOCK.judge_similarity("", "") == 1.0


def test_unknown_kind_rejected():
    with pytest.raises(DataError):
        sm.Question("bad", "maybe")
    with pytest.raises(DataError):
        sm.agreement("a", "b", "maybe", MOCK)


# ---------------------------------------------------------------------------
# mock client answers


def test_mock_boolean_with_negation():
    q = sm.Question("Is there generalized slowing?", "boolean")
    assert MOCK.answer("The record shows generalized slowing.", q) == "yes"
    assert MOCK.answer("There is no generalized slowing.", q) == "no"
    assert MOCK.answer("A normal study.", q) == "no"


def test_mock_integer_counts_findings():
    q = sm.Question("How many findings are reported?", "integer")
    text = ("The record shows generalized slowing. "
            "The record shows diffuse beta activity. Impedances were fine.")
    assert MOCK.answer(text, q) == "2"


def test_mock_free_text_returns_matching_sentence():
    q = sm.Question("Describe the posterior dominant rhythm.", "free_text")
    text = "Technical quality adequate. The posterior dominant rhythm is absent."
    assert "posterior dominant rhythm" in MOCK.answer(text, q)


# ---------------------------------------------------------------------------
# scoring


def _reports(n=6, seed=30):
    cfg = CohortConfig(n_patients=40)
    records, _ = generate_records(cfg, seed=seed)
    reports = [r.report for r in records if r.report]
    return reports[:n]


def _questions():
    return sm.default_questions(default_phenotypes(CHANNELS_DESK))


def test_identity_summarizer_perfect_score():
    cand = sm.Candidate("identity", "repeat the report verbatim", 10_000)
    result = sm.qa_consistency(_reports(), _questions(), cand, MOCK)
    assert result.score == 1.0
    assert result.failures == 0


def test_wrong_report_scores_strictly_lower():
    reports = _reports()

    class SwapClient(sm.MockLlmClient):
        def __init__(self, pool):
            self.pool = pool

        def summarize(self, report, prompt, max_tokens):
            i = self.pool.index(report)
            return self.pool[(i + 1) % len(self.pool)]

    cand = sm.Candidate("swap", "verbatim", 10_000)
    swapped = sm.qa_consistency(reports, _questions(), cand, SwapClient(reports))
    identity = sm.qa_consistency(reports, _questions(),
                                 sm.Candidate("id", "verbatim", 10_000), MOCK)
    assert swapped.score < identity.score


def test_hand_average_flipped_answer():
    # 2 reports x 2 boolean questions, exactly one flipped answer -> 0.75
    class FlipClient(sm.LlmClient):
        def summarize(self, report, prompt, max_tokens):
            return report

        def answer(self, text, question):
            if "second" in question.text and "[SUMMARY]" in text:
                return "no"
            return "yes"

        def judge_similarity(self, a, b):
            return 1.0

    class TagClient(FlipClient):
        def summarize(self, report, prompt, max_tokens):
            return report + " [SUMMARY]" if report == "r1" else report

    questions = [sm.Question("first finding?", "boolean"),
                 sm.Question("second finding?", "boolean")]
    result = sm.qa_consistency(["r1", "r2"], questions,
                               sm.Candidate("p", "x", 100), TagClient())
    assert result.score == 0.75


def test_score_bounds_and_monotone_degradation():
    reports = _reports()
    questions = _questions()

    class DropClient(sm.MockLlmClient):
        def __init__(self, n_drop, seed):
            self.n_drop = n_drop
            self.seed = seed

        def summarize(self, report, prompt, max_tokens):
            sents = [s for s in report.split(".") if s.strip()]
            rng = np.random.default_rng(self.seed)
            findings = [i for i, s in enumerate(sents)
                        if "the record shows" in s.lower()]
            drop = set(rng.choice(findings,
                                  size=min(self.n_drop, len(findings)),
                                  replace=False))
            return ". ".join(s for i, s in enumerate(sents) if i not in drop)

    cand = sm.Candidate("p", "x", 10_000)
    prev = 1.01
    for n_drop in (0, 1, 2, 3):
        scores = [sm.qa_consistency(reports, questions, cand,
                                    DropClient(n_drop, seed)).score
                  for seed in (0, 1, 2)]
        s = float(np.mean(scores))
        assert 0.0 <= s <= prev + 1e-9
        prev = s


class _FlakyClient(sm.MockLlmClient):
    """The mock, but its method ``failing`` always raises ``error``;
    counts those calls."""

    def __init__(self, failing, error):
        self.calls = 0

        def fail(*_args):
            self.calls += 1
            raise error
        setattr(self, failing, fail)


def _score_flaky(failing, error):
    """(score, question count) of one report under ``_FlakyClient``, after
    checking that the failing call was tried twice and counted once."""
    questions = _questions()
    client = _FlakyClient(failing, error)
    result = sm.qa_consistency(["only report"], questions,
                               sm.Candidate("p", "x", 100), client)
    assert client.calls == 2  # initial call plus one retry
    assert result.failures == 1
    return result.score, len(questions)


def test_retries_then_counted_as_failure():
    """A failing summarize call zeroes its whole report."""
    score, _ = _score_flaky("summarize", ConnectionError("down"))
    assert score == 0.0


def test_failing_judge_is_retried_then_counted():
    """A failing judge call zeroes only its free-text question; the others
    agree, since the summary is the report."""
    score, n_questions = _score_flaky("judge_similarity",
                                      RuntimeError("not a number"))
    assert score == pytest.approx(1 - 1 / n_questions)


# ---------------------------------------------------------------------------
# selection


def _score(cand, s):
    return sm.ScoreResult(candidate=cand, score=s)


def test_select_single_candidate():
    c = sm.Candidate("a", "x", 128)
    assert sm.select_candidate([_score(c, 0.5)]) == c


def test_select_argmax():
    cands = [sm.Candidate(p, "x", 256) for p in "abc"]
    scores = [_score(cands[0], 0.84), _score(cands[1], 0.87),
              _score(cands[2], 0.79)]
    assert sm.select_candidate(scores) == cands[1]


def test_select_tie_break_lexicographic():
    c1 = sm.Candidate("b", "x", 128)
    c2 = sm.Candidate("a", "x", 512)
    c3 = sm.Candidate("a", "x", 256)
    picked = sm.select_candidate([_score(c1, 0.9), _score(c2, 0.9),
                                  _score(c3, 0.9)])
    assert picked == c3  # lowest (prompt_id, max_tokens)
    with pytest.raises(DataError):
        sm.select_candidate([])


# ---------------------------------------------------------------------------
# blindness


def test_summaries_blind_to_question_set():
    reports = _reports(3)
    cand = sm.Candidate("findings", "findings only", 10_000)

    class RecordingClient(sm.MockLlmClient):
        def __init__(self):
            self.summaries = []

        def summarize(self, report, prompt, max_tokens):
            out = super().summarize(report, prompt, max_tokens)
            self.summaries.append(out)
            return out

    base_client = RecordingClient()
    sm.qa_consistency(reports, _questions(), cand, base_client)
    canary_client = RecordingClient()
    canary = _questions() + [sm.Question("CANARY: is the sky green?", "boolean")]
    sm.qa_consistency(reports, canary, cand, canary_client)
    assert base_client.summaries == canary_client.summaries


# ---------------------------------------------------------------------------
# question file


def test_question_file_roundtrip(tmp_path):
    questions = _questions()
    path = tmp_path / "questions.tsv"
    path.write_text("".join(f"{q.kind}\t{q.text}\n" for q in questions))
    back = sm.read_questions(path)
    assert back == questions
    (tmp_path / "bad.tsv").write_text("maybe\tIs it?\n")
    with pytest.raises(DataError):
        sm.read_questions(tmp_path / "bad.tsv")
    (tmp_path / "empty.tsv").write_text("\n")
    with pytest.raises(DataError):
        sm.read_questions(tmp_path / "empty.tsv")

"""Summarizer selection by QA-consistency scoring.

A candidate (prompt, output length) is scored by summarizing each report,
answering a fixed clinical question set on both the raw and summarized text,
and averaging per-question agreement: exact match for boolean and integer
answers after canonicalization, judged similarity for free text.  The
summarization call path never sees the question set.

The LLM behind summarize/answer/judge is an abstract client, through which
tests substitute fakes.  ``select-prompt`` runs the in-process deterministic
mock, which answers by keyword lookup against the cohort's phrase inventory
and judges free text by token Jaccard, so the whole selection loop runs
without model weights or a network.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import DataError

_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?")

QUESTION_KINDS = ("boolean", "integer", "free_text")


@dataclass(frozen=True)
class Question:
    text: str
    kind: str

    def __post_init__(self):
        if self.kind not in QUESTION_KINDS:
            raise DataError(f"unknown question kind {self.kind!r}")


@dataclass(frozen=True)
class Candidate:
    prompt_id: str
    prompt: str
    max_tokens: int  # one of 128 / 256 / 512 at full scale

    @property
    def key(self) -> tuple[str, int]:
        return (self.prompt_id, self.max_tokens)


class LlmClient:
    """Abstract LLM interface; implementations must be deterministic per input."""

    def summarize(self, report: str, prompt: str, max_tokens: int) -> str:
        raise NotImplementedError

    def answer(self, text: str, question: Question) -> str:
        raise NotImplementedError

    def judge_similarity(self, a: str, b: str) -> float:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# canonicalization and agreement

_STOPWORDS = frozenset(
    "is are there any the a an of does do record study show shows describe "
    "what how many was were report patient this".split())


def question_keywords(question: Question) -> list[str]:
    words = [w.strip("?.,;:").lower() for w in question.text.split()]
    return [w for w in words if w and w not in _STOPWORDS]


def canonical_boolean(answer: str) -> str:
    a = answer.strip().casefold()
    if a in ("yes", "y", "true", "present"):
        return "yes"
    if a in ("no", "n", "false", "absent"):
        return "no"
    return a


def canonical_integer(answer: str) -> float | None:
    """The first numeral parsed from the answer, or ``None``."""
    found = _NUMBER_RE.search(answer)
    return float(found.group()) if found else None


def agreement(ans_a: str, ans_b: str, kind: str, client: LlmClient) -> float:
    if kind == "boolean":
        return 1.0 if canonical_boolean(ans_a) == canonical_boolean(ans_b) else 0.0
    if kind == "integer":
        va = canonical_integer(ans_a)
        vb = canonical_integer(ans_b)
        return 1.0 if va is not None and va == vb else 0.0
    if kind == "free_text":
        return float(client.judge_similarity(ans_a, ans_b))
    raise DataError(f"unknown question kind {kind!r}")


# ---------------------------------------------------------------------------
# deterministic mock client


def _sentences(text: str) -> list[str]:
    return [s.strip() for s in text.split(".") if s.strip()]


class MockLlmClient(LlmClient):
    """Keyword-lookup answers over the report's findings sentences.

    Prompts containing the word "findings" keep only findings sentences in
    the summary; every summary is truncated to ``max_tokens`` words.
    """

    def summarize(self, report: str, prompt: str, max_tokens: int) -> str:
        if "findings" in prompt.lower():
            kept = [s for s in _sentences(report)
                    if "the record shows" in s.lower()
                    or "there is no" in s.lower()
                    or "normal study" in s.lower()]
            text = ". ".join(kept)
        else:
            text = report
        words = text.split()
        return " ".join(words[:max_tokens])

    def answer(self, text: str, question: Question) -> str:
        lowered = text.lower()
        keywords = question_keywords(question)
        phrase = " ".join(keywords)
        if question.kind == "boolean":
            if f"no {phrase}" in lowered:
                return "no"
            return "yes" if phrase and phrase in lowered else "no"
        if question.kind == "integer":
            if keywords and keywords[0] in ("findings", "finding"):
                return str(sum("the record shows" in s.lower()
                               for s in _sentences(text)))
            for sentence in _sentences(text):
                if any(k in sentence.lower() for k in keywords):
                    value = canonical_integer(sentence)
                    if value is not None:
                        return str(value)
            return "0"
        for sentence in _sentences(text):
            if any(k in sentence.lower() for k in keywords):
                return sentence
        return ""

    def judge_similarity(self, a: str, b: str) -> float:
        ta = set(a.lower().split())
        tb = set(b.lower().split())
        if not ta and not tb:
            return 1.0
        union = ta | tb
        return len(ta & tb) / len(union)


# ---------------------------------------------------------------------------
# scoring


@dataclass
class ScoreResult:
    candidate: Candidate
    score: float
    failures: int = 0


def _with_retries(fn, retries: int):
    """``(fn(), True)``, or ``(None, False)`` once every try has raised."""
    for _ in range(retries + 1):
        try:
            return fn(), True
        except (OSError, RuntimeError):
            pass
    return None, False


def qa_consistency(reports: list[str], questions: list[Question],
                   candidate: Candidate, client: LlmClient,
                   retries: int = 1) -> ScoreResult:
    """S(p, l): mean agreement between raw-report and summary answers.

    Failed client calls are retried, then counted as zero agreement.
    The summarize call receives only the report and the candidate prompt;
    the question set stays on this side of the interface.
    """
    if not reports or not questions:
        raise DataError("qa_consistency needs at least one report and question")
    by_question = np.zeros(len(questions))
    failures = 0
    for report in reports:
        summary, ok = _with_retries(
            lambda: client.summarize(report, candidate.prompt,
                                     candidate.max_tokens), retries)
        if not ok:
            failures += 1
            continue  # every question disagrees for this report
        for j, q in enumerate(questions):
            def score_one(q=q, summary=summary, report=report):
                a_raw = client.answer(report, q)
                a_sum = client.answer(summary, q)
                return agreement(a_raw, a_sum, q.kind, client)
            sigma, ok = _with_retries(score_one, retries)
            if not ok:
                failures += 1
                sigma = 0.0
            by_question[j] += sigma
    by_question /= len(reports)
    return ScoreResult(candidate=candidate, score=float(by_question.mean()),
                       failures=failures)


def select_candidate(scores: list[ScoreResult]) -> Candidate:
    """Argmax of S with a lexicographic tie-break on (prompt id, length)."""
    if not scores:
        raise DataError("no candidates to select from")
    best_score = max(r.score for r in scores)
    top = [r.candidate for r in scores if r.score == best_score]
    return min(top, key=lambda c: c.key)


# ---------------------------------------------------------------------------
# question-set file and defaults


def default_questions(phenotypes) -> list[Question]:
    out = [Question(f"Is there {p.report_phrases[0]}?", "boolean")
           for p in phenotypes]
    out.append(Question("How many findings are reported?", "integer"))
    out.append(Question("Describe the posterior dominant rhythm.", "free_text"))
    return out


def read_questions(path) -> list[Question]:
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            kind, sep, text = line.partition("\t")
            if not sep or kind not in QUESTION_KINDS:
                raise DataError(f"{path}:{lineno}: bad question line {line!r}")
            out.append(Question(text, kind))
    if not out:
        raise DataError(f"{path}: empty question set")
    return out

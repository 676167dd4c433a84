"""Summarizer selection by QA-consistency scoring.

A candidate (prompt, output length) is scored by summarizing each report,
answering a fixed clinical question set on both the raw and summarized text,
and averaging per-question agreement: exact match for boolean and integer
answers after canonicalization, judged similarity for free text.  The
summarization call path never sees the question set.

The LLM behind summarize/answer/judge is an abstract client; the
deterministic mock answers by keyword lookup against the cohort's phrase
inventory and judges free text by token Jaccard, so the whole selection
loop is testable without model weights.
"""

from __future__ import annotations

import json
import re
import socket
from dataclasses import dataclass, field

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


def canonical_integer(answer: str) -> tuple[float | None, bool]:
    """(first numeral parsed from the answer, multi-numeral flag)."""
    found = _NUMBER_RE.findall(answer)
    if not found:
        return None, False
    return float(found[0]), len(found) > 1


def agreement(ans_a: str, ans_b: str, kind: str, client: LlmClient) -> float:
    if kind == "boolean":
        return 1.0 if canonical_boolean(ans_a) == canonical_boolean(ans_b) else 0.0
    if kind == "integer":
        va, _ = canonical_integer(ans_a)
        vb, _ = canonical_integer(ans_b)
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
                    value, _multi = canonical_integer(sentence)
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
# line-delimited socket client


class SocketLlmClient(LlmClient):
    """JSON-per-line request/response over a local TCP socket.

    Request:  {"op": "summarize"|"answer"|"judge", ...}\\n
    Response: {"ok": true, "text": ...} or {"ok": false, "error": ...}\\n
    """

    def __init__(self, address: str, timeout_s: float = 30.0):
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise DataError(f"bad socket address {address!r}, expected host:port")
        self.host, self.port = host, int(port)
        self.timeout_s = timeout_s

    def _call(self, payload: dict) -> str:
        """The reply's text; a reply that is not a JSON object, or that says
        ``ok: false``, is a ``RuntimeError`` (retried and counted)."""
        with socket.create_connection((self.host, self.port),
                                      timeout=self.timeout_s) as conn:
            conn.sendall(json.dumps(payload).encode() + b"\n")
            with conn.makefile("rb") as fh:
                line = fh.readline()
        if not line:
            raise ConnectionError("empty response from LLM server")
        try:
            response = json.loads(line)
            ok = response.get("ok")
        except (ValueError, AttributeError):
            raise RuntimeError(f"LLM server reply is not a JSON object: "
                               f"{line[:80]!r}") from None
        if not ok:
            raise RuntimeError(f"LLM server error: {response.get('error')}")
        return str(response.get("text", ""))

    def summarize(self, report: str, prompt: str, max_tokens: int) -> str:
        return self._call({"op": "summarize", "report": report,
                           "prompt": prompt, "max_tokens": max_tokens})

    def answer(self, text: str, question: Question) -> str:
        return self._call({"op": "answer", "text": text,
                           "question": question.text, "kind": question.kind})

    def judge_similarity(self, a: str, b: str) -> float:
        text = self._call({"op": "judge", "a": a, "b": b})
        try:
            return float(text)
        except ValueError:
            raise RuntimeError(f"LLM judge reply is not a number: "
                               f"{text[:80]!r}") from None


# ---------------------------------------------------------------------------
# scoring


@dataclass
class ScoreResult:
    candidate: Candidate
    score: float
    per_question: list[float]
    failures: int = 0


def _with_retries(fn, retries: int):
    last = None
    for _ in range(retries + 1):
        try:
            return fn(), True
        except (ConnectionError, RuntimeError, TimeoutError, OSError) as exc:
            last = exc
    return last, False


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
    per_question = np.zeros(len(questions))
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
            per_question[j] += sigma
    per_question /= len(reports)
    return ScoreResult(candidate=candidate, score=float(per_question.mean()),
                       per_question=per_question.tolist(), failures=failures)


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


def write_questions(path, questions: list[Question]) -> None:
    with open(path, "w") as fh:
        for q in questions:
            fh.write(f"{q.kind}\t{q.text}\n")


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

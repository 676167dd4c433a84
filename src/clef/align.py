"""Stage II cross-modal alignment.

Report text runs through the report encoder's frozen text features (seeded
character-trigram hashing, one feature row per word), is cut to
``text_max_len`` words, and goes through a linear projection, a
learnable-position self-attention refiner, and masked mean pooling.  EHR
facts run through a permutation-invariant set encoder over demographic,
diagnosis, and medication codebooks.  Both are aligned to the pooled EEG
embedding u with a symmetric InfoNCE loss; sessions without a report are
excluded from the report loss as positives and negatives alike.  The EEG
side is Stage I's ``mim.SessionEncoder``, held as ``eeg`` and trained with
the rest, so the Stage II checkpoint names its weights as Stage I's does.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from . import grad, mim
from .config import (AlignConfig, EhrSlotConfig, N_AGE_BINS, RACE_CATEGORIES,
                     SEX_CATEGORIES, age_bin)


# ---------------------------------------------------------------------------
# text provider


class HashedNgramProvider:
    """Character-trigram hashing per word, through a fixed seeded projection.

    Dependency-free stand-in for a frozen pretrained text encoder: the same
    text always maps to the same features, and texts differing in any word
    differ somewhere in feature space with overwhelming probability.
    """

    dim = 768

    def __init__(self):
        rng = np.random.default_rng(1234)
        self.projection = rng.normal(
            0.0, 1.0 / np.sqrt(self.dim), size=(self.dim, self.dim)
        ).astype(np.float32)
        self._word_cache: dict[str, np.ndarray] = {}
        self._text_cache: dict[str, np.ndarray] = {}

    def _word_feature(self, word: str) -> np.ndarray:
        cached = self._word_cache.get(word)
        if cached is not None:
            return cached
        buckets = np.zeros(self.dim, dtype=np.float32)
        padded = f"^{word}$"
        for i in range(len(padded) - 2):
            gram = padded[i:i + 3].encode()
            digest = hashlib.blake2b(gram, digest_size=8).digest()
            value = int.from_bytes(digest, "little")
            buckets[value % self.dim] += 1.0 if (value >> 32) & 1 else -1.0
        norm = np.linalg.norm(buckets)
        if norm > 0:
            buckets /= norm
        feature = buckets @ self.projection
        self._word_cache[word] = feature
        return feature

    def embed(self, text: str) -> np.ndarray:
        """(words, dim) features, one row per word; a text without words is
        a single zero row.  Built once per text and returned read-only."""
        cached = self._text_cache.get(text)
        if cached is not None:
            return cached
        words = [w.strip(".,;:()").lower() for w in text.split()]
        words = [w for w in words if w]
        if not words:
            feats = np.zeros((1, self.dim), dtype=np.float32)
        else:
            feats = np.stack([self._word_feature(w) for w in words])
        feats.flags.writeable = False
        self._text_cache[text] = feats
        return feats


# ---------------------------------------------------------------------------
# EHR inputs

Vocab = tuple[list[str], list[str]]  # cohortgen.vocabularies: (dx, med)


def ehr_slots(records, vocab: Vocab, slots: EhrSlotConfig
              ) -> tuple[np.ndarray, np.ndarray]:
    """Every record's EHR view, built once per run: slot ids (R, S) laid out
    [age, sex, race] + ``dx_slots`` + ``med_slots``, and the mask of filled
    slots.  Each code set is sorted by id, deduplicated and cut to its lowest
    ids (set semantics become exact bit-level invariance); a code outside
    ``vocab`` is left out."""
    tables = [(3, slots.dx_slots, {c: i for i, c in enumerate(vocab[0])}),
              (3 + slots.dx_slots, slots.med_slots,
               {c: i for i, c in enumerate(vocab[1])})]
    ids = np.zeros((len(records), 3 + slots.dx_slots + slots.med_slots), np.int64)
    mask = np.zeros(ids.shape, dtype=bool)
    mask[:, :3] = True
    for row, rec in enumerate(records):
        ids[row, :3] = (age_bin(rec.age_years), SEX_CATEGORIES.index(rec.sex),
                        RACE_CATEGORIES.index(rec.race))
        for (start, width, index), codes in zip(
                tables, (rec.diagnoses, rec.medications)):
            kept = sorted({index[c] for c in codes if c in index})[:width]
            ids[row, start:start + len(kept)] = kept
            mask[row, start:start + len(kept)] = True
    return ids, mask


# ---------------------------------------------------------------------------
# encoders


def _refine(view: ReportEncoder | EhrEncoder, x: grad.Tensor,
            mask: np.ndarray) -> grad.Tensor:
    """The view's refiner, layer norm and masked mean: (B, L, d) -> (B, d)."""
    bias = mim._attention_bias(mask)
    for block in view.blocks:
        x = block(x, bias)
    x = grad.layernorm(x, view.ln_g, view.ln_b)
    return grad.mean_pool_masked(x, grad.Tensor(mask.astype(grad.DTYPE)))


class ReportEncoder(grad.Module):
    def __init__(self, cfg: AlignConfig, d: int, rng: np.random.Generator):
        self.provider = HashedNgramProvider()  # frozen: no weight, no draw
        self.w_in = grad.param((HashedNgramProvider.dim, d), rng)
        self.b_in = grad.param((d,), rng, zeros=True)
        self.pos = grad.param((cfg.text_max_len, d), rng, scale=0.02)
        self.blocks = mim._stack(cfg.refiner_depth, d, cfg.n_heads, rng)
        self.ln_g, self.ln_b = mim._ln_params(d)

    def __call__(self, feats: np.ndarray, mask: np.ndarray) -> grad.Tensor:
        """feats: (B, L, 768), mask: (B, L) -> (B, d)."""
        x = grad.matmul(grad.Tensor(feats), self.w_in) + self.b_in
        x = x + grad.reshape(self.pos, (1,) + self.pos.shape)
        return _refine(self, x, mask)


class EhrEncoder(grad.Module):
    def __init__(self, cfg: AlignConfig, d: int, vocab: Vocab,
                 rng: np.random.Generator):
        self.slots = cfg.ehr
        self.e_age = grad.param((N_AGE_BINS, d), rng, scale=0.02)
        self.e_sex = grad.param((len(SEX_CATEGORIES), d), rng, scale=0.02)
        self.e_race = grad.param((len(RACE_CATEGORIES), d), rng, scale=0.02)
        self.e_dx = grad.param((len(vocab[0]), d), rng, scale=0.02)
        self.e_med = grad.param((len(vocab[1]), d), rng, scale=0.02)
        self.blocks = mim._stack(cfg.refiner_depth, d, cfg.n_heads, rng)
        self.ln_g, self.ln_b = mim._ln_params(d)

    def __call__(self, ids: np.ndarray, mask: np.ndarray) -> grad.Tensor:
        """``ehr_slots`` rows: ids and mask (B, S) -> (B, d)."""
        b, dx_end = len(ids), 3 + self.slots.dx_slots
        demo = grad.concat([
            grad.reshape(grad.getitem(table, ids[:, i]), (b, 1, -1))
            for i, table in enumerate((self.e_age, self.e_sex, self.e_race))],
            axis=1)
        x = grad.concat([demo,
                         grad.getitem(self.e_dx, ids[:, 3:dx_end]),
                         grad.getitem(self.e_med, ids[:, dx_end:])], axis=1)
        # padded slots carry index-0 embeddings but are attention-masked and
        # excluded from pooling, so their content never reaches the output
        return _refine(self, x, mask)


# ---------------------------------------------------------------------------
# contrastive loss


def _l2_normalize(x: grad.Tensor) -> grad.Tensor:
    sq = grad.sum_(grad.mul(x, x), axis=-1, keepdims=True)
    return grad.mul(x, grad.power(sq + 1e-12, -0.5))


def clip_loss(a: grad.Tensor, b: grad.Tensor, tau: float) -> grad.Tensor:
    """Symmetric InfoNCE over the paired rows of ``a`` and ``b``; zero rows
    give a zero loss."""
    n = a.shape[0]
    if n == 0:
        return grad.Tensor(np.zeros((), dtype=grad.DTYPE))
    a_n, b_n = _l2_normalize(a), _l2_normalize(b)
    logits = grad.mul(grad.matmul(a_n, grad.transpose(b_n, (1, 0))), 1.0 / tau)
    targets = np.arange(n)
    ab = grad.cross_entropy_with_label_smoothing(logits, targets, 0.0)
    ba = grad.cross_entropy_with_label_smoothing(
        grad.transpose(logits, (1, 0)), targets, 0.0)
    return grad.mul(ab + ba, 0.5)


# ---------------------------------------------------------------------------
# Stage II model


class AlignModel(grad.Module):
    """The report and EHR encoders and their projections, drawn from
    ``rng``, around the session encoder ``eeg`` that Stage I trained; u,
    v_rep and v_ehr share the encoder's width."""

    def __init__(self, cfg: AlignConfig, encoder: mim.SessionEncoder,
                 vocab: Vocab, rng: np.random.Generator):
        d = encoder.cfg.d_model
        self.report_encoder = ReportEncoder(cfg, d, rng)
        self.ehr_encoder = EhrEncoder(cfg, d, vocab, rng)
        self.pi_rep = grad.param((d, d), rng)
        self.pi_ehr = grad.param((d, d), rng)
        self.cfg = cfg
        self.eeg = encoder


def report_embed(texts: list[str], encoder: ReportEncoder) -> grad.Tensor:
    """Each text's first word rows, one per encoder position, padded."""
    max_len = encoder.pos.shape[0]
    feats = np.zeros((len(texts), max_len, encoder.provider.dim), np.float32)
    mask = np.zeros((len(texts), max_len), dtype=bool)
    for i, text in enumerate(texts):
        f = encoder.provider.embed(text)[:max_len]
        feats[i, :len(f)] = f
        mask[i, :len(f)] = True
    return encoder(feats, mask)


@dataclass
class AlignBatch:
    """Stage II inputs, one row per record; ``take`` slices a step's rows."""
    ids: np.ndarray             # (B, N) token grids
    patches: np.ndarray         # (B, N, P)
    texts: list[str]            # "" where absent
    report_present: np.ndarray  # (B,)
    ehr: np.ndarray             # (B, S) ``ehr_slots`` ids
    ehr_mask: np.ndarray        # (B, S)

    def take(self, rows: np.ndarray) -> AlignBatch:
        return AlignBatch(
            ids=self.ids[rows], patches=self.patches[rows],
            texts=[self.texts[i] for i in rows],
            report_present=self.report_present[rows],
            ehr=self.ehr[rows], ehr_mask=self.ehr_mask[rows])


def align_rows(records, ids: np.ndarray, patches: np.ndarray, vocab: Vocab,
               slots: EhrSlotConfig) -> AlignBatch:
    """The table of ``records``: row i of ``ids`` (R, N) and ``patches``
    (R, N, P) is ``records[i]``'s, whose codes ``vocab`` indexes."""
    ehr, ehr_mask = ehr_slots(records, vocab, slots)
    return AlignBatch(
        ids=ids, patches=patches, texts=[r.report or "" for r in records],
        report_present=np.array([r.report is not None for r in records]),
        ehr=ehr, ehr_mask=ehr_mask)


def stage2_step(align_model: AlignModel, batch: AlignBatch,
                rng: np.random.Generator | None
                ) -> tuple[grad.Tensor, dict[str, float]]:
    """L_Align = L_Report + L_EHR on one batch: the loss graph root and a row."""
    cfg = align_model.cfg
    keep = None
    if rng is not None and cfg.r_drop > 0.0:
        # token dropping: each position excluded with prob r_drop; a row
        # that loses every position keeps its first
        keep = rng.random(batch.ids.shape) >= cfg.r_drop
        keep[~keep.any(axis=1), 0] = True
    u = align_model.eeg(batch.ids, batch.patches, keep=keep, train_rng=rng)
    # only rows with a report reach the report loss, so only they are encoded
    rows = np.flatnonzero(batch.report_present)
    v_rep = report_embed([batch.texts[i] for i in rows],
                         align_model.report_encoder)
    v_ehr = align_model.ehr_encoder(batch.ehr, batch.ehr_mask)
    rep_loss = clip_loss(grad.getitem(grad.matmul(u, align_model.pi_rep), rows),
                         v_rep, cfg.tau)
    ehr_loss = clip_loss(grad.matmul(u, align_model.pi_ehr), v_ehr, cfg.tau)
    total = rep_loss + ehr_loss
    return total, {"total": float(total.data), "report": float(rep_loss.data),
                   "ehr": float(ehr_loss.data)}


# ---------------------------------------------------------------------------
# Stage II training


def stage2_train(encoder: mim.SessionEncoder, rows: AlignBatch, vocab: Vocab,
                 cfg: AlignConfig, seed: int) -> grad.Trained:
    """``grad.train`` over an alignment model around ``encoder`` (Stage I
    weights on entry) whose EHR tables are ``vocab``'s; each step's batch
    is ``cfg.batch_size`` of ``rows``, drawn uniformly with replacement."""
    rng = np.random.default_rng(seed)
    align_model = AlignModel(cfg, encoder, vocab, rng)

    def step_loss(step):
        batch = rows.take(rng.integers(0, len(rows.ids), size=cfg.batch_size))
        return stage2_step(align_model, batch, rng)

    return grad.Trained(align_model, *grad.train(
        align_model.named_parameters(), cfg, step_loss, "Stage II"))


def retrieval_top1(align_model: AlignModel, batch: AlignBatch) -> float:
    """EEG -> EHR retrieval accuracy over the batch as candidate pool."""
    u = align_model.eeg(batch.ids, batch.patches)
    q = _l2_normalize(grad.matmul(u, align_model.pi_ehr)).data
    v = _l2_normalize(align_model.ehr_encoder(batch.ehr, batch.ehr_mask)).data
    ranks = np.argmax(q @ v.T, axis=1)
    return float(np.mean(ranks == np.arange(len(batch.ehr))))


# ---------------------------------------------------------------------------
# concept holdout


def scrub_text(text: str, phrases: list[str]) -> str:
    """Remove every sentence containing a held-out phrase (case-insensitive)."""
    sentences = [s.strip() for s in text.split(".") if s.strip()]
    lowered = [p.lower() for p in phrases]
    kept = [s for s in sentences
            if not any(p in s.lower() for p in lowered)]
    return (". ".join(kept) + ".") if kept else ""


def concept_holdout_filter(records, holdout_codes: set[str],
                           holdout_phrases: list[str]):
    """Alignment-side scrub: held-out codes leave the EHR view, held-out
    phrases leave the report text.  Probing labels are built from the
    original records elsewhere and stay untouched."""
    out = []
    for rec in records:
        filtered = replace(
            rec,
            diagnoses=frozenset(rec.diagnoses - holdout_codes),
            medications=frozenset(rec.medications - holdout_codes),
            diagnosis_events=[e for e in rec.diagnosis_events
                              if e.code not in holdout_codes],
            medication_events=[e for e in rec.medication_events
                               if e.code not in holdout_codes],
            report=None if rec.report is None
            else scrub_text(rec.report, holdout_phrases))
        out.append(filtered)
    return out

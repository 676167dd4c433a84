"""Stage II cross-modal alignment.

Report text runs through a frozen embedding provider (seeded
character-trigram hashing, one feature row per word), is cut to
``text_max_len`` words, and goes through a linear projection, a
learnable-position self-attention refiner, and masked mean pooling.  EHR
facts run through a permutation-invariant set encoder over demographic,
diagnosis, and medication codebooks.  Both are aligned to the pooled EEG
embedding u with a symmetric InfoNCE loss; sessions without a report are
excluded from the report loss as positives and negatives alike.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from . import grad, mim
from .config import (AlignConfig, EhrVocabConfig, N_AGE_BINS, RACE_CATEGORIES,
                     SEX_CATEGORIES)
from .errors import DataError


# ---------------------------------------------------------------------------
# text provider


class HashedNgramProvider:
    """Character-trigram hashing per word, through a fixed seeded projection.

    Dependency-free stand-in for a frozen pretrained text encoder: the same
    text always maps to the same features, and texts differing in any word
    differ somewhere in feature space with overwhelming probability.
    """

    dim = 768

    def __init__(self, seed: int = 1234):
        rng = np.random.default_rng(seed)
        self.projection = rng.normal(
            0.0, 1.0 / np.sqrt(self.dim), size=(self.dim, self.dim)
        ).astype(np.float32)
        self._word_cache: dict[str, np.ndarray] = {}

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
        a single zero row."""
        words = [w.strip(".,;:()").lower() for w in text.split()]
        words = [w for w in words if w]
        if not words:
            return np.zeros((1, self.dim), dtype=np.float32)
        return np.stack([self._word_feature(w) for w in words])


# ---------------------------------------------------------------------------
# EHR inputs


@dataclass(frozen=True)
class EhrInput:
    age_bin: int
    sex_id: int
    race_id: int
    dx_ids: tuple[int, ...]
    med_ids: tuple[int, ...]

    def canonical(self, vocab: EhrVocabConfig) -> "EhrInput":
        """Sorted, deduplicated, truncated to the lowest ids: set semantics
        become exact bit-level invariance."""
        dx = tuple(sorted(set(self.dx_ids))[: vocab.dx_slots])
        med = tuple(sorted(set(self.med_ids))[: vocab.med_slots])
        return replace(self, dx_ids=dx, med_ids=med)

    def validate(self, vocab: EhrVocabConfig) -> None:
        if not 0 <= self.age_bin < N_AGE_BINS:
            raise DataError(f"age bin {self.age_bin} outside [0, {N_AGE_BINS})")
        if not 0 <= self.sex_id < len(SEX_CATEGORIES):
            raise DataError(f"sex id {self.sex_id} invalid")
        if not 0 <= self.race_id < len(RACE_CATEGORIES):
            raise DataError(f"race id {self.race_id} invalid")
        if any(i < 0 or i >= vocab.n_dx for i in self.dx_ids):
            raise DataError("diagnosis id outside vocabulary")
        if any(i < 0 or i >= vocab.n_med for i in self.med_ids):
            raise DataError("medication id outside vocabulary")


def ehr_input_from_record(record, dx_vocab: list[str], med_vocab: list[str]) -> EhrInput:
    dx_index = {c: i for i, c in enumerate(dx_vocab)}
    med_index = {c: i for i, c in enumerate(med_vocab)}
    age_bin = min(record.age_years // 10, 9) if record.age_years >= 0 else 10
    return EhrInput(
        age_bin=age_bin,
        sex_id=SEX_CATEGORIES.index(record.sex),
        race_id=RACE_CATEGORIES.index(record.race),
        dx_ids=tuple(dx_index[c] for c in sorted(record.diagnoses) if c in dx_index),
        med_ids=tuple(med_index[c] for c in sorted(record.medications) if c in med_index))


# ---------------------------------------------------------------------------
# encoders


class ReportEncoder(grad.Module):
    def __init__(self, cfg: AlignConfig, d: int, rng: np.random.Generator):
        self.w_in = grad.param((HashedNgramProvider.dim, d), rng)
        self.b_in = grad.param((d,), rng, zeros=True)
        self.pos = grad.param((cfg.text_max_len, d), rng, scale=0.02)
        self.blocks = [mim._Block(d, cfg.n_heads, 4, rng)
                       for _ in range(cfg.refiner_depth)]
        self.ln_g, self.ln_b = mim._ln_params(d)

    def __call__(self, feats: np.ndarray, mask: np.ndarray) -> grad.Tensor:
        """feats: (B, L, 768), mask: (B, L) -> (B, d)."""
        x = grad.matmul(grad.Tensor(feats.astype(grad.DTYPE)), self.w_in) + self.b_in
        x = x + grad.reshape(self.pos, (1,) + self.pos.shape)
        bias = mim._attention_bias(mask)
        for block in self.blocks:
            x = block(x, bias)
        x = grad.layernorm(x, self.ln_g, self.ln_b)
        return grad.mean_pool_masked(x, grad.Tensor(mask.astype(grad.DTYPE)))


class EhrEncoder(grad.Module):
    def __init__(self, cfg: AlignConfig, d: int, rng: np.random.Generator):
        v = cfg.ehr
        self.vocab = v
        self.e_age = grad.param((N_AGE_BINS, d), rng, scale=0.02)
        self.e_sex = grad.param((len(SEX_CATEGORIES), d), rng, scale=0.02)
        self.e_race = grad.param((len(RACE_CATEGORIES), d), rng, scale=0.02)
        self.e_dx = grad.param((v.n_dx, d), rng, scale=0.02)
        self.e_med = grad.param((v.n_med, d), rng, scale=0.02)
        self.blocks = [mim._Block(d, cfg.n_heads, 4, rng)
                       for _ in range(cfg.refiner_depth)]
        self.ln_g, self.ln_b = mim._ln_params(d)

    def assemble(self, inputs: list[EhrInput]) -> tuple[np.ndarray, ...]:
        """Slot layout: [age, sex, race] + dx slots + med slots."""
        v = self.vocab
        b = len(inputs)
        n_slots = 3 + v.dx_slots + v.med_slots
        age = np.empty(b, dtype=np.int64)
        sex = np.empty(b, dtype=np.int64)
        race = np.empty(b, dtype=np.int64)
        dx = np.zeros((b, v.dx_slots), dtype=np.int64)
        med = np.zeros((b, v.med_slots), dtype=np.int64)
        mask = np.zeros((b, n_slots), dtype=bool)
        mask[:, :3] = True
        for i, raw in enumerate(inputs):
            inp = raw.canonical(v)
            inp.validate(v)
            age[i], sex[i], race[i] = inp.age_bin, inp.sex_id, inp.race_id
            dx[i, :len(inp.dx_ids)] = inp.dx_ids
            mask[i, 3:3 + len(inp.dx_ids)] = True
            med[i, :len(inp.med_ids)] = inp.med_ids
            mask[i, 3 + v.dx_slots:3 + v.dx_slots + len(inp.med_ids)] = True
        return age, sex, race, dx, med, mask

    def __call__(self, inputs: list[EhrInput]) -> grad.Tensor:
        age, sex, race, dx, med, mask = self.assemble(inputs)
        demo = grad.concat([
            grad.reshape(grad.getitem(self.e_age, age), (len(inputs), 1, -1)),
            grad.reshape(grad.getitem(self.e_sex, sex), (len(inputs), 1, -1)),
            grad.reshape(grad.getitem(self.e_race, race), (len(inputs), 1, -1)),
        ], axis=1)
        x = grad.concat([demo,
                         grad.getitem(self.e_dx, dx),
                         grad.getitem(self.e_med, med)], axis=1)
        # padded slots carry index-0 embeddings but are attention-masked and
        # excluded from pooling, so their content never reaches the output
        bias = mim._attention_bias(mask)
        for block in self.blocks:
            x = block(x, bias)
        x = grad.layernorm(x, self.ln_g, self.ln_b)
        return grad.mean_pool_masked(x, grad.Tensor(mask.astype(grad.DTYPE)))


# ---------------------------------------------------------------------------
# contrastive loss


def _l2_normalize(x: grad.Tensor) -> grad.Tensor:
    sq = grad.sum_(grad.mul(x, x), axis=-1, keepdims=True)
    return grad.mul(x, grad.power(sq + 1e-12, -0.5))


def clip_loss(a: grad.Tensor, b: grad.Tensor,
              tau: float = 0.07) -> grad.Tensor:
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
    # d is the EEG encoder's width: u, v_rep and v_ehr share one space
    def __init__(self, cfg: AlignConfig, d: int, rng: np.random.Generator):
        self.report_encoder = ReportEncoder(cfg, d, rng)
        self.ehr_encoder = EhrEncoder(cfg, d, rng)
        self.pi_rep = grad.param((d, d), rng)
        self.pi_ehr = grad.param((d, d), rng)
        self.cfg = cfg


def report_embed(texts: list[str], provider: HashedNgramProvider,
                 encoder: ReportEncoder, max_len: int) -> grad.Tensor:
    """Each text's first ``max_len`` word rows, padded and masked."""
    feats = np.zeros((len(texts), max_len, provider.dim), dtype=np.float32)
    mask = np.zeros((len(texts), max_len), dtype=bool)
    for i, text in enumerate(texts):
        f = provider.embed(text)[:max_len]
        feats[i, :len(f)] = f
        mask[i, :len(f)] = True
    return encoder(feats, mask)


@dataclass
class AlignBatch:
    ids: np.ndarray             # (B, N) token grids
    patches: np.ndarray         # (B, N, P)
    texts: list[str]            # "" where absent
    report_present: np.ndarray  # (B,)
    ehr: list[EhrInput]


@dataclass
class AlignRows:
    """Per-record Stage II inputs: row i of ``ids``, ``patches`` and ``ehr``
    belongs to ``records[i]``."""
    records: list
    ids: np.ndarray             # (R, N)
    patches: np.ndarray         # (R, N, P)
    ehr: list[EhrInput]

    def batch(self, rows: np.ndarray) -> AlignBatch:
        return AlignBatch(
            ids=self.ids[rows], patches=self.patches[rows],
            texts=[self.records[i].report or "" for i in rows],
            report_present=np.array([self.records[i].report is not None
                                     for i in rows]),
            ehr=[self.ehr[i] for i in rows])


@dataclass
class Stage2Losses:
    total: float
    report: float
    ehr: float
    report_absent_batch: bool


def stage2_step(align_model: AlignModel, mim_model: mim.MimModel,
                provider: HashedNgramProvider, batch: AlignBatch,
                rng: np.random.Generator | None = None
                ) -> tuple[grad.Tensor, Stage2Losses]:
    """L_Align = L_Report + L_EHR on one batch; returns the loss graph root."""
    cfg = align_model.cfg
    keep = None
    if rng is not None and cfg.r_drop > 0.0:
        # token dropping: each position excluded with prob r_drop; a row
        # that loses every position keeps its first
        keep = rng.random(batch.ids.shape) >= cfg.r_drop
        keep[~keep.any(axis=1), 0] = True
    u = mim.mim_forward(mim_model, batch.ids, batch.patches,
                        keep=keep, train_rng=rng).u
    # only rows with a report reach the report loss, so only they are encoded
    rows = np.flatnonzero(batch.report_present)
    v_rep = report_embed([batch.texts[i] for i in rows], provider,
                         align_model.report_encoder, cfg.text_max_len)
    v_ehr = align_model.ehr_encoder(batch.ehr)
    rep_loss = clip_loss(grad.getitem(grad.matmul(u, align_model.pi_rep), rows),
                         v_rep, cfg.tau)
    ehr_loss = clip_loss(grad.matmul(u, align_model.pi_ehr), v_ehr, cfg.tau)
    total = rep_loss + ehr_loss
    return total, Stage2Losses(total=float(total.data),
                               report=float(rep_loss.data),
                               ehr=float(ehr_loss.data),
                               report_absent_batch=rows.size == 0)


# ---------------------------------------------------------------------------
# Stage II training


@dataclass
class Stage2Result:
    align_model: AlignModel
    ema: grad.Ema
    losses: list[Stage2Losses]


_EEG = "eeg."  # prefix of the encoder's names in a Stage II checkpoint


def trained_parameters(align_model: AlignModel,
                       mim_model: mim.MimModel) -> dict[str, grad.Tensor]:
    """The alignment model's parameters plus the encoder's, under ``eeg.``."""
    trained = dict(align_model.named_parameters())
    mim_params = mim_model.named_parameters()
    for name in mim_model.encoder_parameter_names():
        trained[_EEG + name] = mim_params[name]
    return trained


def encoder_weights(ckpt: dict) -> dict[str, np.ndarray]:
    """Encoder weights of a ``mim`` or ``align`` checkpoint, EMA preferred."""
    weights = ckpt["ema"] if ckpt["ema"] is not None else ckpt["params"]
    if ckpt["meta"].get("kind") != "align":
        return weights
    return {k[len(_EEG):]: v for k, v in weights.items() if k.startswith(_EEG)}


def stage2_train(mim_model: mim.MimModel, provider: HashedNgramProvider,
                 rows: AlignRows, cfg: AlignConfig, seed: int) -> Stage2Result:
    """``grad.train`` over the alignment model and the encoder of
    ``mim_model`` (Stage I weights on entry); each step's batch is
    ``cfg.batch_size`` of ``rows``, drawn uniformly with replacement."""
    rng = np.random.default_rng(seed)
    align_model = AlignModel(cfg, mim_model.cfg.d_model, rng)
    history = []

    def step_loss(step):
        batch = rows.batch(rng.integers(0, len(rows.records),
                                        size=cfg.batch_size))
        loss, losses = stage2_step(align_model, mim_model, provider, batch, rng)
        history.append(losses)
        return loss

    ema = grad.train(trained_parameters(align_model, mim_model), cfg,
                     step_loss, "Stage II")
    return Stage2Result(align_model=align_model, ema=ema, losses=history)


def retrieval_top1(align_model: AlignModel, mim_model: mim.MimModel,
                   batch: AlignBatch) -> float:
    """EEG -> EHR retrieval accuracy over the batch as candidate pool."""
    u = mim.mim_forward(mim_model, batch.ids, batch.patches).u
    q = _l2_normalize(grad.matmul(u, align_model.pi_ehr)).data
    v = _l2_normalize(align_model.ehr_encoder(batch.ehr)).data
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

"""Matched case-control benchmark construction, frozen-embedding probing,
and metrics.

Labels come from EHR event rules (encounter/problem-list diagnoses with
chronicity windows, medication activity rules with PRN exclusion) or report
feature mentions.  Controls are exactly matched on (age bucket, sex, site,
setting) and sampled without replacement across cases.  Probes are 2-layer
MLPs on frozen embeddings; AUROC uses the average-rank statistic and the
BACC threshold is selected on validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.stats import rankdata

from . import grad
from .config import BenchConfig, age_bin
from .errors import DataError

AXES = ("disease", "medication", "feature")


@dataclass(frozen=True)
class TaskSpec:
    task_id: str
    axis: str
    codes: frozenset[str] = frozenset()   # disease / medication axes
    feature_phrase: str = ""              # feature axis
    chronic: bool = True                  # infinite window if True, else 7 days

    def __post_init__(self):
        if self.axis not in AXES:
            raise DataError(f"unknown task axis {self.axis!r}")
        if self.axis == "feature" and not self.feature_phrase:
            raise DataError(f"{self.task_id}: feature task needs a phrase")
        if self.axis != "feature" and not self.codes:
            raise DataError(f"{self.task_id}: code task needs codes")


def default_tasks(phenotypes, cfg: BenchConfig) -> list[TaskSpec]:
    """Three tasks per phenotype.  A task holds no threshold: ``run_task``
    reads those from its own ``cfg``, so this ``cfg`` goes unread."""
    tasks = []
    for p in phenotypes:
        tasks.append(TaskSpec(task_id=f"disease/{p.name}", axis="disease",
                              codes=frozenset(p.dx_codes), chronic=p.chronic))
        tasks.append(TaskSpec(task_id=f"medication/{p.name}", axis="medication",
                              codes=frozenset(p.med_codes), chronic=p.chronic))
        tasks.append(TaskSpec(task_id=f"feature/{p.name}", axis="feature",
                              feature_phrase=p.report_phrases[0],
                              chronic=p.chronic))
    return tasks


# ---------------------------------------------------------------------------
# splits


def patient_split(patient_ids: list[str], cfg: BenchConfig,
                  seed: int) -> dict[str, str]:
    """Patient-level 80/10/10 partition, deterministic in (ids, seed)."""
    ids = sorted(set(patient_ids))
    n = len(ids)
    if n < 3:
        raise DataError(f"cannot split {n} patients three ways")
    rng = np.random.default_rng(seed)
    order = list(rng.permutation(ids))
    n_test = max(1, int(round(cfg.split_test * n)))
    n_val = max(1, int(round(cfg.split_val * n)))
    split = {}
    for i, pid in enumerate(order):
        if i < n_test:
            split[pid] = "test"
        elif i < n_test + n_val:
            split[pid] = "val"
        else:
            split[pid] = "train"
    return split


# ---------------------------------------------------------------------------
# labeling


def _dx_positive(task: TaskSpec, record, session_day: int,
                 window_days: int) -> bool:
    lo = -10 ** 9 if task.chronic else session_day - window_days
    encounter_days = set()
    for e in record.diagnosis_events:
        if e.code not in task.codes or not lo <= e.day <= session_day:
            continue
        if e.source == "problem_list":
            return True
        encounter_days.add(e.day)
    return len(encounter_days) >= 2


def _med_positive(task: TaskSpec, record, session_day: int,
                  completion_days: int) -> bool:
    inpatient = record.setting in ("ICU", "EMU")
    for e in record.medication_events:
        if e.code not in task.codes or e.prn:
            continue  # PRN prescriptions never count
        if inpatient:
            if e.inpatient and session_day - completion_days <= e.day <= session_day:
                return True
        else:
            if not e.inpatient and e.active and e.day <= session_day:
                return True
    return False


def _feature_label(task: TaskSpec, record) -> int | None:
    if record.report is None:
        return None
    text = record.report.lower()
    phrase = task.feature_phrase.lower()
    if f"no {phrase}" in text:
        return 0
    if phrase in text:
        return 1
    return None  # unmentioned: dropped


def label_patients(task: TaskSpec, records, session_days: dict[str, int],
                   cfg: BenchConfig) -> dict[str, int]:
    """Patient id -> 0/1; patients without a determinable label are omitted.
    ``session_days`` must hold every record's patient."""
    labels: dict[str, int] = {}
    for rec in records:
        day = session_days[rec.patient_id]
        if task.axis == "disease":
            labels[rec.patient_id] = int(_dx_positive(
                task, rec, day, cfg.chronicity_window_days))
        elif task.axis == "medication":
            labels[rec.patient_id] = int(_med_positive(
                task, rec, day, cfg.med_completion_window_days))
        else:
            lab = _feature_label(task, rec)
            if lab is not None:
                labels[rec.patient_id] = lab
    return labels


# ---------------------------------------------------------------------------
# matching


def covariates(record) -> tuple[int, str, str, str]:
    return (age_bin(record.age_years), record.sex, record.site,
            record.setting)


@dataclass
class Row:
    patient_id: str
    label: int
    group: int
    split: str = ""


@dataclass
class CohortTable:
    task_id: str
    rows: list[Row] = field(default_factory=list)
    unmatched_cases: list[str] = field(default_factory=list)


def match_controls(task_id: str, cases: list[str], pool: list[str],
                   records_by_id: dict, k: int, seed: int) -> CohortTable:
    """Exact covariate matching, <= k controls per case, sampling without
    replacement across cases.  Inputs are order-canonicalized (sorted) before
    any random draw so shuffled callers get identical tables."""
    table = CohortTable(task_id=task_id)
    rng = np.random.default_rng(seed)
    used: set[str] = set()
    by_cell: dict[tuple, list[str]] = {}
    for pid in sorted(set(pool)):
        by_cell.setdefault(covariates(records_by_id[pid]), []).append(pid)
    for group, case in enumerate(sorted(set(cases))):
        table.rows.append(Row(case, 1, group))
        eligible = [p for p in by_cell.get(covariates(records_by_id[case]), [])
                    if p not in used]
        take = min(k, len(eligible))
        if take == 0:
            table.unmatched_cases.append(case)
            continue
        picked = rng.choice(eligible, size=take, replace=False)
        for pid in sorted(picked):
            used.add(pid)
            table.rows.append(Row(pid, 0, group))
    return table


def audit_table(table: CohortTable, records_by_id: dict,
                split: dict[str, str], k: int) -> None:
    """Matching and leakage invariants; raises on violation."""
    seen_patients = set()
    groups: dict[int, list[Row]] = {}
    for row in table.rows:
        if row.patient_id in seen_patients:
            raise DataError(
                f"{table.task_id}: patient {row.patient_id} appears twice")
        seen_patients.add(row.patient_id)
        groups.setdefault(row.group, []).append(row)
    for group_rows in groups.values():
        cases = [r for r in group_rows if r.label == 1]
        controls = [r for r in group_rows if r.label == 0]
        if len(cases) != 1:
            raise DataError(f"{table.task_id}: group without exactly one case")
        if len(controls) > k:
            raise DataError(f"{table.task_id}: more than {k} controls in a group")
        cov = covariates(records_by_id[cases[0].patient_id])
        for r in controls:
            if covariates(records_by_id[r.patient_id]) != cov:
                raise DataError(
                    f"{table.task_id}: covariate mismatch in group {r.group}")
    by_split: dict[str, set[str]] = {}
    for row in table.rows:
        by_split.setdefault(split[row.patient_id], set()).add(row.patient_id)
    names = list(by_split)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if by_split[a] & by_split[b]:
                raise DataError(f"{table.task_id}: split leakage between {a}/{b}")


# ---------------------------------------------------------------------------
# metrics


def auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Average-rank AUROC (ties get their mean rank)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUROC undefined without both classes")
    ranks = rankdata(scores)
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0)
                 / (n_pos * n_neg))


def auroc_pair_oracle(scores: np.ndarray, labels: np.ndarray) -> float:
    """Exhaustive pair counting; ties contribute 1/2."""
    pos = np.asarray(scores)[np.asarray(labels) == 1]
    neg = np.asarray(scores)[np.asarray(labels) == 0]
    if pos.size == 0 or neg.size == 0:
        raise DataError("AUROC undefined without both classes")
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (pos.size * neg.size)


def balanced_accuracy(scores: np.ndarray, labels: np.ndarray,
                      threshold: float) -> float:
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    pred = scores >= threshold
    pos = labels == 1
    neg = labels == 0
    if not pos.any() or not neg.any():
        raise DataError("BACC undefined without both classes")
    tpr = float(pred[pos].mean())
    tnr = float((~pred[neg]).mean())
    return 0.5 * (tpr + tnr)


def bacc_threshold(scores: np.ndarray, labels: np.ndarray) -> float:
    """Threshold maximizing balanced accuracy on validation scores."""
    uniq = np.unique(np.asarray(scores, dtype=np.float64))
    candidates = np.concatenate(
        [[uniq[0] - 1.0], (uniq[:-1] + uniq[1:]) / 2.0, [uniq[-1] + 1.0]])
    best_t, best_b = candidates[0], -1.0
    for t in candidates:
        b = balanced_accuracy(scores, labels, t)
        if b > best_b:
            best_t, best_b = float(t), b
    return best_t


# ---------------------------------------------------------------------------
# probing


class ProbeHead(grad.Module):
    """relu(x·w1 + b1)·w2 + b2, one logit per row, in plain numpy: the probe
    trains on closed-form gradients and never records a tape."""

    def __init__(self, d_in: int, hidden: int, rng: np.random.Generator):
        self.w1 = grad.param((d_in, hidden), rng)
        self.b1 = grad.param((hidden,), rng, zeros=True)
        self.w2 = grad.param((hidden, 1), rng)
        self.b2 = grad.param((1,), rng, zeros=True)

    def _forward(self, x: np.ndarray):
        pre = x @ self.w1.data + self.b1.data
        mask = (pre > 0).astype(grad.DTYPE)
        h = pre * mask
        return mask, h, (h @ self.w2.data + self.b2.data).reshape(-1)

    def scores(self, x: np.ndarray) -> np.ndarray:
        return self._forward(x.astype(grad.DTYPE))[2]

    def grads(self, x: np.ndarray, y: np.ndarray) -> list[np.ndarray]:
        """d/d(w1, b1, w2, b2) of the mean stable BCE over the rows of
        (x, y): mean(relu(z) - z·y + log(1 + exp(-|z|))).  Each line runs
        the ops that grad's tape runs for the composed loss, in its order,
        so the result equals ``loss.backward(params)`` bit for bit."""
        mask, h, z = self._forward(x)
        g = np.full(z.shape, 1.0 / z.size, dtype=grad.DTYPE)
        e = np.exp(np.abs(z) * -1.0)
        gz = g * (z > 0).astype(grad.DTYPE)                 # relu(z)
        gz = gz + g * -1.0 * y.astype(grad.DTYPE)           # - z·y
        gz = gz + g / (e + 1.0) * e * -1.0 * np.sign(z)     # log(1 + e)
        gz = gz.reshape(-1, 1)
        gh = (gz @ self.w2.data.T) * mask
        return [x.T @ gh, gh.sum(axis=0), h.T @ gz, gz.sum(axis=0)]


@dataclass
class ProbeMetrics:
    auroc: float
    bacc: float
    threshold: float


def train_probe(x_train: np.ndarray, y_train: np.ndarray,
                x_val: np.ndarray, y_val: np.ndarray,
                cfg: BenchConfig, seed: int) -> tuple[ProbeHead, float]:
    """Returns the probe restored to its best-validation-AUROC epoch."""
    rng = np.random.default_rng(seed)
    head = ProbeHead(x_train.shape[1], cfg.probe_hidden, rng)
    params = head.named_parameters()
    opt = grad.AdamW(params.values(), lr=cfg.probe_lr,
                     beta1=0.9, beta2=0.999,
                     weight_decay=cfg.probe_weight_decay)
    best_auc, best_state = -1.0, None
    n = x_train.shape[0]
    for _epoch in range(cfg.probe_epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.probe_batch_size):
            pick = order[start:start + cfg.probe_batch_size]
            opt.step(head.grads(x_train[pick].astype(grad.DTYPE),
                                y_train[pick]))
        val_auc = auroc(head.scores(x_val), y_val)
        if val_auc > best_auc:
            best_auc = val_auc
            best_state = {k: p.data.copy() for k, p in params.items()}
    for k, p in params.items():
        p.data = best_state[k]
    return head, best_auc


def evaluate_probe(head: ProbeHead, x_val, y_val, x_test, y_test) -> ProbeMetrics:
    threshold = bacc_threshold(head.scores(x_val), y_val)
    test_scores = head.scores(x_test)
    return ProbeMetrics(auroc=auroc(test_scores, y_test),
                        bacc=balanced_accuracy(test_scores, y_test, threshold),
                        threshold=threshold)


# ---------------------------------------------------------------------------
# full runs


@dataclass
class TaskResult:
    task_id: str
    axis: str
    n_rows: int
    n_pos_test: int
    auroc_mean: float
    auroc_sd: float
    bacc_mean: float
    bacc_sd: float
    per_seed_auroc: list[float] = field(default_factory=list)
    skipped: str = ""


def build_task_table(task: TaskSpec, records, session_days,
                     split: dict[str, str], cfg: BenchConfig,
                     seed: int) -> CohortTable:
    labels = label_patients(task, records, session_days, cfg)
    cases = [p for p, lab in labels.items() if lab == 1]
    pool = [p for p, lab in labels.items() if lab == 0]
    records_by_id = {r.patient_id: r for r in records}
    table = match_controls(task.task_id, cases, pool, records_by_id,
                           cfg.controls_per_case, seed)
    for row in table.rows:
        row.split = split[row.patient_id]
    return table


def run_task(task: TaskSpec, table: CohortTable,
             embeddings: dict[str, np.ndarray], cfg: BenchConfig,
             seed_base: int) -> TaskResult:
    xs, ys = {}, {}
    for name in ("train", "val", "test"):
        rows = [r for r in table.rows if r.split == name]
        xs[name] = np.stack([embeddings[r.patient_id] for r in rows]) \
            if rows else np.zeros((0, 1))
        ys[name] = np.array([r.label for r in rows])
    # AUROC on val and test needs both classes there
    reasons = [f"fewer than {cfg.min_positives} positives in {name}"
               for name in ("val", "test")
               if (ys[name] == 1).sum() < cfg.min_positives]
    reasons += [f"no negatives in {name}" for name in ("val", "test")
                if not (ys[name] == 0).any()]
    if reasons:
        return TaskResult(task.task_id, task.axis, len(table.rows),
                          int((ys["test"] == 1).sum()),
                          float("nan"), float("nan"),
                          float("nan"), float("nan"), skipped=reasons[0])
    aurocs, baccs = [], []
    for s in range(cfg.n_seeds):
        head, _ = train_probe(xs["train"], ys["train"], xs["val"], ys["val"],
                              cfg, seed_base + s)
        metrics = evaluate_probe(head, xs["val"], ys["val"],
                                 xs["test"], ys["test"])
        aurocs.append(metrics.auroc)
        baccs.append(metrics.bacc)
    return TaskResult(task.task_id, task.axis, len(table.rows),
                      int((ys["test"] == 1).sum()),
                      float(np.mean(aurocs)), float(np.std(aurocs)),
                      float(np.mean(baccs)), float(np.std(baccs)),
                      per_seed_auroc=[float(a) for a in aurocs])


def benchmark_run(tasks: list[TaskSpec], records, session_days,
                  embeddings: dict[str, np.ndarray], cfg: BenchConfig,
                  seed: int) -> list[TaskResult]:
    split = patient_split([r.patient_id for r in records], cfg, seed)
    records_by_id = {r.patient_id: r for r in records}
    results = []
    for i, task in enumerate(tasks):
        table = build_task_table(task, records, session_days, split, cfg,
                                 seed + 1000 + i)
        audit_table(table, records_by_id, split, cfg.controls_per_case)
        results.append(run_task(task, table, embeddings, cfg,
                                seed + 2000 + 10 * i))
    return results


def aggregate_by_axis(results: list[TaskResult]) -> dict[str, tuple[float, float, int]]:
    """axis -> (mean AUROC, mean sd, task count) over non-skipped tasks."""
    out = {}
    for axis in AXES + ("overall",):
        rs = [r for r in results if not r.skipped
              and (axis == "overall" or r.axis == axis)]
        if rs:
            out[axis] = (float(np.mean([r.auroc_mean for r in rs])),
                         float(np.mean([r.auroc_sd for r in rs])), len(rs))
    return out

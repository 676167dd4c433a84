"""Benchmark tests: splits, EHR/report label rules, exact matching with
audit invariants and the age bin it shares with the EHR view, rank-based
AUROC against a pair-counting oracle, BACC threshold selection, probe
training on separable embeddings without a tape, the probe's closed-form
gradients against grad's tape and finite differences, skips for splits AUROC
cannot score, and a full cohort-scale run with synthetic embeddings."""

import numpy as np
import pytest
from fdcheck import fd_gradients, float64_mode

from clef import align, bench, cohortgen, grad
from clef.cohortgen import DiagnosisEvent, MedicationEvent, PatientRecord
from clef.config import CHANNELS_DESK, BenchConfig, CohortConfig, EhrSlotConfig
from clef.errors import DataError

CFG = BenchConfig()


def _rec(pid, age=55, sex="F", site="site0", setting="Routine",
         dx_events=(), med_events=(), report=None):
    return PatientRecord(
        patient_id=pid, session_id=f"s_{pid}", age_years=age, sex=sex, race="White", site=site,
        setting=setting, medications=frozenset(), diagnoses=frozenset(),
        report=report, diagnosis_events=list(dx_events),
        medication_events=list(med_events))


# ---------------------------------------------------------------------------
# splits


def test_split_sizes_and_partition():
    ids = [f"p{i}" for i in range(100)]
    split = bench.patient_split(ids, CFG, seed=0)
    counts = {name: sum(v == name for v in split.values())
              for name in ("train", "val", "test")}
    assert counts == {"train": 80, "val": 10, "test": 10}
    assert set(split) == set(ids)


def test_split_ten_patients():
    split = bench.patient_split([f"p{i}" for i in range(10)], CFG, seed=3)
    counts = {name: sum(v == name for v in split.values())
              for name in ("train", "val", "test")}
    assert counts == {"train": 8, "val": 1, "test": 1}


def test_split_deterministic_and_seed_sensitive():
    ids = [f"p{i}" for i in range(60)]
    a = bench.patient_split(ids, CFG, seed=7)
    b = bench.patient_split(list(reversed(ids)), CFG, seed=7)
    assert a == b
    c = bench.patient_split(ids, CFG, seed=8)
    assert a != c
    with pytest.raises(DataError):
        bench.patient_split(["p0", "p1"], CFG, seed=0)


# ---------------------------------------------------------------------------
# label rules


_DX = bench.TaskSpec("disease/x", "disease", codes=frozenset({"dxA"}))
_DX_ACUTE = bench.TaskSpec("disease/y", "disease", codes=frozenset({"dxA"}),
                           chronic=False)
_MED = bench.TaskSpec("medication/x", "medication", codes=frozenset({"medA"}))
_FEAT = bench.TaskSpec("feature/x", "feature", feature_phrase="focal slowing")


def _labels(task, rec, day=500):
    return bench.label_patients(task, [rec], {rec.patient_id: day}, CFG)


def test_disease_two_encounters_different_days():
    rec = _rec("p0", dx_events=[DiagnosisEvent("dxA", 100, "encounter"),
                                DiagnosisEvent("dxA", 130, "encounter")])
    assert _labels(_DX, rec) == {"p0": 1}
    same_day = _rec("p1", dx_events=[DiagnosisEvent("dxA", 100, "encounter"),
                                     DiagnosisEvent("dxA", 100, "encounter")])
    assert _labels(_DX, same_day) == {"p1": 0}
    single = _rec("p2", dx_events=[DiagnosisEvent("dxA", 100, "encounter")])
    assert _labels(_DX, single) == {"p2": 0}


def test_disease_problem_list_entry():
    rec = _rec("p0", dx_events=[DiagnosisEvent("dxA", 10, "problem_list")])
    assert _labels(_DX, rec) == {"p0": 1}


def test_disease_acute_window():
    fresh = _rec("p0", dx_events=[DiagnosisEvent("dxA", 495, "problem_list")])
    assert _labels(_DX_ACUTE, fresh) == {"p0": 1}
    stale = _rec("p1", dx_events=[DiagnosisEvent("dxA", 400, "problem_list")])
    assert _labels(_DX_ACUTE, stale) == {"p1": 0}
    future = _rec("p2", dx_events=[DiagnosisEvent("dxA", 600, "problem_list")])
    assert _labels(_DX_ACUTE, future) == {"p2": 0}


def test_medication_inpatient_window():
    ev = MedicationEvent("medA", 500, inpatient=True)
    assert _labels(_MED, _rec("p0", setting="ICU", med_events=[ev])) == {"p0": 1}
    old = MedicationEvent("medA", 490, inpatient=True)
    assert _labels(_MED, _rec("p1", setting="ICU", med_events=[old])) == {"p1": 0}
    prn = MedicationEvent("medA", 500, inpatient=True, prn=True)
    assert _labels(_MED, _rec("p2", setting="EMU", med_events=[prn])) == {"p2": 0}


def test_medication_outpatient_active():
    active = MedicationEvent("medA", 450, active=True)
    assert _labels(_MED, _rec("p0", med_events=[active])) == {"p0": 1}
    stopped = MedicationEvent("medA", 450, active=False)
    assert _labels(_MED, _rec("p1", med_events=[stopped])) == {"p1": 0}
    prn = MedicationEvent("medA", 450, prn=True)
    assert _labels(_MED, _rec("p2", med_events=[prn])) == {"p2": 0}


def test_feature_labels_and_dropping():
    present = _rec("p0", report="The record shows focal slowing.")
    absent = _rec("p1", report="There is no focal slowing.")
    unmentioned = _rec("p2", report="A normal study.")
    missing = _rec("p3", report=None)
    labels = bench.label_patients(
        _FEAT, [present, absent, unmentioned, missing],
        {f"p{i}": 500 for i in range(4)}, CFG)
    assert labels == {"p0": 1, "p1": 0}


def test_task_spec_validation():
    with pytest.raises(DataError):
        bench.TaskSpec("t", "weird", codes=frozenset({"a"}))
    with pytest.raises(DataError):
        bench.TaskSpec("t", "feature")
    with pytest.raises(DataError):
        bench.TaskSpec("t", "disease")


def test_default_tasks_cover_axes():
    tasks = bench.default_tasks(cohortgen.default_phenotypes(CHANNELS_DESK), CFG)
    assert len(tasks) == 18
    assert {t.axis for t in tasks} == set(bench.AXES)
    assert len({t.task_id for t in tasks}) == 18


# ---------------------------------------------------------------------------
# matching


def _matching_records(n_cases=4, n_pool=60):
    records = []
    for i in range(n_cases):
        records.append(_rec(f"case{i}", age=55, sex="F", site="s0"))
    for i in range(n_pool):
        records.append(_rec(f"ctrl{i:03d}", age=50 + (i % 10), sex="F", site="s0"))
    # one case in a cell with no eligible controls at all
    records.append(_rec("case_lonely", age=20, sex="M", site="s1"))
    return records


def test_match_exact_covariates_and_cap():
    records = _matching_records()
    by_id = {r.patient_id: r for r in records}
    cases = [r.patient_id for r in records if r.patient_id.startswith("case")]
    pool = [r.patient_id for r in records if r.patient_id.startswith("ctrl")]
    table = bench.match_controls("t", cases, pool, by_id, k=10, seed=0)
    groups = {}
    for row in table.rows:
        groups.setdefault(row.group, []).append(row)
    for rows in groups.values():
        case = [r for r in rows if r.label == 1][0]
        controls = [r for r in rows if r.label == 0]
        assert len(controls) <= 10
        for r in controls:
            assert bench.covariates(by_id[r.patient_id]) == \
                bench.covariates(by_id[case.patient_id])
    # zero-eligible case kept with an empty group and logged
    assert table.unmatched_cases == ["case_lonely"]
    lonely = [r for r in table.rows if r.patient_id == "case_lonely"]
    assert len(lonely) == 1 and lonely[0].label == 1


def test_matching_and_the_ehr_view_share_one_age_bin():
    """Decades 0-8, 90 and over in bin 9, and a negative age in the N/A
    bin, in matching and in Stage II's EHR view alike."""
    ages = [-3, 0, 9, 10, 47, 89, 90, 104]
    bins = [10, 0, 0, 1, 4, 8, 9, 9]
    records = [_rec(f"p{i}", age=a) for i, a in enumerate(ages)]
    assert [bench.covariates(r)[0] for r in records] == bins
    ids, _ = align.ehr_slots(records, ([], []), EhrSlotConfig())
    assert ids[:, 0].tolist() == bins


def test_match_without_replacement_across_cases():
    records = _matching_records()
    by_id = {r.patient_id: r for r in records}
    cases = [f"case{i}" for i in range(4)]
    pool = [r.patient_id for r in records if r.patient_id.startswith("ctrl")]
    table = bench.match_controls("t", cases, pool, by_id, k=10, seed=1)
    controls = [r.patient_id for r in table.rows if r.label == 0]
    assert len(controls) == len(set(controls))


def test_match_order_canonicalized():
    records = _matching_records()
    by_id = {r.patient_id: r for r in records}
    cases = [f"case{i}" for i in range(4)]
    pool = [r.patient_id for r in records if r.patient_id.startswith("ctrl")]
    rng = np.random.default_rng(5)
    a = bench.match_controls("t", cases, pool, by_id, k=5, seed=9)
    b = bench.match_controls("t", list(rng.permutation(cases)),
                             list(rng.permutation(pool)), by_id,
                             k=5, seed=9)
    assert [(r.patient_id, r.label, r.group) for r in a.rows] == \
        [(r.patient_id, r.label, r.group) for r in b.rows]


def test_audit_catches_violations():
    records = _matching_records()
    by_id = {r.patient_id: r for r in records}
    split = {r.patient_id: "train" for r in records}
    good = bench.CohortTable("t", rows=[
        bench.Row("case0", 1, 0), bench.Row("ctrl000", 0, 0)])
    bench.audit_table(good, by_id, split, k=10)
    dup = bench.CohortTable("t", rows=[
        bench.Row("case0", 1, 0), bench.Row("case0", 0, 0)])
    with pytest.raises(DataError):
        bench.audit_table(dup, by_id, split, k=10)
    mismatch = bench.CohortTable("t", rows=[
        bench.Row("case_lonely", 1, 0), bench.Row("ctrl000", 0, 0)])
    with pytest.raises(DataError):
        bench.audit_table(mismatch, by_id, split, k=10)
    over = bench.CohortTable("t", rows=[
        bench.Row("case0", 1, 0)] + [
        bench.Row(f"ctrl{i:03d}", 0, 0) for i in range(12)])
    with pytest.raises(DataError):
        bench.audit_table(over, by_id, split, k=10)


# ---------------------------------------------------------------------------
# metrics


def test_auroc_hand_case():
    scores = np.array([0.9, 0.8, 0.4, 0.3])
    labels = np.array([1, 0, 1, 0])
    assert bench.auroc(scores, labels) == pytest.approx(0.75)
    assert bench.auroc_pair_oracle(scores, labels) == pytest.approx(0.75)


def test_auroc_all_equal_scores():
    scores = np.zeros(10)
    labels = np.array([1, 0] * 5)
    assert bench.auroc(scores, labels) == pytest.approx(0.5)
    with pytest.raises(DataError):
        bench.auroc(scores, np.ones(10))


def test_auroc_matches_pair_oracle_random_tables():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(4, 51))
        scores = rng.choice([0.1, 0.2, 0.3, 0.5, 0.9], size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert bench.auroc(scores, labels) == \
            pytest.approx(bench.auroc_pair_oracle(scores, labels), abs=1e-12)


def test_bacc_threshold_selection():
    scores = np.array([0.1, 0.2, 0.8, 0.9])
    labels = np.array([0, 0, 1, 1])
    t = bench.bacc_threshold(scores, labels)
    assert bench.balanced_accuracy(scores, labels, t) == 1.0
    assert 0.2 < t < 0.8
    flipped = bench.balanced_accuracy(scores, 1 - labels, t)
    assert flipped == 0.0


# ---------------------------------------------------------------------------
# probing


def _separable(n, d, seed, noise=0.5):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    x = rng.normal(0, noise, size=(n, d)).astype(np.float32)
    x[:, 0] += y * 2.0 - 1.0
    return x, y


def test_probe_learns_separable_data():
    cfg = BenchConfig(probe_hidden=32, probe_epochs=5, probe_lr=3e-3)
    x_tr, y_tr = _separable(200, 8, seed=0)
    x_va, y_va = _separable(60, 8, seed=1)
    x_te, y_te = _separable(60, 8, seed=2)
    head, best_val = bench.train_probe(x_tr, y_tr, x_va, y_va, cfg, seed=0)
    metrics = bench.evaluate_probe(head, x_va, y_va, x_te, y_te)
    assert best_val > 0.9
    assert metrics.auroc > 0.85
    assert metrics.bacc > 0.75


def test_train_probe_records_no_tape(monkeypatch):
    """Training and scoring the probe run in plain numpy: no grad op records
    a tape node and no backward walk runs."""
    def no_tape(*_args, **_kwargs):
        raise AssertionError("the probe used grad's tape")

    monkeypatch.setattr(grad, "_make", no_tape)
    monkeypatch.setattr(grad.Tensor, "backward", no_tape)
    cfg = BenchConfig(probe_hidden=16, probe_epochs=2, probe_batch_size=16)
    x_tr, y_tr = _separable(64, 6, seed=4)
    x_va, y_va = _separable(30, 6, seed=5)
    head, _ = bench.train_probe(x_tr, y_tr, x_va, y_va, cfg, seed=7)
    bench.evaluate_probe(head, x_va, y_va, x_va, y_va)


def _tape_logits(head, x):
    """The probe head composed from grad ops: the reference for
    ``ProbeHead``'s numpy forward and closed-form gradients."""
    xt = grad.Tensor(x.astype(grad.DTYPE))
    h = grad.relu(grad.matmul(xt, head.w1) + head.b1)
    return grad.reshape(grad.matmul(h, head.w2) + head.b2, (x.shape[0],))


def _tape_loss(head, x, y):
    # numerically stable: relu(z) - z*y + log(1 + exp(-|z|))
    z = _tape_logits(head, x)
    yt = grad.Tensor(y.astype(grad.DTYPE))
    soft = grad.log(grad.exp(grad.mul(grad.abs_(z), -1.0)) + 1.0)
    return grad.mean(grad.relu(z) - grad.mul(z, yt) + soft)


@pytest.mark.parametrize("rows", [1, 2, 23, 32])
def test_probe_grads_match_the_tape(rows):
    """Bit for bit at the desk width, over AdamW steps that move the biases
    off zero; one row is the shortest last batch of an epoch."""
    cfg = BenchConfig()
    rng = np.random.default_rng(rows)
    head = bench.ProbeHead(64, cfg.probe_hidden, rng)
    params = list(head.named_parameters().values())
    opt = grad.AdamW(params, lr=1e-2, beta1=0.9, beta2=0.999,
                     weight_decay=cfg.probe_weight_decay)
    for _ in range(4):
        x = rng.normal(size=(rows, 64)).astype(np.float32)
        y = rng.integers(0, 2, size=rows)
        ref = _tape_loss(head, x, y).backward(params)
        got = head.grads(x, y)
        for r, g in zip(ref, got, strict=True):
            assert g.dtype == r.dtype and g.shape == r.shape
            assert np.array_equal(g, r)
        np.testing.assert_array_equal(
            head.scores(x), _tape_logits(head, x).data)
        opt.step(got)


def test_probe_grads_match_finite_differences():
    rng = np.random.default_rng(3)
    with float64_mode():
        head = bench.ProbeHead(5, 4, rng)
        params = list(head.named_parameters().values())
        for p in params:
            p.data = rng.normal(size=p.data.shape)
        x, y = rng.normal(size=(7, 5)), rng.integers(0, 2, size=7)
        analytic = head.grads(x, y)

        def loss(arrays):
            for p, a in zip(params, arrays):
                p.data = a
            return _tape_loss(head, x, y)

        numeric = fd_gradients(loss, [p.data.copy() for p in params])
    for a, n in zip(analytic, numeric, strict=True):
        assert np.abs(a - n).max() <= 1e-6 * max(np.abs(n).max(), 1.0)


def test_probe_deterministic_per_seed():
    cfg = BenchConfig(probe_hidden=16, probe_epochs=2)
    x_tr, y_tr = _separable(80, 6, seed=4)
    x_va, y_va = _separable(30, 6, seed=5)
    h1, _ = bench.train_probe(x_tr, y_tr, x_va, y_va, cfg, seed=7)
    h2, _ = bench.train_probe(x_tr, y_tr, x_va, y_va, cfg, seed=7)
    np.testing.assert_array_equal(h1.scores(x_va), h2.scores(x_va))
    h3, _ = bench.train_probe(x_tr, y_tr, x_va, y_va, cfg, seed=8)
    assert not np.array_equal(h3.scores(x_va), h1.scores(x_va))


@pytest.mark.parametrize("empty", ["val", "test"])
def test_run_task_skips_split_without_negatives(empty):
    """A val or test split holding only positives cannot be scored by AUROC;
    the task is skipped, and an earlier positives shortfall keeps its reason."""
    splits = ["train"] * 4 + ["val"] * 3 + ["test"] * 3
    labels = [1, 1, 0, 0] + [1, 1, 0] + [1, 1, 0]
    rows = [bench.Row(f"p{i}", lab, i, split)
            for i, (lab, split) in enumerate(zip(labels, splits))]
    for r in rows:
        if r.split == empty:
            r.label = 1
    table = bench.CohortTable("t", rows)
    task = bench.TaskSpec("t", "disease", codes=frozenset({"dx"}))
    emb = {r.patient_id: np.full(2, float(i), dtype=np.float32)
           for i, r in enumerate(rows)}
    cfg = BenchConfig(probe_hidden=4, probe_epochs=1, n_seeds=1)
    result = bench.run_task(task, table, emb, cfg, seed_base=0)
    assert result.skipped == f"no negatives in {empty}"
    rows[-1].label = 0
    rows[-2].label = 0
    assert bench.run_task(task, table, emb, cfg, 0).skipped == \
        "fewer than 2 positives in test"


# ---------------------------------------------------------------------------
# cohort-scale run


def test_benchmark_run_on_generated_cohort():
    cohort_cfg = CohortConfig(n_patients=240)
    records, phenotypes = cohortgen.generate_records(cohort_cfg, seed=21)
    days = cohortgen.session_days(cohort_cfg, 21, records)
    tasks = bench.default_tasks(phenotypes, CFG)[:6]
    # synthetic embeddings that encode phenotype membership noisily
    names = [p.name for p in phenotypes]
    rng = np.random.default_rng(0)
    embeddings = {}
    for rec in records:
        e = rng.normal(0, 0.2, size=16).astype(np.float32)
        for j, name in enumerate(names):
            if name in rec.phenotypes:
                e[j] += 3.0
        embeddings[rec.patient_id] = e
    cfg = BenchConfig(probe_hidden=32, probe_epochs=10, probe_lr=3e-3,
                      probe_batch_size=16, n_seeds=2)
    results = bench.benchmark_run(tasks, records, days,
                                  embeddings, cfg, seed=5)
    assert len(results) == 6
    scored = [r for r in results if not r.skipped]
    assert scored, "every task was skipped"
    for r in scored:
        assert np.isfinite(r.auroc_mean) and 0.0 <= r.auroc_mean <= 1.0
        assert len(r.per_seed_auroc) == 2
    # informative embeddings should separate at least one task well
    assert max(r.auroc_mean for r in scored) > 0.8
    agg = bench.aggregate_by_axis(results)
    assert "overall" in agg
    assert agg["overall"][2] == len(scored)


def test_benchmark_run_obeys_min_positives():
    """The threshold is the run's ``cfg``, not a copy held by each task:
    no task of a 120-patient cohort has 50 positives in a split."""
    cohort_cfg = CohortConfig(n_patients=120)
    records, phenotypes = cohortgen.generate_records(cohort_cfg, seed=3)
    days = cohortgen.session_days(cohort_cfg, 3, records)
    tasks = bench.default_tasks(phenotypes, CFG)[:3]
    embeddings = {r.patient_id: np.zeros(4, np.float32) for r in records}
    cfg = BenchConfig(probe_hidden=4, probe_epochs=1, n_seeds=1,
                      min_positives=50)
    results = bench.benchmark_run(tasks, records, days, embeddings, cfg, 2)
    assert [r.skipped for r in results] == \
        ["fewer than 50 positives in val"] * len(tasks)


def test_benchmark_run_deterministic():
    cohort_cfg = CohortConfig(n_patients=120)
    records, phenotypes = cohortgen.generate_records(cohort_cfg, seed=3)
    days = cohortgen.session_days(cohort_cfg, 3, records)
    tasks = bench.default_tasks(phenotypes, CFG)[:2]
    rng = np.random.default_rng(1)
    embeddings = {r.patient_id: rng.normal(size=8).astype(np.float32)
                  for r in records}
    cfg = BenchConfig(probe_hidden=8, probe_epochs=2, n_seeds=1,
                      min_positives=1)
    a = bench.benchmark_run(tasks, records, days, embeddings,
                            cfg, seed=2)
    b = bench.benchmark_run(tasks, records, days, embeddings,
                            cfg, seed=2)
    assert [(r.task_id, r.per_seed_auroc, r.skipped) for r in a] == \
        [(r.task_id, r.per_seed_auroc, r.skipped) for r in b]

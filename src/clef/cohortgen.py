"""Deterministic synthetic clinical cohort generator.

Produces raw EEG sessions with planted spectral phenotypes, EHR records with
event histories consistent with those phenotypes, and templated report text,
so that every downstream objective has verifiable ground truth.

The base signal is 1/f-shaped Gaussian noise plus a 10 Hz oscillation;
phenotype effects are applied multiplicatively in the frequency domain on a
per-channel subset, giving exact control of band power.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy import fft

from .config import (CohortConfig, ConfigError, RACE_CATEGORIES,
                     SETTING_CATEGORIES, SEX_CATEGORIES)
from .errors import DataError, parsing, write_json
from .parallel import map_ordered

SITES = ["site_a", "site_b"]


@dataclass(frozen=True)
class SpectralEffect:
    band_lo_hz: float
    band_hi_hz: float
    channels: tuple[str, ...]
    power_delta_db: float


@dataclass(frozen=True)
class PhenotypeSpec:
    name: str
    spectral_effects: tuple[SpectralEffect, ...]
    dx_codes: tuple[str, ...]
    med_codes: tuple[str, ...]
    report_phrases: tuple[str, ...]
    prevalence: float
    chronic: bool = True

    def validate(self, nyquist_hz: float) -> None:
        for eff in self.spectral_effects:
            if not 0.0 <= eff.band_lo_hz < eff.band_hi_hz <= nyquist_hz:
                raise ConfigError(
                    f"cohort.sample_rate must be at least {2 * eff.band_hi_hz}"
                    f", twice {self.name}'s band top, got {2 * nyquist_hz}")


@dataclass
class DiagnosisEvent:
    code: str
    day: int
    source: str  # "encounter" | "problem_list"


@dataclass
class MedicationEvent:
    code: str
    day: int
    prn: bool = False
    inpatient: bool = False
    active: bool = True  # outpatient prescriptions: active at recording time


@dataclass
class PatientRecord:
    patient_id: str
    session_id: str
    age_years: int
    sex: str
    race: str
    site: str
    setting: str
    medications: frozenset[str]
    diagnoses: frozenset[str]
    report: str | None = None
    phenotypes: tuple[str, ...] = ()
    diagnosis_events: list[DiagnosisEvent] = field(default_factory=list)
    medication_events: list[MedicationEvent] = field(default_factory=list)


@dataclass
class RawSession:
    session_id: str
    samples: np.ndarray           # (C, T) float32 microvolts
    channel_available: np.ndarray  # (C,) bool
    sample_rate: float


# ---------------------------------------------------------------------------
# default desk phenotype inventory

_BOILERPLATE = [
    "Routine digital EEG was recorded using the standard electrode montage.",
    "Hyperventilation and photic stimulation were performed.",
    "The patient was awake and cooperative throughout the recording.",
    "Impedances were maintained below acceptable limits.",
    "The technical quality of the study was adequate for interpretation.",
]

_NORMAL_TEMPLATE = ("This is a normal study. The background is well organized "
                    "with a symmetric posterior dominant rhythm.")


def default_phenotypes(channel_names: list[str]) -> list[PhenotypeSpec]:
    """Six desk-scale phenotypes: three with >= 6 dB plants and three with
    ~2 dB plants, each with its own diagnosis and medication codes and
    report phrases."""
    all_ch = tuple(channel_names)
    front = tuple(c for c in channel_names if c.startswith("F")) or all_ch[:2]
    occ = tuple(c for c in channel_names if c.startswith("O")) or all_ch[-2:]
    cen = tuple(c for c in channel_names if c.startswith("C")) or all_ch[:2]

    def codes(kind: str, name: str) -> tuple[str, ...]:
        return (f"{kind}_{name}_a", f"{kind}_{name}_b")

    return [
        PhenotypeSpec(
            name="delta_surge",
            spectral_effects=(SpectralEffect(1.0, 4.0, all_ch, 7.0),),
            dx_codes=codes("dx", "delta_surge"), med_codes=codes("med", "delta_surge"),
            report_phrases=("generalized slowing", "diffuse delta activity"),
            prevalence=0.2, chronic=True),
        PhenotypeSpec(
            name="alpha_loss",
            spectral_effects=(SpectralEffect(8.0, 12.0, occ, -6.0),),
            dx_codes=codes("dx", "alpha_loss"), med_codes=codes("med", "alpha_loss"),
            report_phrases=("absent posterior dominant rhythm", "attenuated alpha rhythm"),
            prevalence=0.2, chronic=False),
        PhenotypeSpec(
            name="beta_excess",
            spectral_effects=(SpectralEffect(12.5, 15.5, front, 6.0),),
            dx_codes=codes("dx", "beta_excess"), med_codes=codes("med", "beta_excess"),
            report_phrases=("diffuse beta activity", "excess fast activity"),
            prevalence=0.2, chronic=True),
        PhenotypeSpec(
            name="theta_shift",
            spectral_effects=(SpectralEffect(4.0, 8.0, all_ch, 2.0),),
            dx_codes=codes("dx", "theta_shift"), med_codes=codes("med", "theta_shift"),
            report_phrases=("mild theta slowing", "borderline background frequency"),
            prevalence=0.2, chronic=True),
        PhenotypeSpec(
            name="focal_trace",
            spectral_effects=(SpectralEffect(6.0, 10.0, cen, 2.2),),
            dx_codes=codes("dx", "focal_trace"), med_codes=codes("med", "focal_trace"),
            report_phrases=("central focal slowing", "intermittent focal features"),
            prevalence=0.2, chronic=False),
        PhenotypeSpec(
            name="spindle_dropout",
            spectral_effects=(SpectralEffect(11.0, 15.0, front + cen, -2.0),),
            dx_codes=codes("dx", "spindle_dropout"), med_codes=codes("med", "spindle_dropout"),
            report_phrases=("reduced sleep spindles", "sparse spindle activity"),
            prevalence=0.2, chronic=True),
    ]


def distractor_codes(config: CohortConfig) -> tuple[list[str], list[str]]:
    dx = [f"dx_background_{i}" for i in range(config.n_distractor_dx)]
    med = [f"med_background_{i}" for i in range(config.n_distractor_med)]
    return dx, med


def vocabularies(config: CohortConfig,
                 phenotypes: list[PhenotypeSpec]) -> tuple[list[str], list[str]]:
    """Full diagnosis and medication vocabularies, in deterministic order."""
    dx, med = distractor_codes(config)
    for p in phenotypes:
        dx.extend(p.dx_codes)
        med.extend(p.med_codes)
    return sorted(set(dx)), sorted(set(med))


# ---------------------------------------------------------------------------
# report text


def make_report_text(record: PatientRecord, phenotypes: list[PhenotypeSpec],
                     rng: np.random.Generator) -> str:
    """Boilerplate sections interleaved with phenotype findings phrases.

    Absent phenotypes are explicitly negated with probability 1/2 so feature
    tasks have genuine negatives; otherwise they go unmentioned.
    """
    active = {p.name: p for p in phenotypes if p.name in record.phenotypes}
    sections = list(_BOILERPLATE)
    rng.shuffle(sections)
    lines = sections[:3]
    findings = []
    for p in phenotypes:
        if p.name in active:
            for phrase in p.report_phrases:
                findings.append(f"The record shows {phrase}.")
        elif rng.random() < 0.5:
            findings.append(f"There is no {p.report_phrases[0]}.")
    if not active:
        lines.append(_NORMAL_TEMPLATE)
    lines.extend(findings)
    lines.extend(sections[3:])
    return " ".join(lines)


# ---------------------------------------------------------------------------
# signal synthesis


def synthesize_signal(config: CohortConfig, phenos: list[PhenotypeSpec],
                      rng: np.random.Generator) -> np.ndarray:
    """1/f background plus alpha oscillation, with phenotype band effects
    applied multiplicatively in the frequency domain."""
    n_ch = config.n_channels
    t = int(round(config.duration_s * config.sample_rate))
    freqs = np.fft.rfftfreq(t, 1.0 / config.sample_rate)
    shaping = np.ones_like(freqs)
    above = freqs >= 0.5  # clamp the 1/f ramp below 0.5 Hz
    shaping[above] = (freqs[above] / 0.5) ** (config.noise_slope / 2.0)
    out = np.empty((n_ch, t), dtype=np.float64)
    name_to_idx = {name: i for i, name in enumerate(config.channel_names)}
    gains = np.ones((n_ch, freqs.size))
    for p in phenos:
        for eff in p.spectral_effects:
            band = (freqs >= eff.band_lo_hz) & (freqs < eff.band_hi_hz)
            amp = 10.0 ** (eff.power_delta_db / 20.0)
            for ch in eff.channels:
                gains[name_to_idx[ch], band] *= amp
    ramp = 2.0 * np.pi * config.alpha_freq_hz * np.arange(t) / config.sample_rate
    for c in range(n_ch):
        white = rng.standard_normal(t)  # the values and draws of normal(0, 1)
        spec = fft.rfft(white) * shaping
        noise = fft.irfft(spec, n=t)
        noise *= config.noise_rms_uv / max(noise.std(), 1e-12)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        alpha = config.alpha_amplitude_uv * np.sin(ramp + phase)
        x = noise + alpha
        spec = fft.rfft(x) * gains[c]
        out[c] = fft.irfft(spec, n=t)
    return out.astype(np.float32)


# ---------------------------------------------------------------------------
# cohort generation


def _chronic_dx(code: str, session_day: int,
                rng: np.random.Generator) -> list[DiagnosisEvent]:
    # two encounters 1-19 days apart, 30-1199 days before the session
    d0 = session_day - int(rng.integers(30, 1200))
    return [DiagnosisEvent(code, d0, "encounter"),
            DiagnosisEvent(code, d0 + int(rng.integers(1, 20)), "encounter")]


def _medication(code: str, session_day: int, inpatient: bool,
                rng: np.random.Generator) -> MedicationEvent:
    # inpatient: on the session day or the day before; else an active
    # outpatient prescription 0-59 days old
    if inpatient:
        return MedicationEvent(code, session_day - int(rng.integers(0, 2)),
                               inpatient=True)
    return MedicationEvent(code, session_day - int(rng.integers(0, 60)))


def _patient_record(config: CohortConfig, phenotypes: list[PhenotypeSpec],
                    index: int, rng: np.random.Generator,
                    session_day: int) -> PatientRecord:
    # demographics concentrated in a few matching cells so case-control
    # matching has workable pools at desk scale
    age = int(rng.choice([34, 55, 72]) + rng.integers(0, 8))
    sex = str(rng.choice(SEX_CATEGORIES, p=[0.48, 0.48, 0.04]))
    race = str(rng.choice(RACE_CATEGORIES))
    site = str(rng.choice(SITES))
    setting = str(rng.choice(SETTING_CATEGORIES))
    active = tuple(p.name for p in phenotypes if rng.random() < p.prevalence)

    dx_events: list[DiagnosisEvent] = []
    med_events: list[MedicationEvent] = []
    inpatient = setting in ("ICU", "EMU")
    for p in phenotypes:
        if p.name in active:
            for code in p.dx_codes:
                if p.chronic:
                    dx_events += _chronic_dx(code, session_day, rng)
                else:
                    d0 = session_day - int(rng.integers(0, 7))
                    dx_events.append(DiagnosisEvent(code, d0, "problem_list"))
            for code in p.med_codes:
                med_events.append(_medication(code, session_day, inpatient, rng))
        else:
            # near-miss events that must NOT satisfy the labeling rules
            if rng.random() < 0.1:
                code = p.dx_codes[0]
                if p.chronic:
                    dx_events.append(DiagnosisEvent(
                        code, session_day - int(rng.integers(30, 1200)), "encounter"))
                else:
                    dx_events.append(DiagnosisEvent(
                        code, session_day - int(rng.integers(30, 365)), "problem_list"))
            if rng.random() < 0.1:
                med_events.append(MedicationEvent(
                    p.med_codes[0], session_day - int(rng.integers(0, 30)),
                    prn=True, inpatient=inpatient))
    dx_bg, med_bg = distractor_codes(config)
    for code in dx_bg:
        if rng.random() < config.distractor_rate:
            dx_events += _chronic_dx(code, session_day, rng)
    for code in med_bg:
        if rng.random() < config.distractor_rate:
            med_events.append(_medication(code, session_day, inpatient, rng))

    by_name = {p.name: p for p in phenotypes}
    diagnoses = frozenset(c for n in active for c in by_name[n].dx_codes) | \
        frozenset(e.code for e in dx_events if e.code.startswith("dx_background"))
    medications = frozenset(c for n in active for c in by_name[n].med_codes) | \
        frozenset(e.code for e in med_events
                  if e.code.startswith("med_background") and not e.prn)
    return PatientRecord(
        patient_id=f"p{index:05d}", session_id=f"s{index:05d}",
        age_years=age, sex=sex, race=race, site=site, setting=setting,
        medications=medications, diagnoses=diagnoses, phenotypes=active,
        diagnosis_events=sorted(dx_events, key=lambda e: (e.code, e.day, e.source)),
        medication_events=sorted(med_events, key=lambda e: (e.code, e.day)))


def _patient_seeds(seed: int, n: int) -> list[np.random.SeedSequence]:
    return np.random.SeedSequence(seed).spawn(n)


def _patient_rng(config: CohortConfig, ss: np.random.SeedSequence
                 ) -> tuple[np.random.Generator, int]:
    """A patient's rng and session day: the day is its first draw, so
    ``session_days`` needs none of the record's later draws."""
    rng = np.random.default_rng(ss)
    return rng, int(rng.integers(400, config.session_day_range))


def generate_records(config: CohortConfig, seed: int
                     ) -> tuple[list[PatientRecord], list[PhenotypeSpec]]:
    """Records (no waveforms) and phenotypes, deterministic in (config, seed)."""
    phenotypes = default_phenotypes(config.channel_names)
    for p in phenotypes:
        p.validate(config.sample_rate / 2.0)
    seeds = _patient_seeds(seed, config.n_patients)
    # report presence flips an independent seeded coin
    report_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(
        config.n_patients + 1)[-1])
    records = []
    for i, ss in enumerate(seeds):
        rng, session_day = _patient_rng(config, ss)
        rec = _patient_record(config, phenotypes, i, rng, session_day)
        if report_rng.random() < config.report_fraction:
            rec.report = make_report_text(rec, phenotypes, rng)
        records.append(rec)
    return records, phenotypes


def build_session(config: CohortConfig, record: PatientRecord,
                  phenotypes: list[PhenotypeSpec],
                  ss: np.random.SeedSequence) -> RawSession:
    """Waveform for one patient, drawn from the first child of the patient's
    seed ``ss`` (safe to build sessions in parallel)."""
    # the child that ss.spawn(1) returns on a fresh ss; spawn itself would
    # mutate ss and hand out a different child on a second call
    rng = np.random.default_rng(np.random.SeedSequence(
        ss.entropy, spawn_key=ss.spawn_key + (0,)))
    active = [p for p in phenotypes if p.name in record.phenotypes]
    samples = synthesize_signal(config, active, rng)
    avail = np.ones(config.n_channels, dtype=bool)
    if config.n_channels > 1 and rng.random() < 0.05:
        avail[int(rng.integers(0, config.n_channels))] = False
    return RawSession(session_id=record.session_id, samples=samples,
                      channel_available=avail, sample_rate=config.sample_rate)


def session_days(config: CohortConfig, seed: int,
                 records: list[PatientRecord]) -> dict[str, int]:
    """Patient id -> session day, without synthesizing any waveform."""
    return {rec.patient_id: _patient_rng(config, ss)[1] for rec, ss in
            zip(records, _patient_seeds(seed, len(records)))}


def iter_sessions(config: CohortConfig, seed: int,
                  records: list[PatientRecord],
                  phenotypes: list[PhenotypeSpec]):
    """Stream the sessions of ``records`` in record order, built on every
    CPU the process may use (``parallel.map_ordered``)."""
    def build(job) -> RawSession:
        record, ss = job
        return build_session(config, record, phenotypes, ss)

    return map_ordered(build, zip(records, _patient_seeds(seed, len(records))))


# ---------------------------------------------------------------------------
# file formats


def write_records(path, records: list[PatientRecord]) -> None:
    payload = []
    for rec in records:
        d = dataclasses.asdict(rec)
        d["medications"] = sorted(rec.medications)
        d["diagnoses"] = sorted(rec.diagnoses)
        d["phenotypes"] = list(rec.phenotypes)
        payload.append(d)
    write_json(path, payload)


def read_records(path) -> list[PatientRecord]:
    records = []
    with parsing(path) as fh:
        for d in json.load(fh):
            for key, allowed in (("sex", SEX_CATEGORIES),
                                 ("race", RACE_CATEGORIES),
                                 ("setting", SETTING_CATEGORIES)):
                if d[key] not in allowed:
                    raise ValueError(f"patient {d['patient_id']}: {key} "
                                     f"{d[key]!r} not in {allowed}")
            records.append(PatientRecord(
                patient_id=d["patient_id"], session_id=d["session_id"],
                age_years=int(d["age_years"]),
                sex=d["sex"], race=d["race"], site=d["site"],
                setting=d["setting"],
                medications=frozenset(d["medications"]),
                diagnoses=frozenset(d["diagnoses"]),
                report=d.get("report"),
                phenotypes=tuple(d.get("phenotypes", ())),
                diagnosis_events=[DiagnosisEvent(**e)
                                  for e in d.get("diagnosis_events", [])],
                medication_events=[MedicationEvent(**e)
                                   for e in d.get("medication_events", [])]))
    return records


def channel_mask(available) -> int:
    """The uint32 header field of a ``.raw`` or ``.spc``: bit i set when
    channel i is available; more than 32 channels do not fit."""
    if len(available) > 32:
        raise DataError(f"{len(available)} channels, at most 32 fit the "
                        "availability mask of a session header")
    return sum(1 << i for i, ok in enumerate(available) if ok)


def channel_flags(mask: int, n_channels: int) -> np.ndarray:
    """``channel_mask``'s inverse: (n_channels,) bool."""
    return np.array([(mask >> i) & 1 == 1 for i in range(n_channels)])


_RAW_MAGIC = b"CLEFRAW1"
_RAW_HEADER = struct.Struct("<8sIIQfI28x")  # 60 bytes


def write_session(path, session: RawSession) -> None:
    """Little-endian float32 waveform with a 60-byte header."""
    c, t = session.samples.shape
    header = _RAW_HEADER.pack(_RAW_MAGIC, 1, c, t, session.sample_rate,
                              channel_mask(session.channel_available))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(session.samples, dtype="<f4").tobytes())


def read_session(path) -> RawSession:
    with open(path, "rb") as fh:
        raw = fh.read(_RAW_HEADER.size)
        if len(raw) < _RAW_HEADER.size:
            raise DataError(f"{path}: truncated waveform header")
        magic, _version, c, t, fs, mask = _RAW_HEADER.unpack(raw)
        if magic != _RAW_MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}")
        if not (np.isfinite(fs) and fs > 0):
            raise DataError(f"{path}: sample rate {fs} is not a positive "
                            "finite number")
        samples = np.frombuffer(fh.read(c * t * 4), dtype="<f4")
        if samples.size != c * t:
            raise DataError(f"{path}: truncated waveform payload")
    avail = channel_flags(mask, c)
    if not avail.any():
        raise DataError(f"{path}: no available channels")
    return RawSession(session_id=str(path), samples=samples.reshape(c, t).copy(),
                      channel_available=avail, sample_rate=fs)

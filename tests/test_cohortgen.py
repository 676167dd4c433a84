"""Cohort generator tests: determinism, the synthesis against its numpy.fft
oracle, planted band power, EHR/report consistency, the waveform file format
and the channel-availability codec it shares with ``.spc``, which refuses
more than 32 channels."""

import dataclasses

import numpy as np
import pytest

from clef import cohortgen, dsp
from clef.config import (CohortConfig, ConfigError, DspConfig,
                         apply_overrides, check, get_profile)
from clef.errors import DataError


def _small_cfg(n=24, duration=40.0):
    return CohortConfig(n_patients=n, duration_s=duration)


def test_records_deterministic():
    cfg = _small_cfg()
    a, _ = cohortgen.generate_records(cfg, seed=5)
    b, _ = cohortgen.generate_records(cfg, seed=5)
    for ra, rb in zip(a, b):
        assert ra == rb
    c, _ = cohortgen.generate_records(cfg, seed=6)
    assert any(ra != rc for ra, rc in zip(a, c))


def test_session_days_are_the_days_the_records_drew(monkeypatch):
    """The labels in ``days.json`` read each patient's session day without
    regenerating the record: the day its events were drawn around."""
    drawn, patient_record = {}, cohortgen._patient_record

    def spy(config, phenotypes, i, rng, day):
        drawn[i] = day
        return patient_record(config, phenotypes, i, rng, day)
    monkeypatch.setattr(cohortgen, "_patient_record", spy)
    cfg = _small_cfg()
    records, _ = cohortgen.generate_records(cfg, seed=5)
    assert cohortgen.session_days(cfg, 5, records) == {
        r.patient_id: drawn[i] for i, r in enumerate(records)}


def _sessions(cfg, seed):
    records, phenos = cohortgen.generate_records(cfg, seed)
    return records, list(cohortgen.iter_sessions(cfg, seed, records, phenos))


def test_sessions_deterministic_and_streaming_equivalent():
    cfg = _small_cfg(n=6)
    records, sessions = _sessions(cfg, seed=3)
    _, again = _sessions(cfg, seed=3)
    for rec, s, t in zip(records, sessions, again):
        assert np.array_equal(s.samples, t.samples)
        assert np.array_equal(s.channel_available, t.channel_available)
        assert s.session_id == rec.session_id


def test_session_seed_matches_per_session_spawn():
    """Spawning the patient seeds once per cohort draws the same waveform as
    re-spawning them for every session, the derivation this replaced."""
    cfg = _small_cfg(n=5, duration=20.0)
    records, sessions = _sessions(cfg, seed=9)
    phenos = cohortgen.default_phenotypes(cfg.channel_names)
    for i, (rec, s) in enumerate(zip(records, sessions)):
        ss = np.random.SeedSequence(9).spawn(cfg.n_patients)[i]
        rng = np.random.default_rng(ss.spawn(1)[0])
        active = [p for p in phenos if p.name in rec.phenotypes]
        assert np.array_equal(s.samples,
                              cohortgen.synthesize_signal(cfg, active, rng))


def _synthesize_signal_numpy_fft(config, phenos, rng):
    """The reference for ``cohortgen.synthesize_signal``: numpy.fft, the
    alpha ramp inside the channel loop and ``rng.normal(0, 1)``."""
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
    for c in range(n_ch):
        white = rng.normal(0.0, 1.0, size=t)
        spec = np.fft.rfft(white) * shaping
        noise = np.fft.irfft(spec, n=t)
        noise *= config.noise_rms_uv / max(noise.std(), 1e-12)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        alpha = config.alpha_amplitude_uv * np.sin(
            2.0 * np.pi * config.alpha_freq_hz * np.arange(t) / config.sample_rate + phase)
        x = noise + alpha
        spec = np.fft.rfft(x) * gains[c]
        out[c] = np.fft.irfft(spec, n=t)
    return out.astype(np.float32)


@pytest.mark.parametrize("duration", [320.0, 40.005, 120.0])
def test_synthesis_matches_the_numpy_fft_oracle(duration):
    """Within one float32 ulp of the session's peak of the four-FFT numpy.fft
    version, and the same draws after it: the one-pass synthesis sums in
    another order.  The desk geometry (64,000 samples), an odd sample count
    (8,001) and 24,000 samples."""
    cfg = _small_cfg(duration=duration)
    phenos = cohortgen.default_phenotypes(cfg.channel_names)
    for seed in range(6):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = cohortgen.synthesize_signal(cfg, phenos, rng)
        ref = _synthesize_signal_numpy_fft(cfg, phenos, ref_rng)
        assert got.shape == ref.shape == (cfg.n_channels,
                                          int(round(duration * 200.0)))
        assert got.dtype == ref.dtype
        bound = np.spacing(np.float32(np.abs(ref).max()))
        assert np.abs(got.astype(np.float64) - ref).max() <= bound
        assert rng.random() == ref_rng.random()


def test_synthesis_spectra_are_cached_and_read_only():
    """A cohort's sessions share one set of spectra, which none may write."""
    cfg = _small_cfg(duration=20.0)
    key = (cfg.n_samples, cfg.sample_rate, cfg.noise_slope, cfg.alpha_freq_hz)
    cohortgen.synthesize_signal(cfg, [], np.random.default_rng(0))
    before = cohortgen._synthesis_spectra.cache_info()
    cohortgen.synthesize_signal(cfg, [], np.random.default_rng(1))
    assert cohortgen._synthesis_spectra.cache_info().misses == before.misses
    first = cohortgen._synthesis_spectra(*key)
    assert first is cohortgen._synthesis_spectra(*key)
    for a in first:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_session_geometry():
    cfg = _small_cfg(n=4)
    _, sessions = _sessions(cfg, seed=1)
    for s in sessions:
        assert s.samples.shape == (cfg.n_channels, cfg.n_samples)
        assert s.samples.dtype == np.float32
        assert s.channel_available.any()
        assert np.all(np.isfinite(s.samples))


def _band_power_db(x, fs, lo, hi):
    spec = np.abs(np.fft.rfft(x)) ** 2
    freqs = np.fft.rfftfreq(x.size, 1.0 / fs)
    band = (freqs >= lo) & (freqs < hi)
    return 10.0 * np.log10(spec[band].mean())


def test_planted_band_effects_measurable():
    """A visible phenotype shifts band power by its planted dB within 1.5 dB;
    a sub-threshold phenotype stays below the 3 dB visibility line."""
    cfg = _small_cfg(n=1, duration=120.0)
    phenos = cohortgen.default_phenotypes(cfg.channel_names)
    by_name = {p.name: p for p in phenos}
    rng0 = np.random.default_rng(11)
    rng1 = np.random.default_rng(11)
    base = cohortgen.synthesize_signal(cfg, [], rng0)
    for name in ("delta_surge", "theta_shift"):
        p = by_name[name]
        rng = np.random.default_rng(11)
        shifted = cohortgen.synthesize_signal(cfg, [p], rng)
        eff = p.spectral_effects[0]
        ch = cfg.channel_names.index(eff.channels[0])
        delta = (_band_power_db(shifted[ch], cfg.sample_rate, eff.band_lo_hz, eff.band_hi_hz)
                 - _band_power_db(base[ch], cfg.sample_rate, eff.band_lo_hz, eff.band_hi_hz))
        assert abs(delta - eff.power_delta_db) < 1.5
    def biggest_db(name):
        return max(abs(e.power_delta_db) for e in by_name[name].spectral_effects)

    assert biggest_db("delta_surge") >= 6.0 and biggest_db("theta_shift") < 3.0
    rng1 = None


def test_visible_effect_survives_spectrogram():
    # the 7 dB delta plant must be readable off the standard spectrogram
    cfg = _small_cfg(n=1, duration=60.0)
    phenos = cohortgen.default_phenotypes(cfg.channel_names)
    delta = next(p for p in phenos if p.name == "delta_surge")
    dcfg = DspConfig(stride=1000, band_top_hz=16.0)
    rng = np.random.default_rng(9)
    base = cohortgen.synthesize_signal(cfg, [], rng)
    rng = np.random.default_rng(9)
    shifted = cohortgen.synthesize_signal(cfg, [delta], rng)
    tapers = dsp.compute_dpss(dcfg.window, dcfg.nw, dcfg.k_max,
                              dcfg.eigen_threshold)

    def band_mean(x):
        sess = cohortgen.RawSession("s", x, np.ones(cfg.n_channels, bool),
                                    cfg.sample_rate)
        spec = dsp.session_spectrogram(sess, dcfg, tapers,
                                       dsp.FilterBank(dcfg))
        bins = slice(int(1.0 / spec.freq_res_hz), int(4.0 / spec.freq_res_hz))
        return spec.values[:, bins, :].mean()

    span = (dcfg.db_hi - dcfg.db_lo) / 2.0
    gain_db = (band_mean(shifted) - band_mean(base)) * span
    assert gain_db > 4.0


def test_phenotype_prevalence_plausible():
    cfg = _small_cfg(n=300, duration=40.0)
    records, phenos = cohortgen.generate_records(cfg, seed=2)
    for p in phenos:
        rate = np.mean([p.name in r.phenotypes for r in records])
        # binomial 99.9% band around 0.2 with n=300
        assert abs(rate - p.prevalence) < 0.08


def test_report_fraction_and_content():
    cfg = _small_cfg(n=300)
    records, phenos = cohortgen.generate_records(cfg, seed=4)
    frac = np.mean([r.report is not None for r in records])
    assert abs(frac - cfg.report_fraction) < 0.09
    for r in records:
        if r.report is None:
            continue
        for p in phenos:
            if p.name in r.phenotypes:
                assert any(ph in r.report for ph in p.report_phrases)
            else:
                # absent phenotypes appear only under negation, if at all
                for ph in p.report_phrases:
                    if ph in r.report:
                        assert f"no {ph}" in r.report
        if not r.phenotypes:
            assert "normal study" in r.report


def test_ehr_codes_consistent_with_phenotypes():
    cfg = _small_cfg(n=100)
    records, phenos = cohortgen.generate_records(cfg, seed=7)
    for r in records:
        for p in phenos:
            if p.name in r.phenotypes:
                assert set(p.dx_codes) <= r.diagnoses
                assert set(p.med_codes) <= r.medications
        # every diagnosis has at least one event behind it
        event_codes = {e.code for e in r.diagnosis_events}
        assert r.diagnoses <= event_codes


def test_phenotype_validation():
    cfg = _small_cfg()
    bad = cohortgen.PhenotypeSpec(
        name="bad", spectral_effects=(
            cohortgen.SpectralEffect(10.0, 500.0, ("Fp1",), 3.0),),
        dx_codes=("dx_x",), med_codes=("med_x",),
        report_phrases=("x",), prevalence=0.1)
    with pytest.raises(ConfigError, match="cohort.sample_rate must be at "
                       "least 1000.0"):
        bad.validate(cfg.sample_rate / 2.0)
    with pytest.raises(ConfigError, match="cohort.n_patients"):
        check(apply_overrides(get_profile("desk"),
                              {"cohort": {"n_patients": 0}}))


def test_waveform_roundtrip(tmp_path):
    cfg = _small_cfg(n=2)
    _, sessions = _sessions(cfg, seed=8)
    s = sessions[0]
    s.channel_available[3] = False
    path = tmp_path / "w.raw"
    cohortgen.write_session(path, s)
    back = cohortgen.read_session(path)
    assert np.array_equal(back.samples, s.samples)
    assert np.array_equal(back.channel_available, s.channel_available)
    assert back.sample_rate == s.sample_rate


@pytest.mark.parametrize("n", [1, 8, 31, 32])
def test_channel_mask_round_trip(n):
    """``.raw`` and ``.spc`` share one availability codec; bit 31 is the
    32nd channel and still fits the uint32 header field."""
    rng = np.random.default_rng(n)
    for available in (np.ones(n, bool), rng.random(n) < 0.5):
        mask = cohortgen.channel_mask(available)
        assert 0 <= mask < 1 << 32
        assert mask == sum(1 << i for i in np.flatnonzero(available))
        assert np.array_equal(cohortgen.channel_flags(mask, n), available)


def test_more_than_32_channels_are_refused_below_the_cli(tmp_path):
    """A 33-channel session or spectrogram written directly is a
    ``DataError`` naming the channel count, not a ``struct`` failure."""
    available = np.ones(33, bool)
    session = cohortgen.RawSession("s", np.zeros((33, 8), np.float32),
                                   available, 8.0)
    spec = dsp.Spectrogram(np.zeros((33, 2, 2), np.float32), 1.0, 1.0,
                           available, -1.0, 1.0)
    with pytest.raises(DataError, match="33 channels"):
        cohortgen.write_session(tmp_path / "s.raw", session)
    with pytest.raises(DataError, match="33 channels"):
        dsp.write_spectrogram(tmp_path / "s.spc", spec)
    assert not list(tmp_path.iterdir())


def test_waveform_rejects_corruption(tmp_path):
    path = tmp_path / "bad.raw"
    path.write_bytes(b"XXXXXXXX" + b"\0" * 100)
    with pytest.raises(DataError):
        cohortgen.read_session(path)
    path.write_bytes(b"")
    with pytest.raises(DataError):
        cohortgen.read_session(path)


@pytest.mark.parametrize("rate", [0.0, -250.0, float("nan"), float("inf")])
def test_waveform_rate_must_be_positive_and_finite(tmp_path, rate):
    """A rate of 0 would divide by zero and a NaN would reach the filter
    design: either is a DataError that names the file."""
    _, sessions = _sessions(_small_cfg(n=1), seed=8)
    path = tmp_path / "w.raw"
    cohortgen.write_session(path, dataclasses.replace(sessions[0],
                                                      sample_rate=rate))
    with pytest.raises(DataError, match="sample rate") as info:
        cohortgen.read_session(path)
    assert str(path) in str(info.value)

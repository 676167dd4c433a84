"""Filtering, DPSS taper, and multitaper spectrogram tests.

scipy.signal.sosfiltfilt is the oracle for the zero-phase filter, and
scipy.signal.windows.dpss the independent oracle for the taper
construction; the white-noise PSD level and known-sinusoid bin checks pin
the spectrogram normalization.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import signal
from scipy.signal import windows

from clef import dsp
from clef.config import DspConfig
from clef.cohortgen import RawSession
from clef.errors import DataError


def _session(samples, fs=200.0, avail=None):
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float32))
    if avail is None:
        avail = np.ones(samples.shape[0], dtype=bool)
    return RawSession(session_id="t", patient_id="p", samples=samples,
                      channel_available=np.asarray(avail, bool),
                      duration_s=samples.shape[1] / fs, sample_rate=fs)


# ---------------------------------------------------------------------------
# DPSS tapers


def test_dpss_retains_three_tapers():
    ts = dsp.compute_dpss(800, 2.0, 4, 0.9)
    assert ts.k == 3
    assert np.all(ts.concentrations > 0.9)
    assert np.all(np.diff(ts.concentrations) <= 0)


def test_dpss_orthonormal():
    ts = dsp.compute_dpss(800, 2.0, 4, 0.9)
    gram = ts.tapers @ ts.tapers.T
    assert np.abs(gram - np.eye(ts.k)).max() < 1e-8


def test_dpss_first_taper_positive_and_symmetric():
    ts = dsp.compute_dpss(800, 2.0, 4, 0.9)
    v0 = ts.tapers[0]
    assert np.all(v0 > 0)
    assert np.abs(v0 - v0[::-1]).max() < 1e-10


def test_dpss_matches_scipy_oracle():
    ts = dsp.compute_dpss(800, 2.0, 4, 0.9)
    ref, ratios = windows.dpss(800, 2.0, Kmax=ts.k, norm=2, return_ratios=True)
    for k in range(ts.k):
        v, r = ts.tapers[k], ref[k]
        if np.dot(v, r) < 0:
            r = -r
        assert np.abs(v - r).max() < 1e-6
        assert abs(ts.concentrations[k] - ratios[k]) < 1e-6


def test_dpss_various_lengths():
    for length in (256, 500, 1024):
        ts = dsp.compute_dpss(length, 2.5, 4, 0.9)
        gram = ts.tapers @ ts.tapers.T
        assert np.abs(gram - np.eye(ts.k)).max() < 1e-8


def test_dpss_rejects_bad_args():
    with pytest.raises(DataError):
        dsp.compute_dpss(4, 2.0, 4, 0.9)
    with pytest.raises(DataError):
        dsp.compute_dpss(800, 0.0, 4, 0.9)


# ---------------------------------------------------------------------------
# preprocessing


# the 0.1 Hz highpass has a multi-second transient; use long signals and
# judge the interior only
_TRIM_S = 20.0
_LEN_S = 60.0


def test_preprocess_removes_dc():
    fs = 200.0
    x = np.full(int(_LEN_S * fs), 5.0)
    out = dsp.preprocess(_session(x, fs), DspConfig())
    trim = int(_TRIM_S * fs)
    assert np.abs(out.samples[0, trim:-trim]).max() < 1e-3


def test_preprocess_preserves_10hz_zero_phase():
    fs = 200.0
    t = np.arange(int(_LEN_S * fs)) / fs
    x = np.sin(2 * np.pi * 10.0 * t)
    out = dsp.preprocess(_session(x, fs), DspConfig())
    trim = int(_TRIM_S * fs)
    y = out.samples[0, trim:-trim].astype(np.float64)
    ref = x[trim:-trim]
    # amplitude within 5% and no phase shift (forward-backward filtering)
    assert abs(np.abs(y).max() / np.abs(ref).max() - 1.0) < 0.05
    corr = np.dot(y, ref) / (np.linalg.norm(y) * np.linalg.norm(ref))
    assert corr > 0.999


def test_preprocess_attenuates_line_noise():
    fs = 200.0
    t = np.arange(int(_LEN_S * fs)) / fs
    x = np.sin(2 * np.pi * 60.0 * t)
    out = dsp.preprocess(_session(x, fs), DspConfig())
    trim = int(_TRIM_S * fs)
    y = out.samples[0, trim:-trim].astype(np.float64)
    atten_db = 20 * np.log10(np.sqrt(np.mean(x[trim:-trim] ** 2))
                             / max(np.sqrt(np.mean(y ** 2)), 1e-12))
    assert atten_db >= 20.0


def test_preprocess_skips_unavailable_channels():
    fs = 200.0
    x = np.tile(np.full(int(10 * fs), 3.0, dtype=np.float32), (2, 1))
    sess = _session(x, fs, avail=[True, False])
    out = dsp.preprocess(sess, DspConfig())
    assert np.array_equal(out.samples[1], x[1])
    assert not np.array_equal(out.samples[0], x[0])


def test_preprocess_rejects_nonfinite():
    x = np.zeros(4000, dtype=np.float32)
    x[100] = np.nan
    with pytest.raises(DataError):
        dsp.preprocess(_session(x), DspConfig())


def _preprocess_sosfiltfilt(session, cfg):
    """The reference for ``dsp.preprocess``: the cascade designed for the
    call and ``signal.sosfiltfilt`` on each available channel."""
    samples = np.asarray(session.samples, dtype=np.float64)
    sos = signal.butter(cfg.bandpass_order, [cfg.band_lo_hz, cfg.band_hi_hz],
                        btype="bandpass", fs=session.sample_rate, output="sos")
    for f0 in dsp.notch_frequencies(cfg, session.sample_rate):
        b, a = signal.iirnotch(f0, cfg.notch_q, fs=session.sample_rate)
        sos = np.vstack([sos, signal.tf2sos(b, a)])
    padlen = min(samples.shape[1] - 1,
                 int(3.0 * session.sample_rate / max(cfg.band_lo_hz, 1e-3)))
    out = samples.copy()
    for c in range(samples.shape[0]):
        if session.channel_available[c]:
            out[c] = signal.sosfiltfilt(sos, samples[c], padlen=padlen)
    return out.astype(np.float32)


@pytest.mark.parametrize("fs, seconds", [(200.0, 320.0), (200.0, 4.0),
                                         (256.0, 45.0), (500.0, 1.6)])
def test_preprocess_matches_sosfiltfilt_oracle(fs, seconds):
    """Same bits as ``sosfiltfilt`` from one shared filter state: the desk
    session, the shortest session (one window, so padlen = n - 1), other
    rates, and an unavailable channel copied through."""
    cfg = DspConfig()
    rng = np.random.default_rng(8)
    x = (30.0 * rng.normal(size=(3, int(seconds * fs)))).astype(np.float32)
    sess = _session(x, fs, avail=[True, False, True])
    bank = dsp.FilterBank(cfg)
    for shared in (None, bank, bank):
        out = dsp.preprocess(sess, cfg, shared)
        assert out.samples.dtype == np.float32
        assert np.array_equal(out.samples, _preprocess_sosfiltfilt(sess, cfg))
    assert np.array_equal(out.samples[1], x[1])


def test_zero_phase_matches_sosfiltfilt_at_any_padlen():
    sos, zi = dsp.FilterBank(DspConfig()).get(_session(np.zeros(900)))
    x = np.random.default_rng(2).normal(size=900)
    for padlen in (0, 1, 100, 899):
        assert np.array_equal(dsp.zero_phase(sos, zi, x, padlen),
                              signal.sosfiltfilt(sos, x, padlen=padlen))


def test_filter_bank_designs_each_rate_once_across_threads(monkeypatch):
    """More threads than cores ask one bank for three rates at once, with
    thread switches forced often: each rate is designed once and every
    caller gets that one design."""
    designs, butter = [], signal.butter
    monkeypatch.setattr(dsp.signal, "butter", lambda *a, **k: designs.append(
        k["fs"]) or butter(*a, **k))
    bank = dsp.FilterBank(DspConfig())
    sessions = [_session(np.zeros(10), fs)
                for fs in (200.0, 256.0, 500.0) * 32]
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(bank.get, s) for s in sessions]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(saved)
    assert sorted(designs) == [200.0, 256.0, 500.0]
    assert len({id(sos) for sos, _zi in got}) == 3


@pytest.mark.parametrize("fs", [150.0, 128.0])
def test_band_edge_at_or_above_nyquist_is_a_data_error(fs):
    with pytest.raises(DataError, match=rf"band_hi_hz 75.0 Hz .* {fs / 2} Hz"):
        dsp.preprocess(_session(np.zeros(4000), fs), DspConfig())


def test_notch_frequencies_respect_nyquist():
    cfg = DspConfig()
    assert dsp.notch_frequencies(cfg, 200.0) == [60.0]
    assert dsp.notch_frequencies(cfg, 500.0) == [60.0, 120.0, 180.0, 240.0]
    # 240 Hz sits exactly at a 480 Hz Nyquist: excluded by the margin
    assert dsp.notch_frequencies(cfg, 480.0) == [60.0, 120.0, 180.0]


# ---------------------------------------------------------------------------
# multitaper spectrogram


def _cfg(**kw) -> DspConfig:
    cfg = DspConfig()
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


def test_spectrogram_shape_paper_geometry():
    cfg = _cfg()
    n = int(1280.0 * 200.0)
    assert cfg.n_frames(n) == 2048
    assert cfg.n_freq_bins(200.0) == 128


def test_frame_count_sweep():
    cfg = _cfg()
    for n in (800, 925, 1050, 10_000, 256_000):
        assert cfg.n_frames(n) == n // cfg.stride
    assert cfg.n_frames(799) == 0


def test_sinusoid_lands_in_expected_bin():
    # 8 Hz at 0.25 Hz resolution falls in bin 32
    cfg = _cfg()
    fs = 200.0
    t = np.arange(int(40 * fs)) / fs
    x = np.sin(2 * np.pi * 8.0 * t)
    ts = dsp.compute_dpss(cfg.window, cfg.nw, cfg.k_max, cfg.eigen_threshold)
    spec = dsp.multitaper_spectrogram(_session(x, fs), ts, cfg)
    # exclude the trailing frames whose windows extend into the edge padding
    tail = -(-(cfg.window - cfg.stride) // cfg.stride) + 1
    interior = spec.values[0, :, 2:-tail]
    assert np.all(np.argmax(interior, axis=0) == 32)


def test_bin_width_follows_the_session_rate(tmp_path):
    # a 250 Hz session: bins are 250/800 Hz wide, the .spc header says so,
    # and a 12 Hz sine peaks within one bin of the bin labelled 12 Hz
    cfg = _cfg()
    fs = 250.0
    t = np.arange(int(40 * fs)) / fs
    x = np.sin(2 * np.pi * 12.0 * t)
    ts = dsp.compute_dpss(cfg.window, cfg.nw, cfg.k_max, cfg.eigen_threshold)
    dsp.write_spectrogram(tmp_path / "s.spc",
                          dsp.multitaper_spectrogram(_session(x, fs), ts, cfg))
    spec = dsp.read_spectrogram(tmp_path / "s.spc")
    width = spec.freq_res_hz
    assert width == 250.0 / 800
    assert spec.values.shape[1] == cfg.n_freq_bins(fs) == round(32.0 / width)
    peak = np.argmax(spec.values[0].mean(axis=1))
    assert abs(peak * width - 12.0) <= width


def test_band_above_nyquist_rejected():
    cfg = _cfg()
    ts = dsp.compute_dpss(cfg.window, cfg.nw, cfg.k_max, cfg.eigen_threshold)
    with pytest.raises(DataError, match="Nyquist"):
        dsp.multitaper_spectrogram(_session(np.zeros(4000), 50.0), ts, cfg)


def test_zero_signal_maps_to_floor():
    cfg = _cfg()
    x = np.zeros(int(10 * 200.0), dtype=np.float32)
    ts = dsp.compute_dpss(cfg.window, cfg.nw, cfg.k_max, cfg.eigen_threshold)
    spec = dsp.multitaper_spectrogram(_session(x), ts, cfg)
    assert np.all(spec.values == -1.0)


def test_white_noise_psd_level():
    # mean linear-power PSD of N(0, sigma^2) noise is sigma^2 / f_s
    cfg = _cfg()
    fs = 200.0
    sigma = 3.0
    rng = np.random.default_rng(7)
    x = rng.normal(0.0, sigma, size=int(300 * fs))
    ts = dsp.compute_dpss(cfg.window, cfg.nw, cfg.k_max, cfg.eigen_threshold)
    spec = dsp.multitaper_spectrogram(_session(x, fs), ts, cfg)
    span = (cfg.db_hi - cfg.db_lo) / 2.0
    mid = (cfg.db_hi + cfg.db_lo) / 2.0
    db = spec.values[0].astype(np.float64) * span + mid
    linear = 10.0 ** (db / 10.0)
    # skip the band-edge bins where rfft one-sidedness halves the power
    mean_psd = linear[1:-1].mean()
    expected = sigma ** 2 / fs
    assert abs(mean_psd / expected - 1.0) < 0.10


def test_values_bounded():
    cfg = _cfg()
    rng = np.random.default_rng(0)
    x = rng.normal(0.0, 500.0, size=(2, int(10 * 200.0)))
    ts = dsp.compute_dpss(cfg.window, cfg.nw, cfg.k_max, cfg.eigen_threshold)
    spec = dsp.multitaper_spectrogram(_session(x), ts, cfg)
    assert spec.values.min() >= -1.0 and spec.values.max() <= 1.0


def test_unavailable_channel_emits_floor():
    cfg = _cfg()
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, int(10 * 200.0)))
    ts = dsp.compute_dpss(cfg.window, cfg.nw, cfg.k_max, cfg.eigen_threshold)
    spec = dsp.multitaper_spectrogram(
        _session(x, avail=[False, True]), ts, cfg)
    assert np.all(spec.values[0] == -1.0)
    assert not np.all(spec.values[1] == -1.0)


def test_spectrogram_deterministic():
    cfg = _cfg()
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, int(10 * 200.0)))
    ts = dsp.compute_dpss(cfg.window, cfg.nw, cfg.k_max, cfg.eigen_threshold)
    a = dsp.multitaper_spectrogram(_session(x), ts, cfg)
    b = dsp.multitaper_spectrogram(_session(x), ts, cfg)
    assert np.array_equal(a.values, b.values)


def test_short_session_rejected():
    cfg = _cfg()
    with pytest.raises(DataError):
        dsp.multitaper_spectrogram(
            _session(np.zeros(100)), dsp.compute_dpss(cfg.window, cfg.nw, 4, 0.9),
            cfg)


def test_spectrogram_cache_roundtrip(tmp_path):
    cfg = _cfg()
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, int(10 * 200.0)))
    ts = dsp.compute_dpss(cfg.window, cfg.nw, cfg.k_max, cfg.eigen_threshold)
    spec = dsp.multitaper_spectrogram(
        _session(x, avail=[True, False, True]), ts, cfg)
    path = tmp_path / "s.spc"
    dsp.write_spectrogram(path, spec)
    back = dsp.read_spectrogram(path)
    assert np.array_equal(back.values, spec.values)
    assert np.array_equal(back.channel_available, spec.channel_available)
    assert back.freq_res_hz == spec.freq_res_hz
    assert back.db_lo == spec.db_lo and back.db_hi == spec.db_hi


def test_cache_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.spc"
    path.write_bytes(b"NOTMAGIC" + b"\0" * 100)
    with pytest.raises(DataError):
        dsp.read_spectrogram(path)

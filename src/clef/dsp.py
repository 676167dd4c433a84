"""Signal preprocessing and multitaper spectrogram computation.

The front end of the whole pipeline: zero-phase IIR band-pass plus notch
cascade, DPSS (Slepian) tapers from ``scipy.signal.windows.dpss``, and an
eigenvalue-weighted multitaper spectrogram normalized into [-1, 1].
The sample rate is each session's own; the bin width is rate / window.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass, replace

import numpy as np
from scipy import signal

from .cohortgen import channel_flags, channel_mask
from .config import ConfigError, DspConfig
from .errors import DataError


def notch_frequencies(cfg: DspConfig, sample_rate: float) -> list[float]:
    """Line-noise harmonics strictly below Nyquist.

    Notches within ``notch_nyquist_margin_hz`` of Nyquist are excluded: a
    notch at the folding frequency itself is degenerate.
    """
    nyq = sample_rate / 2.0
    out = []
    f = cfg.notch_base_hz
    while f < nyq - cfg.notch_nyquist_margin_hz:
        out.append(f)
        f += cfg.notch_base_hz
    return out


@dataclass
class TaperSet:
    tapers: np.ndarray          # (K, L), rows orthonormal
    concentrations: np.ndarray  # (K,), sorted descending, each > threshold

    @property
    def k(self) -> int:
        return self.tapers.shape[0]

    @property
    def length(self) -> int:
        return self.tapers.shape[1]


@dataclass
class Spectrogram:
    values: np.ndarray           # (C, H, W) in [-1, 1]
    freq_res_hz: float
    frame_stride_s: float
    channel_available: np.ndarray  # (C,) bool
    db_lo: float
    db_hi: float


def _filter_cascade(cfg: DspConfig, sample_rate: float,
                    source: str) -> np.ndarray:
    """Band-pass then notch sections, as a single sos cascade."""
    if cfg.band_hi_hz >= sample_rate / 2.0:
        raise DataError(f"session {source}: band_hi_hz {cfg.band_hi_hz} Hz at "
                        f"or above the {sample_rate / 2.0} Hz Nyquist frequency")
    sos = signal.butter(cfg.bandpass_order, [cfg.band_lo_hz, cfg.band_hi_hz],
                        btype="bandpass", fs=sample_rate, output="sos")
    for f0 in notch_frequencies(cfg, sample_rate):
        b, a = signal.iirnotch(f0, cfg.notch_q, fs=sample_rate)
        sos = np.vstack([sos, signal.tf2sos(b, a)])
    return sos


class FilterBank:
    """Each sample rate's cascade and its ``sosfilt_zi`` state, designed on
    first use; one bank serves a whole dsp run, across its threads."""

    def __init__(self, cfg: DspConfig):
        self.cfg = cfg
        self._by_rate: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        self._lock = threading.Lock()

    def get(self, session) -> tuple[np.ndarray, np.ndarray]:
        with self._lock:
            if (rate := session.sample_rate) not in self._by_rate:
                sos = _filter_cascade(self.cfg, rate, session.session_id)
                self._by_rate[rate] = sos, signal.sosfilt_zi(sos)
            return self._by_rate[rate]


def zero_phase(sos: np.ndarray, zi: np.ndarray, x: np.ndarray,
               padlen: int) -> np.ndarray:
    """``signal.sosfiltfilt(sos, x, padlen=padlen)`` on a 1-D float64 ``x``,
    step for step, with ``zi = signal.sosfilt_zi(sos)`` computed once."""
    ext = np.concatenate((2 * x[:1] - x[padlen:0:-1], x,
                          2 * x[-1:] - x[-2:-(padlen + 2):-1]))
    y, _ = signal.sosfilt(sos, ext, zi=zi * ext[:1])
    y, _ = signal.sosfilt(sos, y[::-1], zi=zi * y[-1:])
    return y[::-1][padlen:padlen + x.size]


def preprocess(session, cfg: DspConfig, bank: FilterBank):
    """Zero-phase (forward-backward) filtering of every available channel.

    Returns a new session of identical shape; unavailable channels are passed
    through untouched.
    """
    samples = np.asarray(session.samples, dtype=np.float64)
    if not np.all(np.isfinite(samples)):
        raise DataError(f"session {session.session_id}: non-finite samples")
    sos, zi = bank.get(session)
    # the low-edge highpass has a multi-second time constant; pad generously
    padlen = min(samples.shape[1] - 1,
                 int(3.0 * session.sample_rate / max(cfg.band_lo_hz, 1e-3)))
    # float64 rows cast once: float32 rows written directly left about 18 MB
    # more heap behind for later stages (train benchmark, peak_rss_mb)
    out = np.empty_like(samples)
    for c in range(samples.shape[0]):
        out[c] = zero_phase(sos, zi, samples[c], padlen) \
            if session.channel_available[c] else samples[c]
    return replace(session, samples=out.astype(np.float32))


def compute_dpss(length: int, nw: float, k_max: int,
                 retain_threshold: float) -> TaperSet:
    """The first ``k_max`` DPSS tapers (``scipy.signal.windows.dpss``, unit
    norm) whose concentration is above ``retain_threshold``; none is a
    ``ConfigError``, the one profile rule that needs this eigen-solve
    (``config.check`` holds the length and ``nw`` rules)."""
    tapers, concentrations = signal.windows.dpss(length, nw, Kmax=k_max,
                                                 norm=2, return_ratios=True)
    keep = concentrations > retain_threshold
    if not keep.any():
        raise ConfigError("no DPSS taper passes dsp.eigen_threshold "
                          f"{retain_threshold} at dsp.nw {nw}")
    return TaperSet(tapers=tapers[keep], concentrations=concentrations[keep])


def multitaper_spectrogram(session, tapers: TaperSet, cfg: DspConfig) -> Spectrogram:
    """Eigenvalue-weighted multitaper power, in dB, clamped into [-1, 1].

    Per frame and channel: P(f) = sum_k lam_k |FFT(x v_k)(f)|^2
    / (sum_k lam_k * f_s), with f_s the session's sample rate, then
    10 log10(P + eps) mapped linearly from [db_lo, db_hi] onto [-1, 1] with
    a hard clamp.
    """
    _require_window(session, cfg)
    samples = np.asarray(session.samples, dtype=np.float64)
    n_ch, t = samples.shape
    if tapers.length != cfg.window:
        raise DataError(f"taper length {tapers.length} != window {cfg.window}")
    n_frames = cfg.n_frames(t)
    fs = session.sample_rate
    n_bins = cfg.n_freq_bins(fs)
    if n_bins > cfg.window // 2 + 1:
        raise DataError(f"session {session.session_id}: band top "
                        f"{cfg.band_top_hz} Hz above the {fs / 2} Hz Nyquist")
    lam = tapers.concentrations
    norm = lam.sum() * fs
    values = np.full((n_ch, n_bins, n_frames), -1.0, dtype=np.float32)
    span = (cfg.db_hi - cfg.db_lo) / 2.0
    mid = (cfg.db_hi + cfg.db_lo) / 2.0
    # edge-pad the tail so every frame start i*stride has a full window
    pad = (n_frames - 1) * cfg.stride + cfg.window - t
    if pad > 0:
        samples = np.pad(samples, ((0, 0), (0, pad)), mode="edge")
    for c in range(n_ch):
        if not session.channel_available[c]:
            continue  # emits the clamp floor; mask plane is authoritative
        frames = np.lib.stride_tricks.sliding_window_view(
            samples[c], cfg.window)[:: cfg.stride][:n_frames]  # (W, window)
        power = np.zeros((n_frames, n_bins))
        for k in range(tapers.k):  # fixed summation order: deterministic
            spec = np.fft.rfft(frames * tapers.tapers[k], n=cfg.window, axis=1)
            power += lam[k] * np.abs(spec[:, :n_bins]) ** 2
        power /= norm
        db = 10.0 * np.log10(power + cfg.power_floor)
        values[c] = np.clip((db - mid) / span, -1.0, 1.0).T.astype(np.float32)
    return Spectrogram(values=values, freq_res_hz=fs / cfg.window,
                       frame_stride_s=cfg.stride / fs,
                       channel_available=np.asarray(session.channel_available, bool),
                       db_lo=cfg.db_lo, db_hi=cfg.db_hi)


def _require_window(session, cfg: DspConfig) -> None:
    if (t := session.samples.shape[1]) < cfg.window:
        raise DataError(f"session {session.session_id}: {t} samples < one window ({cfg.window})")


def session_spectrogram(session, cfg: DspConfig, tapers: TaperSet,
                        bank: FilterBank) -> Spectrogram:
    """Preprocess + multitaper in one call (the standard path)."""
    _require_window(session, cfg)  # before the filter, which needs samples
    filtered = preprocess(session, cfg, bank)
    return multitaper_spectrogram(filtered, tapers, cfg)


# ---------------------------------------------------------------------------
# spectrogram cache file format

_SPC_MAGIC = b"CLEFSPC1"
_SPC_HEADER = struct.Struct("<8sIIIffffI20x")  # 60 bytes


def write_spectrogram(path, spec: Spectrogram) -> None:
    c, h, w = spec.values.shape
    header = _SPC_HEADER.pack(_SPC_MAGIC, c, h, w, spec.freq_res_hz,
                              spec.frame_stride_s, spec.db_lo, spec.db_hi,
                              channel_mask(spec.channel_available))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(spec.values, dtype="<f4").tobytes())


def read_spectrogram(path) -> Spectrogram:
    with open(path, "rb") as fh:
        raw = fh.read(_SPC_HEADER.size)
        if len(raw) < _SPC_HEADER.size:
            raise DataError(f"{path}: truncated spectrogram header")
        magic, c, h, w, fres, stride_s, db_lo, db_hi, mask = _SPC_HEADER.unpack(raw)
        if magic != _SPC_MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}")
        values = np.frombuffer(fh.read(c * h * w * 4), dtype="<f4")
        if values.size != c * h * w:
            raise DataError(f"{path}: truncated spectrogram payload")
    return Spectrogram(values=values.reshape(c, h, w).copy(), freq_res_hz=fres,
                       frame_stride_s=stride_s,
                       channel_available=channel_flags(mask, c),
                       db_lo=db_lo, db_hi=db_hi)

"""Configuration profiles.

Every hyperparameter of the pipeline has its one home here, but for three
fixed in code: the tokenizer's Adam betas (0, 0.99) in ``vqtok``, the
probe's (0.9, 0.999) in ``bench``, and every block's MLP width ratio,
``mim.MLP_RATIO``.  A profile is a named bundle of per-stage configs;
``desk`` is small enough to train end-to-end on a laptop CPU, the
``paper-*`` profiles carry the full-scale constants.

Profiles are overridden from one nested JSON file (``--config``), and
from nothing else.  An unknown key, or a value whose JSON type differs from
the default's (an int is accepted for a float), is a ``ConfigError``, and
so is every key that the README's "Configuration" lists as removed.
``name`` is refused too: a profile is named by ``--profile`` alone, so
``Profile`` has 88 settable leaves.

No key restates a size the data fixes: the channel count is
``len(cohort.channel_names)``, and the EHR code tables have a row per code
of ``cohortgen.vocabularies`` (20 and 20 at desk, the paper's 178 and 205
in ``paper-*``).

The DSP has no sample rate of its own: it reads the rate from each
session's ``.raw`` header, and its bin width is that rate / ``dsp.window``.

``check`` is the one home of the rules on profile values: at
``load_profile`` (exit 2) it refuses every value that a stage cannot run
on, and a spectrogram that the Stage I patch (the tokenizer's total
stride) does not tile.  The CLI refuses a ``.tok`` of another grid, or a
token directory without a manifest, with exit 3.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .errors import short_id


class ConfigError(ValueError):
    """Invalid or unknown configuration key/value."""


# Standard 10-20 montage (19 channels) and the desk subset.
CHANNELS_1020 = [
    "Fp1", "Fp2", "F3", "F4", "C3", "C4", "P3", "P4", "O1", "O2",
    "F7", "F8", "T3", "T4", "T5", "T6", "Fz", "Cz", "Pz",
]
CHANNELS_DESK = ["Fp1", "Fp2", "F3", "F4", "C3", "C4", "O1", "O2"]

# AASM-recommended PSG montage.
PSG_CHANNELS = ["F4", "C4", "O2"]

SEX_CATEGORIES = ["F", "M", "Unknown"]
RACE_CATEGORIES = [
    "American Indian or Alaska Native", "Asian", "Black or African American",
    "Multiracial", "Native Hawaiian or Other Pacific Islander", "Other Race",
    "White", "Unavailable",
]
SETTING_CATEGORIES = ["ICU", "EMU", "Routine"]
N_AGE_BINS = 11  # ten decade-wide bins plus one N/A slot


def age_bin(age_years: int) -> int:
    """Decade bin 0-9 (90 and over share 9); a negative age is the N/A bin."""
    return min(age_years // 10, 9) if age_years >= 0 else N_AGE_BINS - 1


@dataclass
class DspConfig:
    band_lo_hz: float = 0.1
    band_hi_hz: float = 75.0
    bandpass_order: int = 4
    notch_base_hz: float = 60.0
    notch_q: float = 30.0
    notch_nyquist_margin_hz: float = 2.0
    window: int = 800            # 4 s at 200 Hz
    stride: int = 125            # 0.625 s
    nw: float = 2.0
    k_max: int = 4
    eigen_threshold: float = 0.9
    band_top_hz: float = 32.0    # spectrogram covers [0, band_top)
    db_lo: float = -40.0
    db_hi: float = 40.0
    power_floor: float = 1e-12

    def n_freq_bins(self, sample_rate: float) -> int:
        """Bins of width ``sample_rate / window`` below ``band_top_hz``."""
        return int(round(self.band_top_hz * self.window / sample_rate))

    def n_frames(self, n_samples: int) -> int:
        """Frames start at multiples of ``stride``; the tail of the signal is
        edge-padded so the frame count is exactly ``n_samples // stride``."""
        if n_samples < self.window:
            return 0
        return n_samples // self.stride


@dataclass
class CohortConfig:
    n_patients: int = 400
    channel_names: list[str] = field(default_factory=lambda: list(CHANNELS_DESK))
    duration_s: float = 320.0
    sample_rate: float = 200.0
    report_fraction: float = 0.593
    noise_slope: float = -2.0     # 1/f^2 background
    alpha_freq_hz: float = 10.0
    alpha_amplitude_uv: float = 10.0
    noise_rms_uv: float = 20.0
    n_distractor_dx: int = 8
    n_distractor_med: int = 8
    distractor_rate: float = 0.15
    session_day_range: int = 3650

    @property
    def n_channels(self) -> int:
        return len(self.channel_names)

    @property
    def n_samples(self) -> int:
        """Samples in each channel of a session."""
        return int(round(self.duration_s * self.sample_rate))

    @property
    def session_rate(self) -> float:
        """The rate as the DSP reads it from a ``.raw`` header: a float32."""
        return float(np.float32(self.sample_rate))


@dataclass
class TokenizerConfig:
    codebook_size: int = 64
    latent_dim: int = 32
    level_channels: list[int] = field(default_factory=lambda: [16, 24, 32, 32, 32])
    # (freq, time) stride per level; total 16x in frequency, 8x in time.
    level_strides: list[tuple[int, int]] = field(
        default_factory=lambda: [(2, 2), (2, 2), (2, 2), (2, 1), (1, 1)])
    lambda_code: float = 0.8
    lambda_commit: float = 0.2
    gamma_diff: float = 4.0
    p_psg: float = 0.3
    p_drop: float = 0.1
    ramp_steps: int = 200
    # short revival interval: at desk step counts the codebook must recover
    # dead entries within the training run, not after it
    dead_code_steps: int = 50
    lr: float = 1e-3             # the tokenizer's Adam: beta1=0, beta2=0.99
    batch_size: int = 16
    steps: int = 200


@dataclass
class MimConfig:
    depth: int = 2
    d_model: int = 64
    n_heads: int = 4
    dec_depth: int = 2
    dropout: float = 0.0
    mask_mu: float = 0.55
    mask_sigma: float = 0.15
    mask_lo: float = 0.25
    mask_hi: float = 1.0
    r_drop: float = 0.25
    label_smoothing: float = 0.1
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.95
    weight_decay: float = 0.1
    warmup_steps: int = 20
    steps: int = 300
    batch_size: int = 16
    ema_decay: float = 0.999


@dataclass
class EhrSlotConfig:
    dx_slots: int = 8
    med_slots: int = 8


@dataclass
class AlignConfig:
    # the shared embedding width is the encoder's: mim.d_model
    text_max_len: int = 64
    refiner_depth: int = 2
    n_heads: int = 4
    tau: float = 0.07
    r_drop: float = 0.25
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.95
    weight_decay: float = 0.1
    warmup_steps: int = 20
    steps: int = 500
    batch_size: int = 64
    ema_decay: float = 0.9999
    ehr: EhrSlotConfig = field(default_factory=EhrSlotConfig)


@dataclass
class BenchConfig:
    controls_per_case: int = 10
    min_positives: int = 2
    split_val: float = 0.1
    split_test: float = 0.1
    probe_hidden: int = 1536
    probe_epochs: int = 5
    probe_lr: float = 1e-4
    probe_weight_decay: float = 0.01
    probe_batch_size: int = 64
    n_seeds: int = 4
    chronicity_window_days: int = 7
    med_completion_window_days: int = 1


@dataclass
class Profile:
    name: str = "desk"
    dsp: DspConfig = field(default_factory=DspConfig)
    cohort: CohortConfig = field(default_factory=CohortConfig)
    tokenizer: TokenizerConfig = field(default_factory=TokenizerConfig)
    mim: MimConfig = field(default_factory=MimConfig)
    align: AlignConfig = field(default_factory=AlignConfig)
    bench: BenchConfig = field(default_factory=BenchConfig)

    @property
    def patch_shape(self) -> tuple[int, int]:
        """Spectrogram cells behind one token: the tokenizer's total stride."""
        strides = self.tokenizer.level_strides
        return math.prod(s[0] for s in strides), math.prod(s[1] for s in strides)

    @property
    def grid_shape(self) -> tuple[int, int]:
        """Token grid (H', W'): the spectrogram tiled by ``patch_shape``."""
        h = self.dsp.n_freq_bins(self.cohort.session_rate)
        w = self.dsp.n_frames(self.cohort.n_samples)
        ph, pw = self.patch_shape
        if min(h, w, ph, pw) <= 0 or h % ph or w % pw:
            raise ConfigError(
                f"spectrogram {h}x{w} (cohort.sample_rate, cohort.duration_s, "
                "dsp.window, dsp.stride, dsp.band_top_hz) is not a positive "
                f"multiple of the patch {ph}x{pw} (tokenizer.level_strides)")
        return h // ph, w // pw

    def content_hash(self) -> str:
        payload = json.dumps(dataclasses.asdict(self), sort_keys=True, default=str)
        return short_id(hashlib.sha256(payload.encode()))


def _desk() -> Profile:
    # 320 s sessions at a 5 s frame stride give a 64x64 spectrogram over
    # [0, 16) Hz, hence a 4x8 token grid (32 tokens per session).
    p = Profile(name="desk")
    p.dsp.stride = 1000
    p.dsp.band_top_hz = 16.0
    # tiny cohorts need longer probe schedules: a few hundred rows give only
    # ~10 optimizer steps per epoch at the default settings, which undertrains
    p.bench.probe_epochs = 40
    p.bench.probe_lr = 1e-3
    p.bench.probe_batch_size = 32
    return p


def _paper(name: str, depth: int, d_model: int, n_heads: int) -> Profile:
    p = Profile(name=name)
    p.cohort = CohortConfig(
        n_patients=108_341, channel_names=list(CHANNELS_1020),
        duration_s=1280.0,  # with 12 phenotype codes each: 178 dx, 205 med
        n_distractor_dx=166, n_distractor_med=193)
    # the default DSP: stride 125, [0, 32) Hz, H=128, W=2048
    p.tokenizer = TokenizerConfig(
        codebook_size=4096, latent_dim=64,
        level_channels=[64, 128, 128, 256, 256], ramp_steps=100_000,
        lr=1.44e-4, batch_size=32, steps=200_000)
    p.mim = MimConfig(
        depth=depth, d_model=d_model, n_heads=n_heads, dec_depth=4,
        dropout=0.1, lr=5e-4, batch_size=128)
    p.align = AlignConfig(
        text_max_len=256, refiner_depth=4, n_heads=8, lr=5e-4,
        batch_size=128, ehr=EhrSlotConfig(dx_slots=30, med_slots=50))
    p.bench = BenchConfig(min_positives=15)
    return p


_BUILDERS = {
    "desk": _desk,
    "paper-small": lambda: _paper("paper-small", 4, 512, 8),
    "paper-base": lambda: _paper("paper-base", 12, 512, 8),
    "paper-large": lambda: _paper("paper-large", 20, 768, 12),
}

PROFILE_NAMES = tuple(_BUILDERS)


def get_profile(name: str) -> Profile:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ConfigError(
            f"unknown profile {name!r}; expected one of {sorted(_BUILDERS)}")
    return builder()


def _coerce(key: str, current, raw):
    """``raw`` if its JSON type is that of ``current``; an int may stand for
    a float, and each item of a list must fit the default's first item."""
    if isinstance(current, float) and type(raw) is int:
        return float(raw)
    if isinstance(current, (list, tuple)) and type(raw) is list:
        return [_coerce(key, current[0], r) for r in raw] if current else raw
    if type(raw) is type(current):
        return raw
    raise ConfigError(f"{key!r} expects {type(current).__name__}, "
                      f"got {type(raw).__name__} {raw!r}")


def apply_overrides(profile: Profile, overrides: dict) -> Profile:
    """Apply a possibly-nested dict of overrides; unknown keys raise."""
    if "name" in overrides:
        raise ConfigError("'name' is not settable: choose a profile with "
                          "--profile")

    def walk(obj, prefix: str, node: dict) -> None:
        for key, raw in node.items():
            path = prefix + key
            if key not in {f.name for f in dataclasses.fields(obj)}:
                raise ConfigError(f"unknown config key {path!r}")
            current = getattr(obj, key)
            if not dataclasses.is_dataclass(current):
                setattr(obj, key, _coerce(path, current, raw))
            elif isinstance(raw, dict):
                walk(current, path + ".", raw)
            else:
                raise ConfigError(f"{path!r} is a section, not a value")
    walk(profile, "", overrides)
    return profile


def load_profile(name: str, config_path: str | None) -> Profile:
    profile = get_profile(name)
    if config_path:
        with open(config_path) as fh:
            try:
                overrides = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{config_path}: not JSON ({exc})") from exc
        if not isinstance(overrides, dict):
            raise ConfigError(f"{config_path}: expected a JSON object")
        apply_overrides(profile, overrides)
    return check(profile)


# (key, what it must be, predicate) for each value no stage can run on, in
# order: a rule runs once all above it hold (n_heads >= 1 before d % n_heads)
_RULES = [(key, "at least 1", lambda p, key=key: attrgetter(key)(p) >= 1)
          for key in """dsp.stride dsp.k_max tokenizer.steps
          tokenizer.batch_size tokenizer.latent_dim mim.steps mim.batch_size
          mim.d_model mim.n_heads align.steps align.batch_size align.n_heads
          align.text_max_len bench.probe_hidden bench.probe_epochs
          bench.probe_batch_size bench.n_seeds""".split()] + [
    ("cohort.n_patients", "at least 3 (the probe's three splits)",
     lambda p: p.cohort.n_patients >= 3),
    ("cohort.sample_rate", "positive", lambda p: p.cohort.sample_rate > 0),
    ("cohort.channel_names", "between 1 and 32 names (one uint32 in a header)",
     lambda p: 1 <= p.cohort.n_channels <= 32),
    ("dsp.window", "at least 8 (a taper)", lambda p: p.dsp.window >= 8),
    ("dsp.nw", "in (0, dsp.window / 2)",
     lambda p: 0 < p.dsp.nw < p.dsp.window / 2),
    ("dsp.band_hi_hz", "below cohort.sample_rate / 2 (Nyquist)",
     lambda p: p.dsp.band_hi_hz < p.cohort.session_rate / 2.0),
    ("dsp.band_top_hz", "at most cohort.sample_rate / 2 (Nyquist)", lambda p:
     p.dsp.n_freq_bins(p.cohort.session_rate) <= p.dsp.window // 2 + 1),
    ("tokenizer.codebook_size", "in [2, 65536] (a .tok id is a uint16)",
     lambda p: 2 <= p.tokenizer.codebook_size <= 1 << 16),
    ("tokenizer.level_channels", "as long as tokenizer.level_strides",
     lambda p: len(p.tokenizer.level_channels) ==
     len(p.tokenizer.level_strides)),
    ("tokenizer.level_channels", "at least 1 in every entry",
     lambda p: all(c >= 1 for c in p.tokenizer.level_channels)),
    ("mim.n_heads", "a divisor of mim.d_model",
     lambda p: p.mim.d_model % p.mim.n_heads == 0),
    ("align.n_heads", "a divisor of mim.d_model",
     lambda p: p.mim.d_model % p.align.n_heads == 0),
    ("mim.mask_lo", "at most mim.mask_hi",
     lambda p: p.mim.mask_lo <= p.mim.mask_hi),
    ("bench.split_val", "below 1 - bench.split_test (a train split)",
     lambda p: p.bench.split_val + p.bench.split_test < 1)]


def check(profile: Profile) -> Profile:
    """``profile`` if every stage can run on it (``_RULES``, then a
    spectrogram that the patch tiles); else a ``ConfigError`` that names
    the key.  Two rules need a stage's own work, so that stage refuses:
    ``dsp.compute_dpss`` a ``dsp.eigen_threshold`` that no taper passes,
    and ``cohortgen.generate_records`` a rate below a phenotype's band."""
    for key, needs, holds in _RULES:
        if not holds(profile):
            raise ConfigError(f"{key} must be {needs}, "
                              f"got {attrgetter(key)(profile)}")
    profile.grid_shape
    return profile

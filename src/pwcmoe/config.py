"""Experiment configuration: flat `key = value` text files with `#` comments
and dotted section prefixes (e.g. `channel.f_c_ghz = 2.4`)."""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field, fields

from .channel import ChannelParams


class ConfigError(ValueError):
    pass


@dataclass
class DataSpec:
    source: str = "synthetic"  # synthetic | csv
    csv_train: str = ""
    csv_test: str = ""
    synth_train: int = 2000
    synth_test: int = 500
    synth_classes: int = 4
    synth_sensitive_rate: float = 0.8
    max_len: int = 32


@dataclass
class ModelSpec:
    d: int = 64
    experts: int = 8
    privacy_experts: int = 2
    expert_hidden: int = 128
    tau: float = 1.0
    lambda_lb: float = 0.01
    learning_rate: float = 0.2
    momentum: float = 0.9
    epochs: int = 40
    batch_size: int = 32
    checkpoint: str = "model.pwcm"


@dataclass
class PredictorSpec:
    proj_dim: int = 32
    layers: int = 2
    heads: int = 4
    learning_rate: float = 2e-3
    epochs: int = 30
    batch_size: int = 16
    checkpoint: str = "predictor.pwcp"


@dataclass
class ChannelSpec:
    f_c_ghz: float = 2.4
    d_c_m: float = 100.0
    bandwidth_hz: float = 10e6
    tx_power_dbm: float = 23.0
    noise_psd_dbm_hz: float = -174.0
    shadowing_std_db: float = 7.8
    t_ul_s: float = 0.1
    bits_per_value: int = 16
    bits_per_token: int = 0  # 0 = derive from model.d * bits_per_value
    deterministic: bool = False

    def params(self, d: int) -> ChannelParams:
        bpt = self.bits_per_token or d * self.bits_per_value
        return ChannelParams(
            f_c_ghz=self.f_c_ghz, d_c_m=self.d_c_m, bandwidth_hz=self.bandwidth_hz,
            tx_power_dbm=self.tx_power_dbm, noise_psd_dbm_hz=self.noise_psd_dbm_hz,
            shadowing_std_db=self.shadowing_std_db, t_ul_s=self.t_ul_s,
            bits_per_token=bpt,
        )


@dataclass
class SweepSpec:
    budgets: list = field(default_factory=lambda: list(range(1, 11)))
    distances: list = field(default_factory=lambda: [50.0, 100.0, 200.0, 400.0, 800.0])
    targets: list = field(default_factory=lambda: [0.5, 0.6, 0.7])
    trials: int = 5
    channel_draws: int = 2000


@dataclass
class ExperimentSpec:
    seed: int = 0
    data: DataSpec = field(default_factory=DataSpec)
    model: ModelSpec = field(default_factory=ModelSpec)
    predictor: PredictorSpec = field(default_factory=PredictorSpec)
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    sweep: SweepSpec = field(default_factory=SweepSpec)


_BOOL = {"true": True, "false": False, "1": True, "0": False}


def _finite(value: str) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"not finite: {value}")
    return x


def _coerce(value: str, ftype: str, key: str):
    value = value.strip()
    try:
        if ftype == "int":
            return int(value)
        if ftype == "float":
            return _finite(value)
        if ftype == "bool":
            return _BOOL[value.lower()]
        if ftype == "str":
            return value
        if ftype == "list":
            items = [v.strip() for v in value.split(",") if v.strip()]
            return [_finite(v) if "." in v or "e" in v.lower() else int(v)
                    for v in items]
    except (ValueError, KeyError):
        raise ConfigError(f"bad value for {key}: {value!r} (expected {ftype})")
    raise ConfigError(f"unsupported field type {ftype} for {key}")


def parse_config_text(text: str) -> dict:
    """Flat key = value lines; '#' starts a comment; blank lines ignored."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def spec_from_entries(entries: dict) -> ExperimentSpec:
    spec = ExperimentSpec()
    sections = {"data": spec.data, "model": spec.model,
                "predictor": spec.predictor, "channel": spec.channel,
                "sweep": spec.sweep}
    for key, value in entries.items():
        if key == "seed":
            spec.seed = _coerce(value, "int", key)
            continue
        section_name, _, fname = key.partition(".")
        section = sections.get(section_name)
        if section is None or not fname:
            raise ConfigError(f"unknown config key: {key}")
        ftypes = {f.name: str(f.type) for f in fields(section)}
        if fname not in ftypes:
            raise ConfigError(f"unknown config key: {key}")
        setattr(section, fname, _coerce(value, ftypes[fname], key))
    _check_ranges(spec)
    return spec


def _check_ranges(spec: ExperimentSpec):
    """Reject values the stages cannot run on: a negative budget selects
    nothing, zero trials average an empty list, an empty split trains on no
    batches, and a zero width, head count or batch size divides by zero."""
    for k in spec.sweep.budgets:
        if not isinstance(k, int) or k < 0:
            raise ConfigError(f"sweep.budgets: {k!r} is not an integer >= 0")
    for key, value in (("sweep.trials", spec.sweep.trials),
                       ("sweep.channel_draws", spec.sweep.channel_draws),
                       ("data.max_len", spec.data.max_len),
                       ("data.synth_train", spec.data.synth_train),
                       ("data.synth_test", spec.data.synth_test),
                       ("model.d", spec.model.d),
                       ("model.expert_hidden", spec.model.expert_hidden),
                       ("model.batch_size", spec.model.batch_size),
                       ("predictor.proj_dim", spec.predictor.proj_dim),
                       ("predictor.heads", spec.predictor.heads),
                       ("predictor.batch_size", spec.predictor.batch_size)):
        if value < 1:
            raise ConfigError(f"{key} must be >= 1, got {value}")


def load_config(path: str) -> ExperimentSpec:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8: {exc}") from None
    return spec_from_entries(parse_config_text(text))


def spec_to_text(spec: ExperimentSpec) -> str:
    """Canonical serialization (used for config hashing in run manifests)."""
    lines = [f"seed = {spec.seed}"]
    for section_name in ("data", "model", "predictor", "channel", "sweep"):
        section = getattr(spec, section_name)
        for k, v in asdict(section).items():
            if isinstance(v, list):
                v = ",".join(str(x) for x in v)
            lines.append(f"{section_name}.{k} = {v}")
    return "\n".join(lines) + "\n"


def config_hash(spec: ExperimentSpec) -> str:
    return hashlib.sha256(spec_to_text(spec).encode("utf-8")).hexdigest()

"""Run configuration: nested dataclasses, presets, a flat key-path text
format, and the reproducibility manifest.

A config file is plain text, one ``section.key = value`` per line with
``#`` comments. Unknown keys are rejected with their full path.
gen-data, train-teacher and distill serialize the effective config into
the run directory along with a manifest (config hash, package version,
file inventory, wall times), so a run directory is self-describing.
"""
from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from . import __version__
from .cascade import CascadeError, schedule_trace
from .data import DataConfig
from .diffusion import TeacherConfig
from .distill import DistillConfig
from .evalsuite import EvalConfig
from .schedule import sigma_to_logsnr


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    data: DataConfig = field(default_factory=DataConfig)
    teacher: TeacherConfig = field(default_factory=TeacherConfig)
    distill: DistillConfig = field(default_factory=DistillConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)


def toy_default() -> RunConfig:
    """The desk-scale two-stage 8px -> 16px run: every section's defaults."""
    return RunConfig()


def sdxl_like() -> RunConfig:
    """Schedule-level preset for the 512px -> 1024px 4-step configuration.

    It keeps toy-default's split, which encodes the printed low/high
    boundary t = 502 (the quoted logSNR threshold of -2.5 maps to t = 777
    under the conversion here, which would give a 1 + 3 split; see the
    schedule table docs), its flow shift, step count and alphas.
    """
    return RunConfig(distill=DistillConfig(resolutions=(512, 1024)))


def sd35_like() -> RunConfig:
    """512px -> 1024px with flow shift 3 and the logSNR -2.5 threshold;
    toy-default's step count and alphas."""
    return RunConfig(distill=DistillConfig(thresholds=(-2.5,), resolutions=(512, 1024), flow_shift=3.0))


def wan_like() -> RunConfig:
    """480p -> 720p (heights) with flow shift 5 and six steps.

    The split sits at sigma = 0.87, between steps 3 and 4 of the shifted
    grid, so the run divides 3 + 3.
    """
    return RunConfig(
        distill=DistillConfig(
            thresholds=(sigma_to_logsnr(0.87),),
            resolutions=(480, 720),
            flow_shift=5.0,
            n_steps=6,
            alpha=0.5,
            alpha_inference=0.9,
        )
    )


PRESETS = {
    "toy-default": toy_default,
    "sdxl-like": sdxl_like,
    "sd35-like": sd35_like,
    "wan-like": wan_like,
}


def preset(name: str) -> RunConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name]()


def _format_value(value) -> str:
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(_format_value(v) for v in value) + ")"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _walk(cfg, prefix="") -> list[tuple[str, object]]:
    rows = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        path = f"{prefix}{f.name}"
        if dataclasses.is_dataclass(value):
            rows.extend(_walk(value, prefix=f"{path}."))
        else:
            rows.append((path, value))
    return rows


def serialize_config(cfg: RunConfig) -> str:
    """Canonical flat text form; the reproducibility hash covers this."""
    lines = [f"{path} = {_format_value(value)}" for path, value in _walk(cfg)]
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()


def _parse_scalar(text: str, target_type):
    if target_type is int:
        return int(text)
    if target_type is float:
        return float(text)
    raise ValueError(f"unsupported scalar type {target_type}")


def _parse_value(text: str, current):
    text = text.strip()
    if isinstance(current, tuple):
        inner = text
        if inner.startswith("(") and inner.endswith(")"):
            inner = inner[1:-1]
        parts = [p for p in (s.strip() for s in inner.split(",")) if p]
        element_type = int if current and isinstance(current[0], int) else float
        return tuple(_parse_scalar(part, element_type) for part in parts)
    return _parse_scalar(text, type(current))


def parse_overrides(text: str) -> dict[str, str]:
    """Key-path overrides from config-file text; values stay as strings.
    A key set on two lines is rejected."""
    overrides: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key.path = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in first_line:
            raise ConfigError(f"{key} is set twice, on lines {first_line[key]} and {lineno}")
        first_line[key] = lineno
        overrides[key] = value.strip()
    return overrides


def apply_overrides(cfg: RunConfig, overrides: dict[str, str]) -> RunConfig:
    """Typed application of key-path overrides; unknown paths rejected."""
    for path, text in overrides.items():
        cfg = _apply_one(cfg, path.split("."), text, path)
    return cfg


def _apply_one(node, parts: list[str], text: str, full_path: str):
    name = parts[0]
    valid = {f.name for f in fields(node)}
    if name not in valid:
        raise ConfigError(f"unknown config key: {full_path}")
    current = getattr(node, name)
    if len(parts) > 1:
        if not dataclasses.is_dataclass(current):
            raise ConfigError(f"unknown config key: {full_path}")
        return replace(node, **{name: _apply_one(current, parts[1:], text, full_path)})
    if dataclasses.is_dataclass(current):
        raise ConfigError(f"{full_path} is a section, not a value")
    try:
        value = _parse_value(text, current)
    except ValueError as err:
        raise ConfigError(f"{full_path}: {err}") from err
    return replace(node, **{name: value})


def validate_config(cfg: RunConfig) -> None:
    """Check every section, and build the distill schedule, before any work."""
    d = cfg.distill
    try:
        for section in (cfg.data, cfg.teacher, d, cfg.eval):
            section.validate()
    except ValueError as err:
        raise ConfigError(str(err)) from err
    try:
        partition = d.partition()
    except ValueError as err:
        raise ConfigError(f"distill.thresholds = {_format_value(d.thresholds)}, distill.resolutions = "
                          f"{_format_value(d.resolutions)}, distill.flow_shift = "
                          f"{_format_value(d.flow_shift)}: {err}") from err
    try:
        schedule_trace(partition, d.n_steps)
    except (ValueError, CascadeError) as err:
        raise ConfigError(f"distill.n_steps = {d.n_steps} does not fit the stages of distill.thresholds = "
                          f"{_format_value(d.thresholds)}: {err}") from err


@dataclass
class RunManifest:
    config_hash: str
    package_version: str
    files: dict[str, int] = field(default_factory=dict)  # name -> bytes
    timings: dict[str, float] = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [
            f"config_hash = {self.config_hash}",
            f"package_version = {self.package_version}",
        ]
        for name in sorted(self.files):
            lines.append(f"file.{name} = {self.files[name]}")
        for name, seconds in self.timings.items():
            lines.append(f"seconds.{name} = {seconds:.3f}")
        return "\n".join(lines) + "\n"


class RunDirectory:
    """A self-describing output directory: config copy + manifest."""

    def __init__(self, path, cfg: RunConfig):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.cfg = cfg
        self.manifest = RunManifest(config_hash(cfg), __version__)
        (self.path / "config.txt").write_text(serialize_config(cfg))
        self._t0 = time.time()

    def file(self, name: str) -> Path:
        return self.path / name

    def record_time(self, label: str) -> None:
        self.manifest.timings[label] = time.time() - self._t0

    def finalize(self) -> None:
        for p in sorted(self.path.iterdir()):
            if p.is_file() and p.name != "manifest.txt":
                self.manifest.files[p.name] = p.stat().st_size
        (self.path / "manifest.txt").write_text(self.manifest.to_text())

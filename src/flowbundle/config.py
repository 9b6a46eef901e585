"""Pipeline configuration: every setting is parsed, bounded and defaulted here.

An INI key and the command-line flag that overrides it share one parser,
so both get the same check and the same message.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .features import utf8_text
from .mlp import TrainingConfig
from .zeroday import DEFAULT_THRESHOLDS, ThresholdPolicy


class ConfigError(ValueError):
    """Unknown or malformed configuration input."""


@dataclass
class PipelineConfig:
    # [flow]
    idle_timeout_s: float = 120.0
    active_timeout_s: float | None = 1800.0
    # [bundle]
    window_s: float | None = None  # None = whole capture
    # [rfe]
    rfe_k: int = 5
    rfe_epochs: int = 150
    rfe_learning_rate: float = 0.4
    # [network]
    hidden_size: int = 3
    extended_hidden_size: int = 8
    # [training]
    learning_rate: float = 0.05
    epochs: int = 500
    batch_size: int | None = None
    # [autoencoder]
    autoencoder_epochs: int = 500
    # [evaluation]
    folds: int = 5
    # [zeroday]
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS
    # [run]
    seed: int = 0

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["thresholds"] = list(self.thresholds)
        return out

    def set_text(self, attribute: str, raw: str, name: str) -> None:
        """Parse raw into the field; a bad value is a ConfigError naming `name`."""
        try:
            setattr(self, attribute, _parse_value(attribute, raw))
        except ValueError as exc:
            raise ConfigError(f"bad value {raw!r} for {name}: {exc}") from None

    def classifier_training(self) -> TrainingConfig:
        return TrainingConfig(
            learning_rate=self.learning_rate,
            epochs=self.epochs,
            batch_size=self.batch_size,
            loss="cross_entropy",
            seed=self.seed,
        )

    def rfe_training(self) -> TrainingConfig:
        return dataclasses.replace(
            self.classifier_training(),
            learning_rate=self.rfe_learning_rate,
            epochs=self.rfe_epochs,
        )

    def autoencoder_training(self) -> TrainingConfig:
        return TrainingConfig(
            learning_rate=self.learning_rate,
            epochs=self.autoencoder_epochs,
            loss="mse",
            seed=self.seed,
        )


# section -> option -> config attribute
_SCHEMA: dict[str, dict[str, str]] = {
    "flow": {
        "idle_timeout_s": "idle_timeout_s",
        "active_timeout_s": "active_timeout_s",
    },
    "bundle": {"window_s": "window_s"},
    "rfe": {
        "k": "rfe_k",
        "epochs": "rfe_epochs",
        "learning_rate": "rfe_learning_rate",
    },
    "network": {
        "hidden_size": "hidden_size",
        "extended_hidden_size": "extended_hidden_size",
    },
    "training": {
        "learning_rate": "learning_rate",
        "epochs": "epochs",
        "batch_size": "batch_size",
    },
    "autoencoder": {"epochs": "autoencoder_epochs"},
    "evaluation": {"folds": "folds"},
    "zeroday": {"thresholds": "thresholds"},
    "run": {"seed": "seed"},
}

def _parse_value(attribute: str, raw: str):
    """Parse by the field's annotation; a ValueError says what is wrong."""
    kind = PipelineConfig.__dataclass_fields__[attribute].type
    raw = raw.strip()
    if kind.endswith("| None") and raw.lower() == "none":
        return None
    if kind.startswith("tuple"):
        value = ThresholdPolicy(tuple(float(part) for part in raw.split(","))).thresholds
    elif kind.startswith("int"):
        value = int(raw)
        low = {"folds": 2, "seed": 0}.get(attribute, 1)
        if value < low:
            raise ValueError(f"must be >= {low}")
    else:
        value = float(raw)
        if not (math.isfinite(value) and value > 0):
            raise ValueError("must be a finite number > 0")
    return value


def _syntax_error(path: str | Path, exc: configparser.Error) -> ConfigError:
    """Name the file and line of an INI syntax error configparser raised."""
    if isinstance(exc, configparser.MissingSectionHeaderError):
        where, what = exc.lineno, "key before any [section] header"
    elif isinstance(exc, configparser.ParsingError):
        where, text = exc.errors[0]
        what = f"cannot parse {text}"
    elif isinstance(exc, configparser.DuplicateOptionError):
        where, what = exc.lineno, f"duplicate key {exc.option!r} in [{exc.section}]"
    else:  # DuplicateSectionError: reading without interpolation raises no other
        where, what = exc.lineno, f"duplicate section [{exc.section}]"
    return ConfigError(f"{path}:{where}: {what}")


def load_config(path: str | Path) -> PipelineConfig:
    """Parse a key = value config file; unknown sections or keys reject."""
    # no section header is empty, so [DEFAULT] is an unknown section like
    # any other, and a value's % is its own
    parser = configparser.ConfigParser(default_section="", interpolation=None)
    try:
        # configparser splits lines on LF only; a CRLF or lone CR ends a line too
        text = utf8_text(path, ConfigError).replace("\r\n", "\n").replace("\r", "\n")
        parser.read_string(text, source=str(path))
        sections = {section: parser.items(section) for section in parser.sections()}
    except OSError:
        raise ConfigError(f"config file {path} not found or unreadable") from None
    except configparser.Error as exc:
        raise _syntax_error(path, exc) from None
    cfg = PipelineConfig()
    for section, items in sections.items():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown config section [{section}]")
        for option, raw in items:
            attribute = _SCHEMA[section].get(option)
            if attribute is None:
                raise ConfigError(
                    f"{path}: unknown key {option!r} in section [{section}]"
                )
            try:
                cfg.set_text(attribute, raw, f"[{section}] {option}")
            except ConfigError as exc:
                raise ConfigError(f"{path}: {exc}") from None
    return cfg

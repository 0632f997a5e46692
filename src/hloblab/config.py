"""Flat key/value run configuration with env overrides and a content digest.

The config file is plain text, one ``key = value`` per line, ``#`` comments,
with sectioned keys like ``train.lr``. Environment variables prefixed
``HLOBLAB_`` override file values; a double underscore maps to the section
dot (``HLOBLAB_TRAIN__LR`` overrides ``train.lr``).

:data:`KEYS` gives each key's default, type and rule. ``cfg[key]`` reads a
key as its type and checks its rule on every read, so a bad value stops the
stage that reads it.
"""

from __future__ import annotations

import hashlib
import math
import os
from pathlib import Path
from typing import Callable, NamedTuple

from . import lob
from .errors import ConfigError

ENV_PREFIX = "HLOBLAB_"
IN_DAYS = "a nonempty list of days listed in days"


class Key(NamedTuple):
    """``kind`` is str, int, float or list (of days); ``ok(value, cfg)`` holds
    for a good value, and ``must`` says so in the error and the README."""

    default: str
    kind: type
    must: str = ""
    ok: Callable[[object, "RunConfig"], bool] | None = None


def _at_least(least) -> tuple[str, Callable]:
    return f"at least {least}", lambda v, cfg: v >= least


def _within(least, most) -> tuple[str, Callable]:
    return f"from {least} to {most}", lambda v, cfg: least <= v <= most


def _split(key, *others) -> tuple[str, Callable]:
    """A split's rule: IN_DAYS, under its own error, and disjoint from ``others``."""
    def ok(v, cfg):
        if not v or not set(v) <= set(cfg["days"]):
            raise ConfigError(key, f"must be {IN_DAYS}, got {cfg.values[key]!r}")
        return not set(v) & {d for other in others for d in cfg[other]}
    return (f"disjoint from {' and '.join(others)}" if others else IN_DAYS), ok


# upper bounds that keep the stages' integer arithmetic inside int64: a trim
# is at most the 09:30-16:00 session, in seconds, a tick at most 10,000
# currency units, 1e8 integer price units, and a lot at most 10^9 shares, so
# that synth's volumes (at most 499 lots) stay far below 2^63
SESSION_S = (lob.SESSION_CLOSE_NS - lob.SESSION_OPEN_NS) // 10**9
MAX_TICK_SIZE = 1e4
MAX_LOT_SIZE = 10**9

KEYS = {
    "ticker": Key("SYN", str),
    "tick_size": Key("0.01", float, f"from one price unit, 0.0001, to {MAX_TICK_SIZE:g}",
                     lambda v, cfg: v <= MAX_TICK_SIZE and lob.price_units(v) >= 1),
    "lot_size": Key("1", int, *_within(1, MAX_LOT_SIZE)),
    "year": Key("1970", str),
    "data_dir": Key("data", str),
    "out_dir": Key("out", str),
    "days": Key(",".join(f"1970-01-{d:02d}" for d in range(1, 10)), list,
                "a nonempty list of distinct days", lambda v, cfg: v and len(set(v)) == len(v)),
    "split.train": Key("1970-01-06,1970-01-07", list, *_split("split.train")),
    "split.validation": Key("1970-01-08", list, *_split("split.validation", "split.train")),
    "split.test": Key("1970-01-09", list,
                      *_split("split.test", "split.train", "split.validation")),
    "horizon": Key("10", int, *_at_least(1)),
    "n_bins": Key("32", int, "from 2 to 1024", lambda v, cfg: 2 <= v <= 1024),
    "bootstrap": Key("10", int, *_at_least(1)),
    "seed": Key("0", int, *_at_least(0)),
    "window_len": Key("100", int, *_at_least(1)),
    "trim_start_s": Key("1800", float, *_within(0, SESSION_S)),
    "trim_end_s": Key("1800", float, *_within(0, SESSION_S)),
    "synth.n_events": Key("600", int, *_at_least(1)),
    "synth.regime": Key("compact", str, f"one of {', '.join(lob.SYNTH_REGIMES)}",
                        lambda v, cfg: v in lob.SYNTH_REGIMES),
    "train.batch_size": Key("32", int, *_at_least(1)),
    "train.max_epochs": Key("100", int, *_at_least(1)),
    "train.early_stop_delta": Key("0.003", float, *_at_least(0)),
    "train.patience": Key("15", int, *_at_least(1)),
    "train.lr": Key("6e-5", float, *_at_least(0)),
    "train.beta1": Key("0.90", float, "in [0, 1)", lambda v, cfg: 0 <= v < 1),
    "train.beta2": Key("0.95", float, "in [0, 1)", lambda v, cfg: 0 <= v < 1),
    "train.eps": Key("1e-8", float, "greater than 0", lambda v, cfg: v > 0),
    "train.weight_decay": Key("0.01", float, *_at_least(0)),
    "train.balanced_cap": Key("5000", int, *_at_least(1)),
}

DEFAULTS = {key: spec.default for key, spec in KEYS.items()}
_NUMBER = {int: "an int64 integer", float: "a finite number"}


class RunConfig:
    """Typed view over the flat key/value store."""

    def __init__(self, values: dict[str, str]):
        unknown = set(values) - set(DEFAULTS)
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown key")
        self.values = dict(DEFAULTS)
        self.values.update(values)

    @classmethod
    def load(cls, path) -> "RunConfig":
        """The config file at ``path``, which must be UTF-8, under the
        ``HLOBLAB_*`` overrides, whose values must be UTF-8 too; each
        override must name a key, and no key may have two."""
        raw = Path(path).read_bytes()
        try:
            text = raw.decode()
        except UnicodeDecodeError as exc:
            line = raw.count(b"\n", 0, exc.start) + 1
            raise ConfigError(f"line {line}",
                              f"byte 0x{raw[exc.start]:02x} is not valid UTF-8") from None
        values = parse_config_text(text)
        overridden: dict[str, str] = {}
        for env_key, env_val in sorted(os.environ.items()):
            if env_key.startswith(ENV_PREFIX):
                try:
                    env_val.encode()
                except UnicodeEncodeError:
                    # os.environ holds an undecodable byte as a lone surrogate
                    raise ConfigError(env_key, "value is not valid UTF-8") from None
                key = env_key[len(ENV_PREFIX):].lower().replace("__", ".")
                if key not in KEYS:
                    raise ConfigError(env_key, "unknown key")
                if key in overridden:
                    raise ConfigError(key, f"set by both {overridden[key]} and {env_key}")
                overridden[key] = env_key
                values[key] = env_val
        return cls(values)

    # filesystem locations are excluded from the digest: it guards against
    # semantic config drift between stages, and the same run relocated to a
    # different directory should produce byte-identical artifacts
    DIGEST_EXCLUDED = frozenset({"data_dir", "out_dir"})

    def digest(self) -> str:
        canonical = "\n".join(f"{k}={self.values[k]}"
                              for k in sorted(self.values)
                              if k not in self.DIGEST_EXCLUDED)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def __getitem__(self, key):
        """``key`` read as ``KEYS[key].kind``; its value must meet the key's rule."""
        raw = value = self.values[key]
        spec = KEYS[key]
        if spec.kind is list:
            value = [d.strip() for d in raw.split(",") if d.strip()]
        elif spec.kind is not str:
            try:
                value = spec.kind(raw)
                fits = -2**63 <= value < 2**63 if spec.kind is int else math.isfinite(value)
            except ValueError:
                fits = False
            if not fits:
                raise ConfigError(key, f"must be {_NUMBER[spec.kind]}, got {raw!r}")
        if spec.ok is not None and not spec.ok(value, self):
            raise ConfigError(key, f"must be {spec.must}, got {raw!r}")
        return value


def parse_config_text(text: str) -> dict[str, str]:
    r"""``key = value`` lines, each key at most once; only ``\n`` ends a
    line, so the line numbers errors give are those of the file's ``\n``
    bytes."""
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for line_no, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}", f"expected 'key = value': {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in lines:
            raise ConfigError(key, f"set on line {lines[key]} and again on line {line_no}")
        lines[key] = line_no
        values[key] = value.strip()
    return values

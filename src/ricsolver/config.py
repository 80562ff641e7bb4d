"""Config-file and override parsing.

Format: one `key = value` per line, `#` starts a comment, blank lines are
skipped. Keys not in KNOWN_KEYS raise ConfigError; missing keys fall back
to the baseline calibration and the fallback is recorded so validate() can
surface it. The same keys are accepted by repeated --set key=value flags,
which win over the file.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from .errors import ConfigError
from .params import ClaimDist, ModelParams

# key -> (block, attribute) of ModelParams: block "top" is ModelParams itself,
# claim_family and claim_params are the insurance block's claim_dist fields,
# and "lambda", a Python keyword, is stored as lam.
KNOWN_KEYS: Dict[str, Tuple[str, str]] = {
    "r": ("market", "r"),
    "a": ("market", "a"),
    "sigma": ("market", "sigma"),
    "beta": ("market", "beta"),
    "alpha": ("market", "alpha"),
    "rho1": ("market", "rho1"),
    "m0": ("market", "m0"),
    "b": ("insurance", "b"),
    "theta1": ("insurance", "theta1"),
    "lambda": ("insurance", "lam"),
    "mu1": ("insurance", "mu1"),
    "mu2": ("insurance", "mu2"),
    "claim_family": ("insurance", "claim_family"),
    "claim_params": ("insurance", "claim_params"),
    "gamma": ("preference", "gamma"),
    "delta": ("preference", "delta"),
    "Phi": ("preference", "Phi"),
    "t0": ("horizon", "t0"),
    "T": ("horizon", "T"),
    "k_bar": ("top", "k_bar"),
}

def parse_config_text(text: str, source: str = "<config>") -> Dict[str, str]:
    """Parse `key = value` lines into a raw string map.

    Unknown keys, duplicate keys, and malformed lines raise ConfigError
    with the offending line number.
    """
    raw: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{source}:{lineno}: empty value for {key!r}")
        raw[key] = value
    return raw


def load_config(path: str) -> Dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=path)


def apply_sets(raw: Dict[str, str], sets: List[str]) -> Dict[str, str]:
    """Merge --set key=value overrides (later flags win, also over the file)."""
    merged = dict(raw)
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"--set: unknown key {key!r}")
        if not value:
            raise ConfigError(f"--set: empty value for {key!r}")
        merged[key] = value
    return merged


def _parse(key: str, text: str) -> object:
    """The value of key given as text."""
    if key == "claim_family":
        return text
    if key == "claim_params":
        try:
            values = tuple(float(p) for p in text.split(",") if p.strip())
        except ValueError:
            raise ConfigError(f"key 'claim_params': cannot parse {text!r}") from None
        if not values:
            raise ConfigError(f"key 'claim_params': no values in {text!r}")
        return values
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse {text!r} as a number") from None


def _field(params: ModelParams, key: str) -> object:
    """The value params holds for key, where KNOWN_KEYS places it."""
    block, attr = KNOWN_KEYS[key]
    holder = params if block == "top" else getattr(params, block)
    if attr.startswith("claim_"):
        holder, attr = holder.claim_dist, attr[len("claim_"):]
    return getattr(holder, attr)


def _text(value: object, spec: str) -> str:
    """value as config text: floats in format spec, tuples comma-joined."""
    if isinstance(value, tuple):
        return ",".join(f"{p:{spec}}" for p in value)
    return f"{value:{spec}}" if isinstance(value, float) else str(value)


def build_params(raw: Dict[str, str]) -> Tuple[ModelParams, Tuple[str, ...]]:
    """Materialize ModelParams from a raw string map.

    Returns the params and one fallback note per key that was not set and
    took its baseline default.
    """
    defaults = ModelParams()
    fields: Dict[str, Dict[str, object]] = {block: {} for block, _ in KNOWN_KEYS.values()}
    fallbacks: List[str] = []
    for key, (block, attr) in KNOWN_KEYS.items():
        if key in raw:
            value = _parse(key, raw[key])
        else:
            value = _field(defaults, key)
            fallbacks.append(f"key {key!r} not set; default {_text(value, 'g')} used")
        fields[block][attr] = value
    ins = fields["insurance"]
    ins["claim_dist"] = ClaimDist(ins.pop("claim_family"), ins.pop("claim_params"))
    blocks = {b: replace(getattr(defaults, b), **f) for b, f in fields.items() if b != "top"}
    return replace(defaults, **blocks, **fields["top"]), tuple(fallbacks)


def resolve(
    config_path: Optional[str], sets: List[str]
) -> Tuple[ModelParams, Tuple[str, ...]]:
    """Full resolution pipeline: file (optional) -> --set overrides -> params."""
    raw = load_config(config_path) if config_path else {}
    raw = apply_sets(raw, sets)
    params, fallbacks = build_params(raw)
    if config_path is None and not sets:
        fallbacks = ("no config given; baseline calibration used",) + fallbacks
    return params, fallbacks


def resolved_items(params: ModelParams) -> List[Tuple[str, str]]:
    """(key, value) pairs of the fully resolved configuration, in
    KNOWN_KEYS order.

    Values are formatted with %.9g so emitting them into CSV headers is
    deterministic across runs.
    """
    return [(key, _text(_field(params, key), ".9g")) for key in KNOWN_KEYS]

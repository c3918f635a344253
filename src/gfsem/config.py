"""Flat dotted-key run configuration.

One `key = value` pair per line, `#` comments, no nesting. Every key that a
run consumed is echoed into its manifest, so configs stay diffable.
"""

from __future__ import annotations


class ConfigError(ValueError):
    pass


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        out[key] = value.strip()
    return out


def load_config(path) -> dict[str, str]:
    try:
        with open(path) as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _get(cfg: dict, key: str, default, parse, what: str):
    """parse(cfg[key]), or the default of an absent key; errors name the key."""
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return parse(cfg[key])
    except ValueError:
        raise ConfigError(f"{key} = {cfg[key]!r} is not {what}") from None


def get_str(cfg: dict, key: str, default=None, choices=None) -> str:
    val = _get(cfg, key, default, str, "text")
    if choices and val not in choices:
        raise ConfigError(f"{key} = {val!r} not in {sorted(choices)}")
    return val


def get_float(cfg: dict, key: str, default=None) -> float:
    return _get(cfg, key, default, float, "a number")


def get_int(cfg: dict, key: str, default=None) -> int:
    return _get(cfg, key, default, int, "an integer")


def _pair(text: str) -> tuple[float, float]:
    x, y = text.replace(",", " ").split()  # ValueError unless two tokens
    return float(x), float(y)


def get_pair(cfg: dict, key: str, default=None) -> tuple[float, float]:
    return _get(cfg, key, default, _pair, "a pair of numbers")


def get_meshes(cfg: dict, key: str = "grid.meshes") -> list[tuple[int, int]]:
    raw = get_str(cfg, key)
    meshes = []
    for tok in raw.replace(",", " ").split():
        a, b = tok.split("x", 1) if "x" in tok else (tok, tok)
        try:
            mesh = (int(a), int(b))
        except ValueError:
            raise ConfigError(f"{key} = {raw!r}: {tok!r} is not N or NxM") from None
        if min(mesh) < 1:
            raise ConfigError(f"{key} = {raw!r}: cell counts must be >= 1")
        meshes.append(mesh)
    if not meshes:
        raise ConfigError(f"{key} lists no meshes")
    return meshes

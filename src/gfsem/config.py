"""Flat dotted-key run configuration.

One `key = value` pair per line, `#` comments, no nesting; a later key
overrides an earlier one. Every key that a run consumed is echoed into its
manifest, so configs stay diffable. `parse` reads one key;
`gfsem.experiments.SCHEMA` declares every key a run reads.
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


def pair(text: str) -> tuple[float, float]:
    x, y = text.replace(",", " ").split()  # ValueError unless two tokens
    return float(x), float(y)


def meshes(text: str) -> list[tuple[int, int]]:
    """Cell counts `N` (square) or `NxM`, split by spaces or commas."""
    out = [tuple(map(int, tok.split("x", 1) if "x" in tok else (tok, tok)))
           for tok in text.replace(",", " ").split()]
    if not out:
        raise ValueError("no meshes")
    return out


_WHAT = {int: "an integer", float: "a number", pair: "a pair of numbers",
         meshes: "a list of N or NxM cell counts"}


def parse(cfg: dict, key: str, parser, within=None):
    """cfg[key] read by `parser`, a function of the text or a tuple of the
    accepted texts, and checked against `within`, a range (description, test)
    that the value, or each item of a tuple or list value, must pass. A
    ConfigError that names the key says why it is missing or not accepted."""
    if key not in cfg:
        raise ConfigError(f"missing required key {key!r}")
    text = cfg[key]
    if isinstance(parser, tuple):
        if text not in parser:
            raise ConfigError(f"{key} = {text!r} not in {sorted(parser)}")
        return text
    try:
        val = parser(text)
    except ValueError:
        raise ConfigError(f"{key} = {text!r} is not {_WHAT.get(parser, 'valid')}") from None
    if within and not all(map(within[1], val if isinstance(val, (tuple, list)) else (val,))):
        raise ConfigError(f"{key} = {text!r} must be {within[0]}")
    return val

"""Did-you-mean suggestions for names a registry or declaration does not know."""

from __future__ import annotations

import difflib
from typing import Iterable, Optional

__all__ = ["closest_name", "did_you_mean"]


def closest_name(name: str, known: Iterable[str]) -> Optional[str]:
    """The name in ``known`` closest to ``name``, or ``None`` when none is close."""
    matches = difflib.get_close_matches(str(name), sorted(known), n=1, cutoff=0.5)
    return matches[0] if matches else None


def did_you_mean(suggestion: Optional[str]) -> str:
    """The error-message tail naming ``suggestion``; empty without one."""
    return "" if suggestion is None else f"; did you mean {suggestion!r}?"

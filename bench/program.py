"""Locate the program under test: the ``qsphere`` package in ``src/`` of
the checkout that holds this benchmark."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def source_present() -> bool:
    return (SRC / "qsphere" / "__init__.py").is_file()


def use_checkout_source() -> None:
    """Put the checkout's ``src`` first on ``sys.path``; raise if the
    checkout has no source, so that no installed copy is measured."""
    if not source_present():
        raise FileNotFoundError("no qsphere source under %s" % SRC)
    sys.path.insert(0, str(SRC))

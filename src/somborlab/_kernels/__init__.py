"""Kernel backend selection.

The compiled Cython core is preferred when importable; the pure-Python module
is a drop-in fallback that returns the same results. With twin pruning the
pure `enumerate_classes` outruns the compiled one, which has none (1.1 s
against 1.6 s for every sequence with n <= 9, c <= 3, Python 3.11 on a 2-core
x86-64 host); the compiled core still speeds up `canon_bits` and the
subset-filter cross-check. Set SOMBOR_KERNEL=pure to force the fallback, or
SOMBOR_KERNEL=cython to fail loudly when the extension is missing.
"""

from __future__ import annotations

import os

from . import _pure

_choice = os.environ.get("SOMBOR_KERNEL", "").strip().lower()

if _choice == "pure":
    _impl = _pure
elif _choice == "cython":
    from . import _core as _impl  # type: ignore[no-redef]
else:
    try:
        from . import _core as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _pure

BACKEND = _impl.BACKEND
MAX_VERTICES = _pure.MAX_VERTICES

canon_bits = _impl.canon_bits
canon_edges = _impl.canon_edges
bits_to_edges = _pure.bits_to_edges
enumerate_classes = _impl.enumerate_classes
classes_by_sequence = _impl.classes_by_sequence

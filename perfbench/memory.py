"""Peak resident memory of this process, from ``/proc/self``.

Writing ``5`` to ``/proc/self/clear_refs`` resets the kernel's
high-water mark (``VmHWM``) to the current resident size, so the peak
read at the end of the timed phase covers that phase only.
"""

from __future__ import annotations

from pathlib import Path

_STATUS = Path("/proc/self/status")
_CLEAR_REFS = Path("/proc/self/clear_refs")


def peak_rss_mb() -> float:
    """``VmHWM`` of this process in MB (10**6 bytes)."""
    for line in _STATUS.read_text(encoding="ascii").splitlines():
        if line.startswith("VmHWM:"):
            kib = int(line.split()[1])
            return kib * 1024 / 1e6
    raise RuntimeError(f"no VmHWM line in {_STATUS}")


def reset_peak_rss() -> None:
    """Reset ``VmHWM`` to the current resident size."""
    _CLEAR_REFS.write_text("5", encoding="ascii")

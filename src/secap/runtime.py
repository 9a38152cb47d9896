"""Process-wide runtime switches.

Debug checks are off by default; tests and the CLI can enable them via
set_debug_checks() or the SECAP_DEBUG_NAN environment variable.
"""

import os

_debug_checks = os.environ.get("SECAP_DEBUG_NAN", "") not in ("", "0")


def set_debug_checks(enabled: bool) -> None:
    """Toggle the post-op NaN/Inf scan on every forward result."""
    global _debug_checks
    _debug_checks = bool(enabled)


def debug_checks_enabled() -> bool:
    return _debug_checks


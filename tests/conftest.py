"""Suite-wide set-up.

Hypothesis imports libcst, where installed, to write a patch for a failing
example. That import raises a DeprecationWarning (through mypy_extensions),
and under ``pytest -W error`` the warning becomes an exception inside the
failure report, so pytest ends with INTERNALERROR instead of reporting the
failure. Importing libcst once here, with that one warning ignored, makes the
later import a cached no-op. No other warning is filtered.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass

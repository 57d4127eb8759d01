"""Repository-level pytest configuration.

Ensures ``src/`` is importable even when the package has not been installed
(e.g. on an offline machine where ``pip install -e .`` cannot build an
editable wheel).  When the package *is* installed this is a harmless no-op —
the installed distribution and ``src/repro`` are the same files.  Also
registers the hypothesis profiles and loads the deterministic one.
"""

import sys
from pathlib import Path

from hypothesis import settings

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

# Tier-1 is deterministic: every run tries the same hypothesis examples, so
# a failure always points at a code change, never at a lucky draw.  The
# nightly workflow explores fresh examples with
# ``pytest --hypothesis-profile randomized``.
settings.register_profile("deterministic", derandomize=True)
settings.register_profile("randomized", derandomize=False)
settings.load_profile("deterministic")


def pytest_addoption(parser):
    """Register the conformance suite's golden-regeneration flag.

    (Lives here because pytest only honours ``pytest_addoption`` in initial
    conftests; the flag is consumed by ``tests/conformance``.)
    """
    parser.addoption(
        "--regen-goldens",
        action="store_true",
        default=False,
        help="rewrite tests/conformance/goldens/*.json from the current "
        "batch-engine output instead of comparing against them",
    )

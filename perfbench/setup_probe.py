"""Cold start of a CLI user: a fresh interpreter imports orthinst.cli from
the checkout's src/ and parses and flattens the bundled specs.
``run.py`` times whole runs of this script for ``setup_s``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import orthinst.cli  # noqa: E402,F401
from orthinst.specfile import bundled_spec_path, parse_spec  # noqa: E402

for name in ("c6p3", "c5p3"):
    parse_spec(bundled_spec_path(name)).flatten()

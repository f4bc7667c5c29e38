"""Suite-wide settings: hypothesis draws the same examples on every run and
keeps no example database, so the suite is deterministic. Its remaining
cache (constants parsed from local source files) goes to a temporary
directory that is removed at exit, so no ``.hypothesis/`` is written."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

_HOME = tempfile.TemporaryDirectory(prefix="cfpilot-hypothesis-")
set_hypothesis_home_dir(_HOME.name)
settings.register_profile("cfpilot", derandomize=True, database=None, deadline=None)
settings.load_profile("cfpilot")

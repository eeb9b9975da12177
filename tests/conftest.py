"""Suite-wide settings: one deterministic hypothesis profile.

Property tests draw the same examples on every run and keep no example
database, so the suite gives the same verdict each time.  hypothesis
still caches the literals it reads from the source files under its
storage directory; that directory is a temporary one, removed at exit,
so a run leaves no ``.hypothesis/`` directory behind.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_storage.name)

settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")

"""Suite-wide settings: one deterministic hypothesis profile, and a
variant of it without the shrink phase.

Property tests draw the same examples on every run and keep no example
database, so the suite gives the same verdict each time.  hypothesis
still caches the literals it reads from the source files under its
storage directory; that directory is a temporary one, removed at exit,
so a run leaves no ``.hypothesis/`` directory behind.

``deterministic`` is the default.  ``no-shrink`` draws the same examples
but reports the first failing one as found, without shrinking it.  It is
for runs against a deliberately broken copy of the library, where
shrinking a failure of every example costs minutes:

    pytest tests --hypothesis-profile no-shrink
"""

import tempfile

from hypothesis import Phase, settings
from hypothesis.configuration import set_hypothesis_home_dir

_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_storage.name)

settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.register_profile("no-shrink",
                          parent=settings.get_profile("deterministic"),
                          phases=[Phase.explicit, Phase.reuse,
                                  Phase.generate])
settings.load_profile("deterministic")

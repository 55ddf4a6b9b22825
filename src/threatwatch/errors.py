"""Shared exception base for domain errors.

Every error raised by threatwatch on bad input or bad configuration derives
from ThreatwatchError, so callers (and the CLI) can distinguish domain
failures (exit code 1) from I/O failures (OSError, exit code 2).
"""

from __future__ import annotations

import copyreg


class ThreatwatchError(Exception):
    """Base class for all threatwatch domain errors."""

    def __reduce__(self):
        # Pickling calls type(self)(*self.args) by default, but subclasses
        # build their message from other arguments. Rebuild through __new__,
        # which sets args without calling __init__, then restore the fields,
        # so an error survives the trip back from a worker process.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__

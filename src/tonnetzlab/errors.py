"""The one base class of every tonnetzlab domain error.

This module imports nothing, so any module can raise and the command line can
catch domain errors without loading the audio stack (and numpy with it).
"""


class TonnetzlabError(ValueError):
    """Input that tonnetzlab rejects; the command line reports it on one line and exits 2."""

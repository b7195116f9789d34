"""Exception hierarchy shared across the package.

Every error raised on purpose derives from MialabError so the CLI can map
failures to a single machine-parseable line.
"""


class MialabError(Exception):
    """Base class for all deliberate failures."""


class ShapeError(MialabError, ValueError):
    """Array dimensions do not match the declared architecture."""


class FormatError(MialabError, ValueError):
    """A file (dataset, farm store, score table) is malformed."""


class UnsupportedVersionError(FormatError):
    """A farm store was written with an unknown format version."""


class FingerprintMismatchError(MialabError, ValueError):
    """Dataset fingerprint does not match the farm or oracle provenance."""


class ConfigError(MialabError, ValueError):
    """Experiment configuration is missing or inconsistent."""


class OutputExistsError(MialabError, RuntimeError):
    """Refusing to overwrite existing output without --force."""


class IsolationError(MialabError, RuntimeError):
    """An offline code path touched a model it must not access."""

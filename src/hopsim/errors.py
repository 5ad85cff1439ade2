"""Exception types shared across the simulator."""


class HopsimError(Exception):
    """Base class for every error raised by this package."""


# --- addressing / hop schedules ---

class InvalidPool(HopsimError):
    """Prefix pool is empty, mixed-version, overlapping, or too small."""


class LengthMismatch(HopsimError):
    """Dwell list length does not match the requested address count."""


# --- dwell models ---

class InsufficientData(HopsimError):
    """Training trace too short for the requested model order."""


class EmptyAlphabet(HopsimError):
    """Interval alphabet has no bins."""


class EmptyModel(HopsimError):
    """Model has no states to start from."""


class AbsorbingState(HopsimError):
    """Sampler reached a state with no outgoing transitions."""


# --- flow rewriting ---

class VersionMismatch(HopsimError):
    """Addresses of different IP versions used in one rewrite rule."""


# --- route simulation ---

class UnknownAs(HopsimError):
    """ASN not present in the topology."""


class NotAnnounced(HopsimError):
    """Withdraw for a prefix the origin never announced."""


class MoasConflict(HopsimError):
    """Prefix already announced by a different origin."""


# --- covert channel ---

class PayloadTooLarge(HopsimError):
    """Serialized payload exceeds the channel's size bound."""


class NameTooLong(HopsimError):
    """A generated record name exceeds the DNS name limit (the domain tail is too long)."""


class CovertDecodeError(HopsimError):
    """Base class for decode failures of the covert channel."""


class MalformedRecord(CovertDecodeError):
    """Record set contains a syntactically invalid or inconsistent name."""


class IncompleteSet(CovertDecodeError):
    """Record set is missing one or more chunks."""


class IntegrityFailure(CovertDecodeError):
    """Checksum mismatch after reassembly."""


# --- scenarios ---

class ConfigError(HopsimError):
    """Scenario configuration is invalid; `field` names the offending key."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class ScenarioError(HopsimError):
    """A scenario invariant failed at run time."""

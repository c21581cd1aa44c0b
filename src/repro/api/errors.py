"""Typed errors raised by the service layer.

The session API never mis-counts silently: driving a closed session or
submitting an inadmissible demand raises one of the exceptions below, so
external callers (services, schedulers, admission controllers) can react
per error class instead of parsing messages.
"""

from __future__ import annotations

__all__ = [
    "ApiError",
    "SessionClosedError",
    "AdmissionError",
    "ComponentLookupError",
    "SnapshotFormatError",
    "SnapshotIntegrityError",
]


class ApiError(RuntimeError):
    """Base class of every error raised by :mod:`repro.api`."""


class SessionClosedError(ApiError):
    """The session's horizon is exhausted or it was closed explicitly."""


class AdmissionError(ApiError):
    """A submitted demand cannot be admitted.

    Raised when the target box is still playing a video, is offline under
    the churn schedule, already has a demand queued for the next round, or
    the demand references a box/video outside the system.
    """


class ComponentLookupError(ApiError, KeyError):
    """An unknown component name/kind was requested from the registry."""


class SnapshotFormatError(ApiError, ValueError):
    """A session snapshot was recorded under an incompatible format version,
    the file handed to :meth:`SessionSnapshot.from_file` is not in the
    current snapshot frame (another file, an earlier frame, a bare pickle),
    or :meth:`VodSession.restore` cannot unpickle a session from the payload.

    Snapshot payloads pickle the engine's internal state; a payload from a
    different ``SNAPSHOT_FORMAT_VERSION`` or engine layout is rejected, not
    converted, and must be re-recorded from a fresh run.
    """


class SnapshotIntegrityError(SnapshotFormatError):
    """A snapshot file is truncated or corrupt.

    Raised by :meth:`SessionSnapshot.from_file`, the one place a payload's
    integrity is checked, when a checkpoint was torn mid-write, truncated
    on disk, or its header or payload does not match the SHA-256 written
    with it.  The file must be discarded; restore from an intact checkpoint.
    """

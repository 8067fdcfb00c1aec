"""The filesystem seam of the storage layer and of the cluster.

:class:`DatabaseStorage` performs every durability-relevant operation
(data writes, fsyncs, renames, unlinks) through a :class:`LocalFS`
instance instead of calling :mod:`os` directly, and so does a cluster:
the one ``fs`` of ``ClusterCoordinator.open`` writes ``cluster.json``
and every shard, those a reshard adds included.
Production code never notices — :class:`LocalFS` is a thin veneer over
the real syscalls — but the indirection is what makes the
fault-injection harness (:mod:`repro.testing.faults`) possible: a
wrapping filesystem can count operations, kill the process model at the
k-th one, tear a write in half, or flip a byte, all without
monkeypatching.

Only *mutating* operations go through the seam.  Reads use plain
:class:`pathlib.Path` — corruption on the read side is modeled by
corrupting what was written, which is both simpler and closer to how
real disks fail.
"""

from __future__ import annotations

import errno
import os
from pathlib import Path

__all__ = ["LocalFS"]


class LocalFS:
    """Real filesystem operations; the default backend of storage.

    Subclass (or duck-type) and pass to ``DatabaseStorage(root, fs=...)``
    or ``ClusterCoordinator.open(root, fs=...)`` to intercept the write
    path.  The operation names double as the
    fault-injection vocabulary: ``write``, ``fsync``, ``replace``,
    ``unlink``, ``fsync_dir``.
    """

    def write_bytes(self, path: Path, data: bytes) -> None:
        """Write ``data`` to ``path`` (create or truncate). No fsync."""
        with open(path, "wb") as handle:
            handle.write(data)

    def fsync(self, path: Path) -> None:
        """Flush ``path``'s contents to stable storage."""
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def replace(self, src: Path, dst: Path) -> None:
        """Atomically rename ``src`` over ``dst``."""
        os.replace(src, dst)

    def unlink(self, path: Path) -> None:
        """Remove ``path``; a missing file is not an error."""
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass

    def fsync_dir(self, path: Path) -> None:
        """Flush a directory entry (rename durability).  Skipped where
        directory fds or their fsync are unsupported; ``EIO`` raises."""
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return  # platform without directory fds
        try:
            os.fsync(fd)
        except OSError as exc:
            if exc.errno not in (errno.EINVAL, errno.ENOTSUP, errno.EOPNOTSUPP):
                raise  # the rename may not survive a power loss
        finally:
            os.close(fd)

    def mkdir(self, path: Path) -> None:
        """Create a directory (and parents); existing is fine."""
        Path(path).mkdir(parents=True, exist_ok=True)

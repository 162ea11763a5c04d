#ifndef PARJ_COMMON_DURABLE_IO_H_
#define PARJ_COMMON_DURABLE_IO_H_

#include <string>
#include <string_view>

#include "common/status.h"

namespace parj::io {

/// Durable file-system primitives shared by every persistence path
/// (snapshot saves, WAL segments, WAL manifests). POSIX gives three
/// separate durability promises and a crash-safe writer needs all of
/// them, in order:
///
///   1. fsync(file)       the file's bytes survive power loss
///   2. rename(tmp, dst)  the name flips atomically between two complete
///                        states (never a truncated dst)
///   3. fsync(parent dir) the *rename itself* survives power loss — a
///                        rename is a mutation of the directory, and an
///                        unsynced directory can forget it
///
/// Skipping (1) risks renaming an empty file into place; skipping (3)
/// risks the classic "file vanished after reboot" bug. Every helper
/// returns IoError with the failing path in the message.

/// fsync() the file at `path` (opens it read-only just for the sync).
Status FsyncFile(const std::string& path);

/// fsync() the directory containing `path`, making any rename/create/
/// unlink of `path` itself durable. "." is used when `path` has no
/// directory component.
Status FsyncParentDir(const std::string& path);

/// fsync() an already-open descriptor; `what` names it in errors.
Status FsyncFd(int fd, const std::string& what);

/// write() the full buffer, retrying short writes and EINTR.
Status WriteFully(int fd, const void* data, size_t n, const std::string& what);

/// rename(from, to) followed by FsyncParentDir(to): the atomic publish
/// step of every tmp+rename save.
Status RenameDurable(const std::string& from, const std::string& to);

/// Atomically and durably replaces `path` with `bytes`: writes
/// `path.tmp`, fsyncs it, renames into place and fsyncs the parent
/// directory. A crash at any point leaves either the old complete file or
/// the new complete file at `path`, never a mix. Used for small control
/// files (the WAL manifest).
Status WriteFileDurable(const std::string& path, std::string_view bytes);

/// Reads the whole file at `path` into one string sized from the file's
/// length up front, so reading holds no regrowth copy of the contents.
/// Files whose length is unknown in advance (pipes) still read fully.
Result<std::string> ReadFile(const std::string& path);

/// Directory component of `path` ("." when there is none).
std::string ParentDir(const std::string& path);

}  // namespace parj::io

#endif  // PARJ_COMMON_DURABLE_IO_H_

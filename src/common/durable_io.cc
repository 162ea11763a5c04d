#include "common/durable_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace parj::io {
namespace {

std::string Errno(const char* op, const std::string& path) {
  return std::string(op) + " failed for '" + path + "': " + std::strerror(errno);
}

}  // namespace

std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status FsyncFd(int fd, const std::string& what) {
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) return Status::IoError(Errno("fsync", what));
  return Status::OK();
}

Status FsyncFile(const std::string& path) {
  int fd;
  do {
    fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return Status::IoError(Errno("open", path));
  Status status = FsyncFd(fd, path);
  ::close(fd);
  return status;
}

Status FsyncParentDir(const std::string& path) {
  const std::string dir = ParentDir(path);
  int fd;
  do {
    fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return Status::IoError(Errno("open directory", dir));
  Status status = FsyncFd(fd, dir);
  ::close(fd);
  return status;
}

Status WriteFully(int fd, const void* data, size_t n, const std::string& what) {
  const char* cursor = static_cast<const char*>(data);
  size_t remaining = n;
  while (remaining > 0) {
    const ssize_t written = ::write(fd, cursor, remaining);
    if (written < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(Errno("write", what));
    }
    cursor += written;
    remaining -= static_cast<size_t>(written);
  }
  return Status::OK();
}

Status RenameDurable(const std::string& from, const std::string& to) {
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    return Status::IoError("rename failed for '" + from + "' -> '" + to +
                           "': " + std::strerror(errno));
  }
  return FsyncParentDir(to);
}

Result<std::string> ReadFile(const std::string& path) {
  int fd;
  do {
    fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return Status::IoError(Errno("open", path));
  std::string bytes;
  struct stat info;
  if (::fstat(fd, &info) == 0 && info.st_size > 0) {
    bytes.resize(static_cast<size_t>(info.st_size));
  }
  // Fill the pre-sized buffer; once it is full (or the length was
  // unknown) read into a stack probe and append, so a file whose size was
  // exact never regrows the buffer just to see end-of-file.
  Status status;
  size_t filled = 0;
  char probe[4096];
  while (true) {
    const bool full = filled == bytes.size();
    char* dst = full ? probe : bytes.data() + filled;
    const size_t room = full ? sizeof(probe) : bytes.size() - filled;
    const ssize_t n = ::read(fd, dst, room);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) status = Status::IoError(Errno("read", path));
    if (n <= 0) break;
    if (full) bytes.append(probe, static_cast<size_t>(n));
    filled += static_cast<size_t>(n);
  }
  ::close(fd);
  if (!status.ok()) return status;
  bytes.resize(filled);  // the file shrank since fstat
  return bytes;
}

Status WriteFileDurable(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  int fd;
  do {
    fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return Status::IoError(Errno("open", tmp));
  Status status = WriteFully(fd, bytes.data(), bytes.size(), tmp);
  if (status.ok()) status = FsyncFd(fd, tmp);
  ::close(fd);
  if (!status.ok()) {
    std::remove(tmp.c_str());
    return status;
  }
  return RenameDurable(tmp, path);
}

}  // namespace parj::io

#include "common/atomic_file.hpp"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>

#ifdef __unix__
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/error.hpp"

namespace imrdmd {

namespace {

/// Unique-per-writer temp name next to `path`: two processes (or threads)
/// atomically replacing the same file must not interleave writes into one
/// shared temp, or the rename could publish a torn hybrid — each writer
/// gets its own temp and the *renames* serialize.
std::string temp_name(const std::string& path) {
  static std::atomic<unsigned> counter{0};
#ifdef __unix__
  const unsigned long pid = static_cast<unsigned long>(::getpid());
#else
  const unsigned long pid = 0;
#endif
  return path + ".tmp." + std::to_string(pid) + "." +
         std::to_string(counter.fetch_add(1));
}

/// Flushes the file's data blocks to stable storage. Without this, a
/// journaled filesystem may commit the rename (metadata) before the data,
/// and a power loss would leave a complete-looking but torn file at the
/// final path — exactly what the rename is supposed to rule out.
bool sync_file(const std::string& file) {
#ifdef __unix__
  const int fd = ::open(file.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
#else
  (void)file;
  return true;  // no fsync available; process-kill atomicity still holds
#endif
}

/// Best-effort: persists the rename itself by syncing the containing
/// directory. Failure is not fatal — the file's own data is already
/// durable, and some filesystems reject directory fsync.
void sync_parent_directory(const std::string& path) {
#ifdef __unix__
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
#else
  (void)path;
#endif
}

}  // namespace

void write_file_atomic(const std::string& path,
                       const std::function<void(std::ostream&)>& write) {
  const std::string temp = temp_name(path);
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw Error("cannot open temporary file for writing: " + temp);
    }
    try {
      write(out);
    } catch (...) {
      out.close();
      std::remove(temp.c_str());
      throw;
    }
    out.flush();
    out.close();
    // fail() covers both a failed write (e.g. ENOSPC mid-stream) and a
    // failed flush-on-close; either way the temp is incomplete.
    if (out.fail()) {
      std::remove(temp.c_str());
      throw Error("write failed (disk full?) for: " + temp);
    }
  }
  if (!sync_file(temp)) {
    std::remove(temp.c_str());
    throw Error("cannot fsync temporary file: " + temp);
  }
#ifndef __unix__
  // POSIX rename atomically replaces an existing target; other CRTs (e.g.
  // Windows) refuse it. Removing first opens a tiny no-file window there —
  // the atomicity guarantee is POSIX-only, but replacement still works.
  std::remove(path.c_str());
#endif
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    throw Error("cannot rename " + temp + " over " + path);
  }
  sync_parent_directory(path);
}

}  // namespace imrdmd

// Atomic file replacement: write-temp-then-rename.
//
// A crash (or ENOSPC) midway through a plain ofstream write leaves a
// truncated file at the final path — fatal for checkpoints, whose whole
// point is surviving crashes. write_file_atomic streams the content into a
// writer-unique temporary next to `path` (so concurrent writers never
// share a temp), fsyncs it, and renames it over `path` only after the
// stream has been flushed and closed cleanly, so the final path always
// holds either the old complete file or the new complete file, never a
// torn one — across process kills and (on POSIX) power loss.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>

namespace imrdmd {

/// Writes `path` atomically: `write` streams the content into a temporary
/// file next to `path`, which is renamed over `path` on success. On any
/// failure (open, write, flush/close, rename, or an exception from `write`)
/// the temporary is removed, the previous file at `path` is left untouched,
/// and the error propagates (stream failures as Error naming the path).
void write_file_atomic(const std::string& path,
                       const std::function<void(std::ostream&)>& write);

/// Makes a closed, fully written file durable in place: fsyncs its data,
/// then (best effort) its directory, so a newly created name survives a
/// power loss too. For files another durable file will reference — the
/// referencing write must come after this returns. Throws Error when the
/// file's data cannot be synced.
void sync_to_disk(const std::string& path);

}  // namespace imrdmd

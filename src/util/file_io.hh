/**
 * @file
 * Atomic whole-file writes: the bytes land in `<path>.tmp` and are
 * renamed into place, so a concurrent reader (a resuming shard
 * supervisor) sees the previous complete file or the new one, never a
 * torn prefix.  Shared by the shard checkpoints and the merged
 * campaign/telemetry outputs.
 */

#pragma once

#include <string>

namespace eval {

/**
 * Write @p bytes to @p path via `<path>.tmp` + rename (same directory,
 * so the rename is atomic on POSIX).  Silent: returns false on any
 * failure, after removing the temp file; callers word their own
 * warning.
 */
bool writeFileAtomic(const std::string &path, const std::string &bytes);

} // namespace eval

/**
 * @file
 * Shard checkpoint schema (v2) on top of the snapshot envelope.
 *
 * A shard worker persists its progress as a "shard_checkpoint"
 * snapshot: the campaign fingerprint, the shard coordinates, the
 * resume cursor (nextChip), and the serialized accumulator payload.
 * Version 2 of the kind adds an integrity digest over the
 * binary-encoded accumulator payload, checked on read, so a torn or
 * bit-flipped checkpoint is rejected with a SnapshotError instead of
 * silently resuming from corrupt statistics.  (Version 1 was the bare
 * envelope without the digest and is refused loudly by the envelope's
 * kind-version check.)
 *
 * Writes go through a temp-file + rename so a SIGKILL mid-write can
 * never leave a half-written checkpoint under the final name — the
 * property the checkpoint_resume test and the `check.sh
 * --shard-smoke` SIGKILL drill rely on.
 */

#pragma once

#include <cstdint>
#include <string>

#include "valid/json_value.hh"

namespace eval {

/** Kind version of "shard_checkpoint" payloads (v2: integrity
 *  digest + resume cursor). */
constexpr std::uint32_t kShardCheckpointVersion = 2;

/** Progress of one shard worker at a block boundary. */
struct ShardCheckpoint
{
    /** CampaignConfig::fingerprint() of the producing run; resume
     *  refuses a checkpoint from a different campaign. */
    std::string campaignFingerprint;
    std::uint32_t shardIndex = 0;
    std::uint32_t shardCount = 1;
    std::uint64_t rangeBegin = 0; ///< first chip id of this shard
    std::uint64_t rangeEnd = 0;   ///< one past the last chip id
    std::uint64_t nextChip = 0;   ///< resume cursor in [begin, end]
    /** Serialized CampaignAccumulator payload covering
     *  [rangeBegin, nextChip). */
    JsonValue accumulator;
};

/** Wrap @p cp in a "shard_checkpoint" v2 envelope (computes the
 *  integrity digest). */
JsonValue toSnapshot(const ShardCheckpoint &cp);

/** Unwrap and validate; throws SnapshotError on version skew, a
 *  malformed payload, an out-of-range cursor, or a digest mismatch. */
ShardCheckpoint checkpointFromSnapshot(const JsonValue &snapshot);

/**
 * Atomic write (writeFileAtomic: temp file in the same directory +
 * rename).  Returns false with a warn on IO failure.  Every caller
 * passes @p binary = true; the parameter stays only for the
 * three-argument call in fig13bench/traced.cc.
 */
bool writeCheckpointFile(const std::string &path,
                         const ShardCheckpoint &cp, bool binary);

/** Read + validate a checkpoint file; throws SnapshotError (with the
 *  offending path in the message) on any corruption. */
ShardCheckpoint readCheckpointFile(const std::string &path);

} // namespace eval

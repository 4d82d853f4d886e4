/**
 * @file
 * Two-tier content-addressed result cache with crash-safe persistence.
 *
 * Tier 1 is an in-process map (hot keys answer without touching the
 * filesystem); tier 2 is a directory of "<key>.json" files that
 * survives daemon restarts, so clients sweeping overlapping design
 * spaces share one warm cache across sessions. Keys are content
 * hashes (protocol.hpp documents their anatomy), values are the
 * canonical serialized RunResult documents — the cache returns the
 * stored bytes verbatim, which is what makes repeated requests
 * bitwise-identical to the run that produced them.
 *
 * The disk tier never serves a damaged entry:
 *
 *  - Entry writes go through open/write/fsync/rename, so a crashed
 *    writer leaves at most an orphaned "*.tmp.*" file, never a
 *    half-written entry. Every failure is counted (writeFailures /
 *    fsyncFailures / renameFailures) and the payload stays served
 *    from the memory tier.
 *  - Construction removes orphaned temp files (scrubOrphanTmps).
 *  - Every disk read is validated as JSON; a truncated or corrupt
 *    entry is deleted, counted (invalidDiskEntries) and reported as a
 *    miss.
 *
 * The disk tier is unbounded: one entry is a few KB and the result
 * space of a study is small. Delete the directory to reclaim it.
 *
 * Caching is sound because a simulation is a pure function of its
 * semantic configuration (bitwise determinism pinned by the
 * ff-equivalence and sweep-determinism suites), and stale entries
 * cannot leak across code changes because every key embeds the
 * stats-schema fingerprint.
 *
 * Thread safety: all operations are serialized by one internal mutex;
 * the payloads are immutable once stored.
 */

#ifndef APRES_SERVE_RESULT_CACHE_HPP
#define APRES_SERVE_RESULT_CACHE_HPP

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace apres {

/** Hit/miss counters (one snapshot; monotonically growing). */
struct ResultCacheStats
{
    std::uint64_t memoryHits = 0;
    std::uint64_t diskHits = 0;  ///< found on disk, promoted to memory
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t invalidDiskEntries = 0; ///< corrupt files discarded

    std::uint64_t writeFailures = 0;  ///< open/write/close failures
    std::uint64_t fsyncFailures = 0;  ///< fsync failures before publish
    std::uint64_t renameFailures = 0; ///< atomic-publish rename failures

    std::uint64_t scrubOrphanTmps = 0; ///< startup: temp files removed

    std::uint64_t hits() const { return memoryHits + diskHits; }
};

class ResultCache
{
  public:
    /**
     * @param disk_dir  directory for the persistent tier (created on
     *                  demand); empty string keeps the cache
     *                  memory-only.
     * Throws SimError(kConfig) when the directory cannot be created.
     * Construction removes orphaned temp files (see the file comment).
     */
    explicit ResultCache(std::string disk_dir = "");

    ResultCache(const ResultCache&) = delete;
    ResultCache& operator=(const ResultCache&) = delete;

    /**
     * Fetch the payload stored under @p key, consulting memory first,
     * then disk (a disk hit is promoted into memory). A disk entry
     * that fails JSON validation is deleted and counted as
     * invalidDiskEntries, then reported as a miss — a corrupt file
     * must never be spliced into a response.
     */
    std::optional<std::string> lookup(const std::string& key);

    /**
     * Store @p payload (a complete JSON document) under @p key in
     * both tiers. The disk write is atomic and durable (temp file +
     * fsync + rename); a failed write is counted and the entry stays
     * served from memory.
     */
    void store(const std::string& key, const std::string& payload);

    ResultCacheStats stats() const;

    /** Entries currently resident in the memory tier. */
    std::size_t memoryEntries() const;

    const std::string& diskDir() const { return diskDir_; }

  private:
    std::string diskPath(const std::string& key) const;

    /** open/write/fsync/rename one entry; false on any failure. */
    bool writeDiskEntryLocked(const std::string& key,
                              const std::string& payload);

    const std::string diskDir_; ///< empty = memory-only
    mutable std::mutex mu_;
    std::unordered_map<std::string, std::string> memory_;
    ResultCacheStats stats_;
};

} // namespace apres

#endif // APRES_SERVE_RESULT_CACHE_HPP

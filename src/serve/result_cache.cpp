/**
 * @file
 * Result-cache implementation: memory map over a crash-safe directory
 * of validated JSON entries.
 */

#include "result_cache.hpp"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>

#include <fcntl.h>
#include <unistd.h>

#include "common/json_value.hpp"
#include "common/log.hpp"
#include "common/sim_error.hpp"

namespace apres {

namespace fs = std::filesystem;

namespace {

/** A non-empty, well-formed JSON document? */
bool
validPayload(const std::string& payload)
{
    if (payload.empty())
        return false;
    try {
        (void)JsonValue::parse(payload);
        return true;
    } catch (const SimError&) {
        return false;
    }
}

} // namespace

ResultCache::ResultCache(std::string disk_dir)
    : diskDir_(std::move(disk_dir))
{
    if (diskDir_.empty())
        return;
    std::error_code ec;
    fs::create_directories(diskDir_, ec);
    if (ec) {
        throwConfigError("result cache: cannot create directory \"" +
                         diskDir_ + "\": " + ec.message());
    }
    // A writer that crashed between open and rename left a "*.tmp.*"
    // file behind; it was never published, so it can only be removed.
    for (const auto& dirent : fs::directory_iterator(diskDir_, ec)) {
        const std::string name = dirent.path().filename().string();
        if (!dirent.is_regular_file() ||
            name.find(".tmp.") == std::string::npos) {
            continue;
        }
        std::error_code rm;
        fs::remove(dirent.path(), rm);
        ++stats_.scrubOrphanTmps;
        logWarn("result cache: removed orphan temp file ", name);
    }
    if (ec) {
        logWarn("result cache: cannot scan ", diskDir_, ": ",
                ec.message());
    }
}

std::string
ResultCache::diskPath(const std::string& key) const
{
    return diskDir_ + "/" + key + ".json";
}

std::optional<std::string>
ResultCache::lookup(const std::string& key)
{
    const std::lock_guard<std::mutex> lock(mu_);

    const auto it = memory_.find(key);
    if (it != memory_.end()) {
        ++stats_.memoryHits;
        return it->second;
    }

    if (!diskDir_.empty()) {
        const std::string path = diskPath(key);
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0) {
            if (errno != ENOENT) {
                logWarn("result cache: cannot read ", path, ": ",
                        std::strerror(errno));
            }
            ++stats_.misses;
            return std::nullopt;
        }
        std::string payload;
        char buf[65536];
        bool read_failed = false;
        for (;;) {
            const ssize_t n = ::read(fd, buf, sizeof buf);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                logWarn("result cache: cannot read ", path, ": ",
                        std::strerror(errno));
                read_failed = true;
                break;
            }
            if (n == 0)
                break;
            payload.append(buf, static_cast<std::size_t>(n));
        }
        ::close(fd);
        // Validate before serving: a truncated or corrupted file
        // spliced verbatim into a response would poison the whole
        // batch document.
        if (!read_failed && validPayload(payload)) {
            ++stats_.diskHits;
            memory_.emplace(key, payload);
            return payload;
        }
        if (!read_failed) {
            ++stats_.invalidDiskEntries;
            logWarn("result cache: discarding corrupt entry ", key);
            std::error_code ec;
            fs::remove(path, ec);
        }
    }

    ++stats_.misses;
    return std::nullopt;
}

bool
ResultCache::writeDiskEntryLocked(const std::string& key,
                                  const std::string& payload)
{
    // Atomic, durable publish: write a process-unique temp file, fsync
    // it, then rename. Readers (and the post-crash scrub) either see
    // the complete entry or none at all.
    const std::string final_path = diskPath(key);
    const std::string tmp_path =
        final_path + ".tmp." + std::to_string(::getpid());

    int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const auto fail = [&](const char* op, std::uint64_t* counter) {
        const int saved = errno;
        ++*counter;
        if (fd >= 0)
            ::close(fd);
        ::unlink(tmp_path.c_str());
        logWarn("result cache: ", op, " failed for ", key, ": ",
                std::strerror(saved), "; entry stays memory-only");
        return false;
    };
    if (fd < 0)
        return fail("disk open", &stats_.writeFailures);

    std::size_t off = 0;
    while (off < payload.size()) {
        const ssize_t n =
            ::write(fd, payload.data() + off, payload.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return fail("disk write", &stats_.writeFailures);
        }
        off += static_cast<std::size_t>(n);
    }

    if (::fsync(fd) != 0)
        return fail("disk fsync", &stats_.fsyncFailures);
    if (::close(fd) != 0) {
        fd = -1; // already closed (even on error)
        return fail("disk close", &stats_.writeFailures);
    }
    fd = -1;

    if (::rename(tmp_path.c_str(), final_path.c_str()) != 0)
        return fail("disk rename", &stats_.renameFailures);
    return true;
}

void
ResultCache::store(const std::string& key, const std::string& payload)
{
    const std::lock_guard<std::mutex> lock(mu_);
    memory_[key] = payload;
    ++stats_.stores;
    if (!diskDir_.empty())
        writeDiskEntryLocked(key, payload);
}

ResultCacheStats
ResultCache::stats() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

std::size_t
ResultCache::memoryEntries() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return memory_.size();
}

} // namespace apres

/**
 * @file
 * Helpers for durable on-disk records: fsync of a written file and of
 * its directory (so a rename or create survives power loss), atomic
 * whole-file replacement, and the fixed-width hex the records use for
 * lengths and checksums. Shared by mapper checkpoints and the serve
 * job journal; the checksums themselves are FNV-1a (common/hash.hpp).
 */

#ifndef TILEFLOW_COMMON_DURABLE_HPP
#define TILEFLOW_COMMON_DURABLE_HPP

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace tileflow {

/** 16-digit lowercase hex of `v` (checksum / length rendering). */
std::string hex64(uint64_t v);

/** fsync an open stdio stream (flush + fsync(fd)); false on failure. */
bool fsyncFile(std::FILE* f);

/** fsync the directory containing `path`, making a just-renamed or
 *  just-created entry durable; false on failure. */
bool fsyncParentDir(const std::string& path);

/**
 * Replace `path` with `data` atomically and durably: write `tmp`,
 * fsync it, rename it over `path`, fsync the directory. fsync comes
 * BEFORE the rename — otherwise power loss can publish the new name
 * pointing at a partial file. On failure `tmp` is removed, `path` is
 * untouched and `*error` (when given) says why.
 */
bool replaceFileDurably(const std::string& path, const std::string& tmp,
                        std::string_view data, std::string* error);

} // namespace tileflow

#endif // TILEFLOW_COMMON_DURABLE_HPP

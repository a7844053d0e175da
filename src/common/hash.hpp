/**
 * @file
 * The repo's two non-cryptographic hashes, written once.
 *
 * FNV-1a (64-bit) keys content — choice vectors, tree structure,
 * spec text — and checksums every durable on-disk record (checkpoints,
 * the serve job journal). The splitmix64 finalizer spreads seeds and
 * keys before a fault-injection threshold or an Rng stream split.
 *
 * These values are persisted (checksums), pinned by tests and baked
 * into seeded runs, so every function here must stay bit-identical.
 */

#ifndef TILEFLOW_COMMON_HASH_HPP
#define TILEFLOW_COMMON_HASH_HPP

#include <cstdint>
#include <string_view>

namespace tileflow {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

/** Fold raw bytes into an FNV-1a hash. */
constexpr uint64_t
fnvBytes(std::string_view bytes, uint64_t hash = kFnvOffset)
{
    for (const char c : bytes) {
        hash ^= uint64_t(uint8_t(c));
        hash *= kFnvPrime;
    }
    return hash;
}

/** Fold the eight bytes of `word`, least significant first, so the
 *  result does not depend on host byte order. */
constexpr uint64_t
fnvWord(uint64_t hash, uint64_t word)
{
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= word & 0xffULL;
        hash *= kFnvPrime;
        word >>= 8;
    }
    return hash;
}

/** splitmix64's increment (the 64-bit golden ratio). */
constexpr uint64_t kSplitMixGamma = 0x9e3779b97f4a7c15ULL;

/** splitmix64's output finalizer: a bijective avalanche mix. */
constexpr uint64_t
splitmix64Finalize(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** One splitmix64 step from state `z`: advance, then finalize. */
constexpr uint64_t
splitmix64(uint64_t z)
{
    return splitmix64Finalize(z + kSplitMixGamma);
}

/** Map 64 hash bits to a uniform double in [0, 1) (the top 53). */
constexpr double
unitDraw(uint64_t bits)
{
    return double(bits >> 11) * 0x1.0p-53;
}

/** A uniform [0, 1) draw that is a pure function of (seed, key): the
 *  fault injectors' deterministic coin. */
constexpr double
seededDraw(uint64_t seed, uint64_t key)
{
    return unitDraw(splitmix64(key ^ splitmix64(seed)));
}

} // namespace tileflow

#endif // TILEFLOW_COMMON_HASH_HPP

/**
 * @file
 * Deterministic random number generation for the mapper.
 *
 * All stochastic components (genetic algorithm, MCTS rollouts) draw from
 * an explicitly-seeded Rng instance so that search traces are exactly
 * reproducible between runs, which the benches rely on.
 */

#ifndef TILEFLOW_COMMON_RNG_HPP
#define TILEFLOW_COMMON_RNG_HPP

#include <cstdint>
#include <random>
#include <vector>

#include "common/hash.hpp"

namespace tileflow {

/** Seedable RNG wrapper around std::mt19937_64 with convenience draws. */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x7ea51eafULL) : engine_(seed) {}

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    uniformInt(int64_t lo, int64_t hi)
    {
        std::uniform_int_distribution<int64_t> dist(lo, hi);
        return dist(engine_);
    }

    /** Uniform real in [0, 1). */
    double
    uniformReal()
    {
        std::uniform_real_distribution<double> dist(0.0, 1.0);
        return dist(engine_);
    }

    /** Bernoulli draw with probability p of true. */
    bool
    flip(double p)
    {
        return uniformReal() < p;
    }

    /** Pick a uniformly random index into a container of given size. */
    size_t
    index(size_t size)
    {
        return size == 0 ? 0 : size_t(uniformInt(0, int64_t(size) - 1));
    }

    /** Pick a uniformly random element of a vector (must be non-empty). */
    template <typename T>
    const T&
    choice(const std::vector<T>& v)
    {
        return v[index(v.size())];
    }

    std::mt19937_64& engine() { return engine_; }

  private:
    std::mt19937_64 engine_;
};

/**
 * Derive an independent stream seed from a base seed and a (stream,
 * index) pair — splitmix64 finalizer over the mixed words. The mapper
 * gives every (generation, individual) its own Rng this way, so
 * results are identical no matter how evaluations are scheduled
 * across threads.
 */
inline uint64_t
mixSeed(uint64_t seed, uint64_t stream, uint64_t index)
{
    return splitmix64Finalize(seed + kSplitMixGamma * (stream + 1) +
                              0xbf58476d1ce4e5b9ULL * (index + 1));
}

} // namespace tileflow

#endif // TILEFLOW_COMMON_RNG_HPP

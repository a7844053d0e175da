/**
 * @file
 * Retry classification and exponential backoff for the batch service.
 *
 * A failed attempt is either *transient* (worker crash, deadline
 * kill, a declared transient failure) — retried after an
 * exponentially growing, deterministically jittered delay, up to a
 * per-job attempt cap — or *permanent* (bad job spec, attempt cap
 * exhausted, admission shed), journaled as terminally failed.
 *
 * Determinism: the jitter for (job, attempt) is a pure function of
 * the policy seed, so a resumed batch re-derives the same schedule a
 * test can assert on. Time is injected (RetrySchedule takes a clock
 * callable), so backoff tests run in virtual milliseconds.
 */

#ifndef TILEFLOW_SERVE_RETRY_HPP
#define TILEFLOW_SERVE_RETRY_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace tileflow {

/** Uniform [0, 1) draw, pure in (seed, job, attempt): the retry
 *  jitter and the worker's seeded crash injection both use it. */
double jobAttemptDraw(uint64_t seed, const std::string& jobId,
                      int attempt);

struct RetryPolicy
{
    /** Total attempts a job may consume before it is permanently
     *  failed (>= 1; the first attempt counts). */
    int maxAttempts = 3;

    /** Delay before retry #1 (after the first failed attempt). */
    int64_t baseDelayMs = 200;

    /** Growth factor per additional failed attempt. */
    double multiplier = 2.0;

    /** Ceiling applied before jitter. */
    int64_t maxDelayMs = 10000;

    /** Fraction of the delay that is jittered: the delay is drawn
     *  uniformly from [d*(1-j/2), d*(1+j/2)] — full-period spread so
     *  a herd of failed workers does not retry in lockstep. */
    double jitterFraction = 0.5;

    /** Seed for the deterministic jitter hash. */
    uint64_t seed = 0x7e115eedULL;

    /**
     * Backoff before the retry that would become attempt
     * `failed_attempts + 1`. Pure: same (policy, job, count) -> same
     * delay, every process, every resume.
     */
    int64_t delayMs(const std::string& jobId, int failed_attempts) const;

    /** True when a job with `failed_attempts` consumed may retry. */
    bool
    mayRetry(int failed_attempts) const
    {
        return failed_attempts < maxAttempts;
    }
};

/**
 * Tracks jobs waiting out their backoff. The clock is any callable
 * returning monotonic milliseconds; production passes a
 * steady_clock reader, tests pass a hand-cranked counter.
 */
class RetrySchedule
{
  public:
    using Clock = std::function<int64_t()>;

    explicit RetrySchedule(RetryPolicy policy, Clock clock);

    const RetryPolicy& policy() const { return policy_; }

    /**
     * Record that `jobId` just consumed its `failed_attempts`-th
     * attempt. Returns false — permanent failure, nothing scheduled —
     * when the attempt cap is exhausted; otherwise schedules the
     * retry and returns true.
     */
    bool scheduleRetry(const std::string& jobId, int failed_attempts);

    /** Schedule unconditionally — for callers that already applied a
     *  (possibly per-job) attempt cap of their own. */
    void schedule(const std::string& jobId, int failed_attempts);

    /** Jobs whose backoff has expired, removed from the wait set. */
    std::vector<std::string> dueJobs();

    /** Milliseconds until the earliest waiting job is due (0 when one
     *  is already due), or -1 when nothing is waiting. */
    int64_t msUntilNextDue() const;

    size_t waiting() const { return due_.size(); }

  private:
    RetryPolicy policy_;
    Clock clock_;
    std::map<std::string, int64_t> due_; // jobId -> due time (ms)
};

} // namespace tileflow

#endif // TILEFLOW_SERVE_RETRY_HPP

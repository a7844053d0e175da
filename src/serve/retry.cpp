#include "serve/retry.hpp"

#include <algorithm>
#include <cmath>

#include "common/hash.hpp"

namespace tileflow {

double
jobAttemptDraw(uint64_t seed, const std::string& jobId, int attempt)
{
    uint64_t h = fnvWord(kFnvOffset, seed);
    h = fnvBytes(jobId, h);
    return unitDraw(fnvWord(h, uint64_t(attempt)));
}

int64_t
RetryPolicy::delayMs(const std::string& jobId,
                     int failed_attempts) const
{
    const int exponent = std::max(0, failed_attempts - 1);
    double delay = double(std::max<int64_t>(0, baseDelayMs)) *
                   std::pow(std::max(1.0, multiplier), exponent);
    delay = std::min(delay, double(std::max<int64_t>(0, maxDelayMs)));

    // Deterministic jitter: hash (seed, jobId, attempt) to u in
    // [0, 1), spread the delay across [d*(1-j/2), d*(1+j/2)].
    const double u = jobAttemptDraw(seed, jobId, failed_attempts);
    const double j = std::clamp(jitterFraction, 0.0, 1.0);
    delay *= 1.0 + j * (u - 0.5);
    return int64_t(std::llround(std::max(0.0, delay)));
}

RetrySchedule::RetrySchedule(RetryPolicy policy, Clock clock)
    : policy_(policy), clock_(std::move(clock))
{
}

bool
RetrySchedule::scheduleRetry(const std::string& jobId,
                             int failed_attempts)
{
    if (!policy_.mayRetry(failed_attempts))
        return false;
    schedule(jobId, failed_attempts);
    return true;
}

void
RetrySchedule::schedule(const std::string& jobId, int failed_attempts)
{
    due_[jobId] = clock_() + policy_.delayMs(jobId, failed_attempts);
}

std::vector<std::string>
RetrySchedule::dueJobs()
{
    std::vector<std::string> ready;
    const int64_t now = clock_();
    for (auto it = due_.begin(); it != due_.end();) {
        if (it->second <= now) {
            ready.push_back(it->first);
            it = due_.erase(it);
        } else {
            ++it;
        }
    }
    return ready;
}

int64_t
RetrySchedule::msUntilNextDue() const
{
    if (due_.empty())
        return -1;
    int64_t earliest = INT64_MAX;
    for (const auto& [id, t] : due_) {
        (void)id;
        earliest = std::min(earliest, t);
    }
    return std::max<int64_t>(0, earliest - clock_());
}

} // namespace tileflow

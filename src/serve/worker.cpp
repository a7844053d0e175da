#include "serve/worker.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include <csignal>
#include <sys/resource.h>
#include <unistd.h>

#include "arch/presets.hpp"
#include "common/logging.hpp"
#include "common/membudget.hpp"
#include "common/signalutil.hpp"
#include "common/strings.hpp"
#include "common/threadpool.hpp"
#include "dataflows/attention.hpp"
#include "frontend/loader.hpp"
#include "ir/shapes.hpp"
#include "mapper/mapper.hpp"
#include "serve/retry.hpp"

namespace tileflow {

namespace {

/** `key value\n`, values free-form to end of line. */
void
statusField(std::string& out, const char* key, const std::string& v)
{
    out += key;
    out += ' ';
    for (char c : v)
        out += (c == '\n' || c == '\r') ? ' ' : c;
    out += '\n';
}

} // namespace

std::string
encodeWorkerStatus(const WorkerStatus& s)
{
    std::string out;
    statusField(out, "outcome", s.outcome);
    if (!s.reason.empty())
        statusField(out, "reason", s.reason);
    statusField(out, "found", s.found ? "1" : "0");
    char cycles[64];
    std::snprintf(cycles, sizeof cycles, "%.17g", s.bestCycles);
    statusField(out, "cycles", cycles);
    statusField(out, "evaluations", std::to_string(s.evaluations));
    statusField(out, "timed_out", s.timedOut ? "1" : "0");
    if (!s.stopReason.empty())
        statusField(out, "stop_reason", s.stopReason);
    statusField(out, "resumed", s.resumed ? "1" : "0");
    statusField(out, "elapsed_ms", std::to_string(s.elapsedMs));
    out += "end\n";
    return out;
}

WorkerStatus
decodeWorkerStatus(const std::string& text)
{
    WorkerStatus s;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            break; // torn line: a worker death mid-write
        const std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        if (line == "end") {
            s.complete = true;
            break;
        }
        const size_t space = line.find(' ');
        const std::string key =
            space == std::string::npos ? line : line.substr(0, space);
        const std::string value =
            space == std::string::npos ? "" : line.substr(space + 1);
        if (key == "outcome")
            s.outcome = value;
        else if (key == "reason")
            s.reason = value;
        else if (key == "found")
            s.found = value == "1";
        else if (key == "cycles")
            s.bestCycles = std::strtod(value.c_str(), nullptr);
        else if (key == "evaluations")
            s.evaluations = std::strtoll(value.c_str(), nullptr, 10);
        else if (key == "timed_out")
            s.timedOut = value == "1";
        else if (key == "stop_reason")
            s.stopReason = value;
        else if (key == "resumed")
            s.resumed = value == "1";
        else if (key == "elapsed_ms")
            s.elapsedMs = std::strtoll(value.c_str(), nullptr, 10);
        // Unknown keys are skipped: newer workers may say more.
    }
    return s;
}

std::optional<WorkerFaultPlan>
WorkerFaultPlan::fromEnv()
{
    WorkerFaultPlan plan;
    for (const auto& [key, value] : envKeyValues("TILEFLOW_JOBD_FAULT")) {
        if (key == "crash")
            plan.crashFraction = std::strtod(value.c_str(), nullptr);
        else if (key == "seed")
            plan.seed = std::strtoull(value.c_str(), nullptr, 10);
    }
    if (!(plan.crashFraction > 0.0))
        return std::nullopt;
    plan.crashFraction = std::min(plan.crashFraction, 1.0);
    return plan;
}

bool
WorkerFaultPlan::shouldCrash(const std::string& jobId, int attempt) const
{
    return jobAttemptDraw(seed, jobId, attempt) < crashFraction;
}

int
runWorker(const JobFile& file, const std::string& jobId, int attempt,
          const std::string& workdir, int statusFd, int degrade)
{
    // An orphaned worker (its supervisor was kill -9'd) must not die
    // writing status into the torn-down pipe.
    std::signal(SIGPIPE, SIG_IGN);

    std::FILE* status = ::fdopen(statusFd, "w");
    auto report = [&](const WorkerStatus& s) {
        if (!status)
            return;
        const std::string payload = encodeWorkerStatus(s);
        std::fwrite(payload.data(), 1, payload.size(), status);
        std::fflush(status);
    };
    auto failWith = [&](const char* outcome, const std::string& reason,
                        int code) {
        WorkerStatus s;
        s.outcome = outcome;
        s.reason = reason;
        report(s);
        return code;
    };

    const JobSpec* job = nullptr;
    for (const JobSpec& candidate : file.jobs)
        if (candidate.id == jobId)
            job = &candidate;
    if (!job)
        return failWith("failed", "unknown job id '" + jobId + "'",
                        kWorkerExitPermanent);

    // Injected faults first — they model a worker dying/wedging at an
    // arbitrary point, before any graceful machinery can matter.
    if (job->inject == JobInject::Hang) {
        // A wedged worker: immune to cooperative cancellation AND to
        // SIGTERM; only the watchdog's SIGKILL ends it.
        sigset_t block;
        sigemptyset(&block);
        sigaddset(&block, SIGTERM);
        sigaddset(&block, SIGINT);
        sigprocmask(SIG_BLOCK, &block, nullptr);
        for (;;)
            ::pause();
    }
    const auto env_plan = WorkerFaultPlan::fromEnv();
    const bool seeded_crash =
        job->inject == JobInject::CrashSeeded
            ? WorkerFaultPlan{0.5, job->seed}.shouldCrash(jobId, attempt)
            : env_plan && env_plan->shouldCrash(jobId, attempt);
    if (seeded_crash) {
        // A real abort, exactly what panic() does on an invariant
        // violation — the supervisor must see SIGABRT, not a tidy
        // error return.
        panic("injected worker crash (job ", jobId, ", attempt ",
              attempt, ")");
    }

    const int degrade_shift = std::clamp(degrade, 0, 16);
    if (job->memLimitMb > 0) {
        const uint64_t limit_bytes = uint64_t(job->memLimitMb) << 20;
        struct rlimit lim;
        lim.rlim_cur = rlim_t(limit_bytes);
        lim.rlim_max = rlim_t(limit_bytes);
        if (::setrlimit(RLIMIT_AS, &lim) != 0)
            warn("worker: setrlimit(RLIMIT_AS, ", job->memLimitMb,
                 "MB) failed; running uncapped");
        // Arm the budget below the hard OS cap: soft pressure shrinks
        // caches at 50%, hard pressure sheds evaluations at 75%, so
        // the search degrades before malloc ever returns null.
        MemoryBudget::global().configure(limit_bytes / 2,
                                         limit_bytes * 3 / 4);
        MemoryBudget::installNewHandler();
    }

    // Graceful shutdown: SIGTERM/SIGINT trip the search's token; the
    // engines checkpoint at the next boundary and return best-so-far.
    // No hard-exit-on-second here — escalation is the supervisor's
    // watchdog (SIGKILL), not the worker's own judgment.
    static CancellationToken cancel;
    installStopSignalHandlers(&cancel, false);

    try {
        if (job->inject == JobInject::Oom && job->memLimitMb > 0) {
            // Demand roughly 2x the address-space cap, shrinking by
            // half per degrade level: attempts 1-2 die on RLIMIT_AS
            // (exit 13), a twice-degraded retry fits and proceeds.
            const size_t want =
                size_t((uint64_t(job->memLimitMb) << 21) >>
                       degrade_shift);
            std::vector<char> ballast(want, 1);
            // Touched and immediately dropped: the surviving attempt
            // runs its search with the ballast released.
            if (ballast[want / 2] != 1)
                return failWith("failed", "ballast corrupted",
                                kWorkerExitTransient);
        }

        Workload workload = [&] {
            if (!job->workloadSpecPath.empty())
                return loadWorkloadSpecOrDie(job->workloadSpecPath);
            return buildAttention(attentionShape(job->workload), false);
        }();
        const ArchSpec arch = [&] {
            if (!job->archSpecPath.empty())
                return loadArchSpecOrDie(job->archSpecPath);
            if (job->arch == "edge")
                return makeEdgeArch();
            if (job->arch == "cloud")
                return makeCloudArch();
            fatal("unknown arch preset '", job->arch,
                  "' (want edge|cloud or arch_spec)");
        }();
        const Evaluator model(workload, arch);

        const bool attention_dims =
            workload.findDim("b") >= 0 && workload.findDim("h") >= 0 &&
            workload.findDim("m") >= 0 && workload.findDim("l") >= 0;
        const MappingSpace space =
            attention_dims ? makeAttentionSpace(workload, arch)
                           : makeChainSpace(workload, arch);

        MapperConfig cfg;
        cfg.rounds = job->rounds;
        cfg.population = job->population;
        cfg.tilingSamples = job->tilingSamples;
        cfg.maxEvaluations = job->maxEvals;
        cfg.timeBudgetMs = job->timeBudgetMs;
        cfg.seed = job->seed;
        cfg.cancel = &cancel;
        if (!workdir.empty())
            cfg.checkpointPath = workdir + "/" + jobId + ".ckpt";
        if (degrade_shift > 0) {
            // Degraded retry: halve the worker thread count and cache
            // budgets per resource failure. All of these knobs change
            // throughput and hit rates only, never search values, so
            // a degraded attempt still resumes the checkpoint
            // bit-identically.
            const int base =
                int(ThreadPool::defaultThreadCount());
            cfg.threads = std::max(1, base >> degrade_shift);
            if (cfg.subtreeCacheCap > 0)
                cfg.subtreeCacheCap = std::max<size_t>(
                    64, cfg.subtreeCacheCap >> degrade_shift);
        }
        if (job->memLimitMb > 0) {
            // Bound each cache to ~1/4 of the cap in aggregate
            // (16 shards x limit/64), halved per degrade level.
            const uint64_t limit_bytes = uint64_t(job->memLimitMb)
                                         << 20;
            const size_t per_shard = size_t(std::max<uint64_t>(
                4096, (limit_bytes / 64) >> degrade_shift));
            cfg.cacheBytesCap = per_shard;
        }

        const MapperResult result = exploreSpace(model, space, cfg);

        WorkerStatus s;
        s.found = result.found;
        s.bestCycles = result.found ? result.bestCycles : 0.0;
        s.evaluations = result.evaluations;
        s.timedOut = result.timedOut;
        s.stopReason = result.stopReason;
        s.resumed = result.resumed;
        s.elapsedMs = result.elapsedMs;

        if (result.timedOut && result.stopReason == "cancelled" &&
            stopSignalCount() > 0) {
            // Shutdown interrupted us: state is checkpointed, the
            // attempt should not be charged.
            s.outcome = "cancelled";
            s.reason = "interrupted by shutdown";
            report(s);
            return kWorkerExitInterrupted;
        }
        s.outcome = "ok";
        report(s);
        return kWorkerExitSuccess;
    } catch (const FatalError& err) {
        // Spec/config problems cannot be fixed by retrying.
        return failWith("failed", err.what(), kWorkerExitPermanent);
    } catch (const std::bad_alloc&) {
        // Allocation failure that escaped the guarded evaluation path
        // (search bookkeeping, spec loading, injected ballast): the
        // attempt ran out of its memory budget. Distinct exit code so
        // the supervisor retries degraded instead of identically.
        return failWith("failed", "resource: out of memory",
                        kWorkerExitResource);
    } catch (const std::exception& err) {
        return failWith("failed", err.what(), kWorkerExitTransient);
    } catch (...) {
        return failWith("failed", "unknown exception",
                        kWorkerExitTransient);
    }
}

} // namespace tileflow

/**
 * @file
 * `tileflow_jobd` — the supervised batch-evaluation service
 * (DESIGN.md §11). Three modes in one binary:
 *
 *   tileflow_jobd JOBFILE [options]       run a batch under supervision
 *   tileflow_jobd --worker ...            internal: one crash-isolated job
 *   tileflow_jobd --replay JOURNAL [--expect-complete]
 *                                         audit a journal: final state per
 *                                         job, exactly-once verification
 *
 * Supervisor options:
 *   --journal PATH       job journal (default: JOBFILE.journal)
 *   --workdir DIR        per-job search checkpoints (default:
 *                        JOBFILE.work; created if missing)
 *   --concurrency N      in-flight worker cap (overrides job file)
 *   --queue-cap N        admission bound; excess jobs shed
 *   --max-attempts N     per-job attempt cap
 *   --backoff-base-ms N / --backoff-max-ms N / --retry-seed N
 *   --grace-ms N         SIGTERM -> SIGKILL escalation window
 *   --poll-ms N          supervisor tick
 *   --worker-exe PATH    worker binary (default: /proc/self/exe)
 *   --metrics-out FILE   service metrics + batch summary JSON
 *                        (validated by `telemetry_check serve`)
 *   --no-compact         keep the full journal (skip the startup
 *                        compaction that snapshots terminal state)
 *
 * Exit status: 0 when the batch ran to completion (every job
 * journaled succeeded or permanently failed — job failures are
 * outcomes, not service errors) OR a graceful shutdown wound the
 * service down cleanly (rerun to resume); 1 on service-level errors
 * (unreadable job file, unwritable journal); 2 on usage errors.
 *
 * SIGINT/SIGTERM: first signal starts a graceful shutdown (stop
 * admitting, cancel + checkpoint in-flight searches, journal final
 * states, exit 0); a second one kills the supervisor immediately.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <sys/stat.h>

#include "common/logging.hpp"
#include "common/signalutil.hpp"
#include "common/telemetry.hpp"
#include "serve/jobspec.hpp"
#include "serve/journal.hpp"
#include "serve/supervisor.hpp"
#include "serve/worker.hpp"

using namespace tileflow;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: tileflow_jobd JOBFILE [--journal PATH] [--workdir DIR]\n"
        "           [--concurrency N] [--queue-cap N] [--max-attempts N]\n"
        "           [--backoff-base-ms N] [--backoff-max-ms N]\n"
        "           [--retry-seed N] [--grace-ms N] [--poll-ms N]\n"
        "           [--worker-exe PATH] [--metrics-out FILE]\n"
        "           [--no-compact]\n"
        "       tileflow_jobd --replay JOURNAL [--expect-complete]\n"
        "       tileflow_jobd --worker --job-file F --job-id ID\n"
        "           --attempt N --workdir DIR --status-fd FD\n"
        "           [--degrade N]\n");
    return 2;
}

bool
writeServeMetrics(const std::string& path, const BatchSummary& summary)
{
    std::string json = "{\n\"metrics\": ";
    json += MetricsRegistry::global().toJson();
    json += ",\n\"result\": {";
    json += "\"jobs\": " + std::to_string(summary.jobs);
    json += ", \"already_terminal\": " +
            std::to_string(summary.alreadyTerminal);
    json += ", \"submitted\": " + std::to_string(summary.submitted);
    json += ", \"shed\": " + std::to_string(summary.shed);
    json += ", \"attempts_started\": " +
            std::to_string(summary.attemptsStarted);
    json += ", \"succeeded\": " + std::to_string(summary.succeeded);
    json += ", \"failed\": " + std::to_string(summary.failedPermanent);
    json += ", \"retries\": " + std::to_string(summary.retriesScheduled);
    json += ", \"crashes\": " + std::to_string(summary.crashes);
    json +=
        ", \"deadline_kills\": " + std::to_string(summary.deadlineKills);
    json += ", \"interrupted\": " + std::to_string(summary.interrupted);
    json += ", \"resource_failures\": " +
            std::to_string(summary.resourceFailures);
    json += std::string(", \"shutdown\": ") +
            (summary.shutdownRequested ? "true" : "false");
    json += std::string(", \"complete\": ") +
            (summary.complete ? "true" : "false");
    json += "}\n}\n";

    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    const size_t written = std::fwrite(json.data(), 1, json.size(), f);
    return written == json.size() && std::fclose(f) == 0;
}

int
replayMode(const std::string& journal_path, bool expect_complete)
{
    std::vector<JournalRecord> records;
    if (!readJournal(journal_path, records)) {
        std::fprintf(stderr, "cannot read journal '%s'\n",
                     journal_path.c_str());
        return 1;
    }
    JobLedger ledger;
    ledger.applyAll(records);

    int anomalies = 0;
    std::printf("journal %s: %zu records, %zu jobs\n",
                journal_path.c_str(), records.size(),
                ledger.jobs().size());
    for (const auto& [id, entry] : ledger.jobs()) {
        std::printf("  %-24s %-10s attempts=%d%s%s\n", id.c_str(),
                    JobLedger::stateName(entry.state),
                    std::max(entry.attemptsFailed, entry.attemptsStarted),
                    entry.lastReason.empty()
                        ? ""
                        : (" reason=" + entry.lastReason).c_str(),
                    entry.succeededRecords > 1 ? "  DOUBLE-COMPLETED"
                                               : "");
        if (entry.succeededRecords > 1) {
            std::fprintf(stderr,
                         "anomaly: job '%s' has %d succeeded records "
                         "(exactly-once violated)\n",
                         id.c_str(), entry.succeededRecords);
            ++anomalies;
        }
        if (expect_complete &&
            entry.state != JobLedger::State::Succeeded &&
            entry.state != JobLedger::State::Failed) {
            std::fprintf(stderr,
                         "anomaly: job '%s' is %s, not terminal\n",
                         id.c_str(),
                         JobLedger::stateName(entry.state));
            ++anomalies;
        }
    }
    if (anomalies > 0)
        return 1;
    std::printf("journal OK: every job %s, no double completions\n",
                expect_complete ? "terminal" : "consistent");
    return 0;
}

int
workerMode(int argc, char** argv)
{
    std::string job_file, job_id, workdir;
    int attempt = 1;
    int status_fd = -1;
    int degrade = 0;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--job-file")
            job_file = value();
        else if (arg == "--job-id")
            job_id = value();
        else if (arg == "--attempt")
            attempt = std::atoi(value());
        else if (arg == "--workdir")
            workdir = value();
        else if (arg == "--status-fd")
            status_fd = std::atoi(value());
        else if (arg == "--degrade")
            degrade = std::atoi(value());
        else
            return usage();
    }
    if (job_file.empty() || job_id.empty() || status_fd < 0)
        return usage();

    std::string error;
    const auto file = loadJobFile(job_file, &error);
    if (!file) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return kWorkerExitPermanent;
    }
    return runWorker(*file, job_id, attempt, workdir, status_fd,
                     degrade);
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc >= 2 && std::strcmp(argv[1], "--worker") == 0)
        return workerMode(argc, argv);
    if (argc >= 2 && std::strcmp(argv[1], "--replay") == 0) {
        if (argc < 3)
            return usage();
        bool expect_complete = false;
        for (int i = 3; i < argc; ++i)
            if (std::strcmp(argv[i], "--expect-complete") == 0)
                expect_complete = true;
            else
                return usage();
        return replayMode(argv[2], expect_complete);
    }

    std::string job_path;
    SupervisorOptions opts;
    std::string metrics_path;
    struct Override
    {
        bool set = false;
        int64_t value = 0;
    };
    Override concurrency, queue_cap, max_attempts, backoff_base,
        backoff_max, retry_seed, grace, poll;
    bool no_compact = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        auto setOverride = [&](Override& o) {
            o.set = true;
            o.value = std::atoll(value());
        };
        if (arg == "--journal")
            opts.journalPath = value();
        else if (arg == "--workdir")
            opts.workdir = value();
        else if (arg == "--worker-exe")
            opts.workerExe = value();
        else if (arg == "--metrics-out")
            metrics_path = value();
        else if (arg == "--concurrency")
            setOverride(concurrency);
        else if (arg == "--queue-cap")
            setOverride(queue_cap);
        else if (arg == "--max-attempts")
            setOverride(max_attempts);
        else if (arg == "--backoff-base-ms")
            setOverride(backoff_base);
        else if (arg == "--backoff-max-ms")
            setOverride(backoff_max);
        else if (arg == "--retry-seed")
            setOverride(retry_seed);
        else if (arg == "--grace-ms")
            setOverride(grace);
        else if (arg == "--poll-ms")
            setOverride(poll);
        else if (arg == "--no-compact")
            no_compact = true;
        else if (!arg.empty() && arg[0] == '-')
            return usage();
        else if (job_path.empty())
            job_path = arg;
        else
            return usage();
    }
    if (job_path.empty())
        return usage();

    std::string error;
    auto file = loadJobFile(job_path, &error);
    if (!file) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
    }
    if (concurrency.set)
        file->service.concurrency = int(concurrency.value);
    if (queue_cap.set)
        file->service.queueCap = int(queue_cap.value);
    if (max_attempts.set)
        file->service.retry.maxAttempts = int(max_attempts.value);
    if (backoff_base.set)
        file->service.retry.baseDelayMs = backoff_base.value;
    if (backoff_max.set)
        file->service.retry.maxDelayMs = backoff_max.value;
    if (retry_seed.set)
        file->service.retry.seed = uint64_t(retry_seed.value);
    if (grace.set)
        file->service.graceMs = grace.value;
    if (poll.set)
        file->service.pollMs = poll.value;

    opts.jobFilePath = job_path;
    if (opts.workdir.empty())
        opts.workdir = job_path + ".work";
    ::mkdir(opts.workdir.c_str(), 0777); // EEXIST is fine

    // Startup compaction: fold the accumulated journal down to a
    // per-job snapshot of terminal state before the supervisor opens
    // it. Safe here — nothing else has the file open yet — and purely
    // an optimization: resume semantics are identical either way.
    if (!no_compact) {
        const std::string journal_path = opts.journalPath.empty()
                                             ? job_path + ".journal"
                                             : opts.journalPath;
        std::string compact_error;
        const auto compaction =
            compactJournalFile(journal_path, &compact_error);
        if (!compaction)
            std::fprintf(stderr, "jobd: journal compaction failed: %s\n",
                         compact_error.c_str());
        else if (compaction->rewritten)
            std::printf("journal compacted: %zu -> %zu records "
                        "(%zu -> %zu bytes)\n",
                        compaction->recordsBefore,
                        compaction->recordsAfter,
                        compaction->bytesBefore, compaction->bytesAfter);
    }

    // First SIGINT/SIGTERM: graceful shutdown. Second: immediate.
    static CancellationToken shutdown;
    installStopSignalHandlers(&shutdown, true);
    opts.shutdown = &shutdown;

    const auto summary = runSupervisor(*file, opts, &error);
    if (!summary) {
        std::fprintf(stderr, "jobd: %s\n", error.c_str());
        return 1;
    }

    std::printf(
        "batch %s: %llu jobs (%llu already done), %llu submitted, "
        "%llu shed\n"
        "  attempts=%llu succeeded=%llu failed=%llu retries=%llu\n"
        "  crashes=%llu deadline_kills=%llu interrupted=%llu "
        "resource_failures=%llu\n",
        summary->complete
            ? "complete"
            : (summary->shutdownRequested ? "interrupted (resumable)"
                                          : "incomplete"),
        (unsigned long long)summary->jobs,
        (unsigned long long)summary->alreadyTerminal,
        (unsigned long long)summary->submitted,
        (unsigned long long)summary->shed,
        (unsigned long long)summary->attemptsStarted,
        (unsigned long long)summary->succeeded,
        (unsigned long long)summary->failedPermanent,
        (unsigned long long)summary->retriesScheduled,
        (unsigned long long)summary->crashes,
        (unsigned long long)summary->deadlineKills,
        (unsigned long long)summary->interrupted,
        (unsigned long long)summary->resourceFailures);

    if (!metrics_path.empty()) {
        if (writeServeMetrics(metrics_path, *summary))
            std::printf("metrics written to %s\n", metrics_path.c_str());
        else
            std::fprintf(stderr, "failed to write metrics to %s\n",
                         metrics_path.c_str());
    }

    // Batch completion AND clean shutdown both exit 0: job failures
    // are outcomes; only service failures are errors.
    return summary->complete || summary->shutdownRequested ? 0 : 1;
}

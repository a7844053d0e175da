#include "serve/journal.hpp"

#include <cstring>

#include <unistd.h>

#include "common/durable.hpp"
#include "common/hash.hpp"
#include "common/logging.hpp"

namespace tileflow {

namespace {

constexpr const char* kHeader = "tileflow-journal 1";

const char* const kEventNames[] = {
    "submitted", "started", "attempt_failed",
    "interrupted", "succeeded", "failed",
};

std::string
sanitizePayload(const std::string& s)
{
    std::string out = s;
    for (char& c : out)
        if (c == '\n' || c == '\r')
            c = ' ';
    return out;
}

} // namespace

const char*
jobEventName(JobEvent e)
{
    return kEventNames[size_t(e)];
}

std::optional<JobEvent>
jobEventFromName(const std::string& name)
{
    for (size_t i = 0; i < std::size(kEventNames); ++i)
        if (name == kEventNames[i])
            return JobEvent(i);
    return std::nullopt;
}

std::string
journalLine(const JournalRecord& rec)
{
    const std::string payload = sanitizePayload(rec.payload);
    std::string line = rec.jobId;
    line += ' ';
    line += jobEventName(rec.event);
    line += ' ';
    line += std::to_string(rec.attempt);
    line += ' ';
    line += hex64(payload.size());
    line += ' ';
    line += payload;
    const uint64_t sum = fnvBytes(line);
    line += ' ';
    line += hex64(sum);
    return line;
}

std::optional<JournalRecord>
parseJournalLine(const std::string& line)
{
    // The checksum is the last space-separated token; everything
    // before the separating space is what it covers.
    const size_t sep = line.find_last_of(' ');
    if (sep == std::string::npos || line.size() - sep - 1 != 16)
        return std::nullopt;
    const std::string body = line.substr(0, sep);
    const uint64_t stored =
        std::strtoull(line.c_str() + sep + 1, nullptr, 16);
    if (fnvBytes(body) != stored)
        return std::nullopt;

    // body: jobid event attempt len payload
    JournalRecord rec;
    size_t pos = 0;
    auto token = [&]() -> std::optional<std::string> {
        while (pos < body.size() && body[pos] == ' ')
            ++pos;
        if (pos >= body.size())
            return std::nullopt;
        const size_t start = pos;
        while (pos < body.size() && body[pos] != ' ')
            ++pos;
        return body.substr(start, pos - start);
    };
    const auto id = token();
    const auto event = token();
    const auto attempt = token();
    const auto len = token();
    if (!id || !event || !attempt || !len)
        return std::nullopt;
    rec.jobId = *id;
    const auto ev = jobEventFromName(*event);
    if (!ev)
        return std::nullopt;
    rec.event = *ev;
    rec.attempt = int(std::strtol(attempt->c_str(), nullptr, 10));
    const uint64_t n = std::strtoull(len->c_str(), nullptr, 16);
    // Exactly one separator after the length token, then raw bytes.
    pos += 1;
    if (pos + n != body.size())
        return std::nullopt;
    rec.payload = body.substr(pos, size_t(n));
    return rec;
}

Journal::~Journal()
{
    close();
}

Journal::Journal(Journal&& other) noexcept
    : file_(other.file_), path_(std::move(other.path_))
{
    other.file_ = nullptr;
}

Journal&
Journal::operator=(Journal&& other) noexcept
{
    if (this != &other) {
        close();
        file_ = other.file_;
        path_ = std::move(other.path_);
        other.file_ = nullptr;
    }
    return *this;
}

void
Journal::close()
{
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

std::optional<Journal>
Journal::open(const std::string& path,
              std::vector<JournalRecord>& replayed)
{
    // Read whatever is there and find the valid prefix.
    std::string data;
    bool existed = false;
    if (std::FILE* in = std::fopen(path.c_str(), "rb")) {
        existed = true;
        char buf[1 << 14];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0)
            data.append(buf, n);
        std::fclose(in);
    }

    size_t valid_end = 0;
    if (existed) {
        size_t pos = 0;
        // Header line first.
        const size_t nl = data.find('\n');
        if (nl != std::string::npos &&
            data.substr(0, nl) == kHeader) {
            pos = nl + 1;
            valid_end = pos;
            while (pos < data.size()) {
                const size_t eol = data.find('\n', pos);
                if (eol == std::string::npos)
                    break; // no newline: a torn tail append
                const auto rec =
                    parseJournalLine(data.substr(pos, eol - pos));
                if (!rec)
                    break; // first bad record ends the valid prefix
                replayed.push_back(*rec);
                pos = eol + 1;
                valid_end = pos;
            }
            if (valid_end < data.size())
                warn("journal '", path, "': dropping ",
                     data.size() - valid_end,
                     " bytes of corrupt/truncated tail (",
                     replayed.size(), " valid records kept)");
        } else {
            warn("journal '", path,
                 "': unrecognized header; starting a fresh journal");
            replayed.clear();
            valid_end = 0;
            existed = false;
        }
    }

    // Rewrite-in-place semantics: open for update so we can truncate
    // the corrupt tail, or create the file with its header.
    std::FILE* f =
        std::fopen(path.c_str(), existed ? "r+b" : "wb");
    if (!f) {
        warn("journal: cannot open '", path, "' for writing");
        return std::nullopt;
    }
    if (!existed) {
        std::fputs(kHeader, f);
        std::fputc('\n', f);
        if (!fsyncFile(f)) {
            std::fclose(f);
            return std::nullopt;
        }
        fsyncParentDir(path);
    } else {
        if (::ftruncate(fileno(f), off_t(valid_end)) != 0) {
            warn("journal: cannot truncate '", path, "'");
            std::fclose(f);
            return std::nullopt;
        }
        if (std::fseek(f, 0, SEEK_END) != 0) {
            std::fclose(f);
            return std::nullopt;
        }
    }

    Journal j;
    j.file_ = f;
    j.path_ = path;
    return j;
}

bool
Journal::append(const JournalRecord& rec)
{
    if (!file_)
        return false;
    const std::string line = journalLine(rec) + "\n";
    if (std::fwrite(line.data(), 1, line.size(), file_) != line.size())
        return false;
    // Durable before the supervisor acts on the transition: the
    // record must survive kill -9 arriving immediately after.
    return fsyncFile(file_);
}

bool
readJournal(const std::string& path,
            std::vector<JournalRecord>& records)
{
    std::FILE* in = std::fopen(path.c_str(), "rb");
    if (!in)
        return false;
    std::string data;
    char buf[1 << 14];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0)
        data.append(buf, n);
    std::fclose(in);

    const size_t nl = data.find('\n');
    if (nl == std::string::npos || data.substr(0, nl) != kHeader)
        return false;
    size_t pos = nl + 1;
    while (pos < data.size()) {
        const size_t eol = data.find('\n', pos);
        if (eol == std::string::npos)
            break;
        const auto rec = parseJournalLine(data.substr(pos, eol - pos));
        if (!rec)
            break;
        records.push_back(*rec);
        pos = eol + 1;
    }
    return true;
}

namespace {

/** Which event kind wrote a job's final lastReason (compaction must
 *  replay reason-setters in an order that lands the same one last). */
enum class ReasonSource
{
    None,
    AttemptFailed,
    Interrupted,
    Failed,
};

/** Per-job payloads the ledger fold forgets but compaction keeps. */
struct CompactionSidecar
{
    ReasonSource reasonSource = ReasonSource::None;
    std::string attemptFailedPayload; ///< last attempt_failed payload
    std::string interruptedPayload;
    int interruptedAttempt = 0;
    std::string succeededPayload; ///< last succeeded payload
    int succeededAttempt = 0;
    std::string failedPayload;
    int failedAttempt = 0;
};

bool
sameEntry(const JobLedger::Entry& a, const JobLedger::Entry& b)
{
    return a.state == b.state && a.attemptsFailed == b.attemptsFailed &&
           a.attemptsStarted == b.attemptsStarted &&
           a.succeededRecords == b.succeededRecords &&
           a.lastReason == b.lastReason;
}

} // namespace

std::optional<std::vector<JournalRecord>>
compactJournalRecords(const std::vector<JournalRecord>& records)
{
    JobLedger ledger;
    std::map<std::string, CompactionSidecar> sidecars;
    for (const JournalRecord& rec : records) {
        ledger.apply(rec);
        CompactionSidecar& side = sidecars[rec.jobId];
        switch (rec.event) {
        case JobEvent::AttemptFailed:
            side.reasonSource = ReasonSource::AttemptFailed;
            side.attemptFailedPayload = rec.payload;
            break;
        case JobEvent::Interrupted:
            side.reasonSource = ReasonSource::Interrupted;
            side.interruptedPayload = rec.payload;
            side.interruptedAttempt = rec.attempt;
            break;
        case JobEvent::Succeeded:
            side.succeededPayload = rec.payload;
            side.succeededAttempt = rec.attempt;
            break;
        case JobEvent::Failed:
            side.reasonSource = ReasonSource::Failed;
            side.failedPayload = rec.payload;
            side.failedAttempt = rec.attempt;
            break;
        case JobEvent::Submitted:
        case JobEvent::Started:
            break;
        }
    }

    std::vector<JournalRecord> out;
    for (const auto& [jobId, entry] : ledger.jobs()) {
        const CompactionSidecar& side = sidecars[jobId];
        out.push_back({jobId, JobEvent::Submitted, 0, ""});
        const auto emitStarted = [&] {
            if (entry.attemptsStarted > 0)
                out.push_back({jobId, JobEvent::Started,
                               entry.attemptsStarted, ""});
        };
        const auto emitAttemptFailed = [&] {
            if (entry.attemptsFailed > 0)
                out.push_back({jobId, JobEvent::AttemptFailed,
                               entry.attemptsFailed,
                               side.attemptFailedPayload});
        };
        const auto emitInterrupted = [&] {
            if (side.reasonSource == ReasonSource::Interrupted)
                out.push_back({jobId, JobEvent::Interrupted,
                               side.interruptedAttempt,
                               side.interruptedPayload});
        };
        if (entry.state == JobLedger::State::Running) {
            // `started` must land last of the non-terminal events to
            // leave the job Running again after replay.
            emitAttemptFailed();
            emitInterrupted();
            emitStarted();
        } else {
            emitStarted();
            emitAttemptFailed();
            emitInterrupted();
        }
        // Succeeded multiplicity is the `--replay` audit's
        // exactly-once signal; compaction must preserve a violation,
        // not paper over it.
        for (int i = 0; i < entry.succeededRecords; ++i)
            out.push_back({jobId, JobEvent::Succeeded,
                           side.succeededAttempt,
                           side.succeededPayload});
        if (entry.state == JobLedger::State::Failed ||
            side.reasonSource == ReasonSource::Failed)
            out.push_back({jobId, JobEvent::Failed, side.failedAttempt,
                           side.failedPayload});
    }

    // Self-check: the compacted sequence must fold to the identical
    // ledger. Any divergence (a record pattern this synthesis does
    // not model) vetoes compaction.
    JobLedger check;
    check.applyAll(out);
    if (check.jobs().size() != ledger.jobs().size())
        return std::nullopt;
    for (const auto& [jobId, entry] : ledger.jobs()) {
        const JobLedger::Entry* other = check.find(jobId);
        if (!other || !sameEntry(entry, *other))
            return std::nullopt;
    }
    return out;
}

std::optional<JournalCompaction>
compactJournalFile(const std::string& path, std::string* error)
{
    JournalCompaction result;
    std::vector<JournalRecord> records;
    if (!readJournal(path, records))
        return result; // absent or unrecognized: nothing to compact
    result.recordsBefore = records.size();
    result.recordsAfter = records.size();

    const auto compacted = compactJournalRecords(records);
    if (!compacted) {
        warn("journal '", path,
             "': compaction cannot reproduce the ledger; keeping the "
             "full journal");
        return result;
    }

    std::string before = kHeader;
    before += '\n';
    for (const JournalRecord& rec : records) {
        before += journalLine(rec);
        before += '\n';
    }
    std::string after = kHeader;
    after += '\n';
    for (const JournalRecord& rec : *compacted) {
        after += journalLine(rec);
        after += '\n';
    }
    result.bytesBefore = before.size();
    result.bytesAfter = after.size();
    if (after.size() >= before.size())
        return result; // not smaller: leave the journal alone

    if (!replaceFileDurably(path, path + ".compact.tmp", after, error))
        return std::nullopt;
    result.rewritten = true;
    result.recordsAfter = compacted->size();
    return result;
}

void
JobLedger::apply(const JournalRecord& rec)
{
    Entry& e = jobs_[rec.jobId];
    switch (rec.event) {
    case JobEvent::Submitted:
        // Idempotent: a duplicate submit of a known job (a restarted
        // supervisor re-reading the job file) changes nothing.
        break;
    case JobEvent::Started:
        if (e.state != State::Succeeded && e.state != State::Failed)
            e.state = State::Running;
        e.attemptsStarted = std::max(e.attemptsStarted, rec.attempt);
        break;
    case JobEvent::AttemptFailed:
        if (e.state != State::Succeeded && e.state != State::Failed)
            e.state = State::Pending;
        e.attemptsFailed = std::max(e.attemptsFailed, rec.attempt);
        e.lastReason = rec.payload;
        break;
    case JobEvent::Interrupted:
        // Shutdown cancelled the attempt; the job stays pending and
        // the attempt is not charged.
        if (e.state != State::Succeeded && e.state != State::Failed)
            e.state = State::Pending;
        e.lastReason = rec.payload;
        break;
    case JobEvent::Succeeded:
        e.state = State::Succeeded;
        e.succeededRecords += 1;
        break;
    case JobEvent::Failed:
        if (e.state != State::Succeeded)
            e.state = State::Failed;
        e.lastReason = rec.payload;
        break;
    }
}

const JobLedger::Entry*
JobLedger::find(const std::string& jobId) const
{
    const auto it = jobs_.find(jobId);
    return it == jobs_.end() ? nullptr : &it->second;
}

bool
JobLedger::allTerminal() const
{
    for (const auto& [id, e] : jobs_) {
        (void)id;
        if (e.state != State::Succeeded && e.state != State::Failed)
            return false;
    }
    return true;
}

const char*
JobLedger::stateName(State s)
{
    switch (s) {
    case State::Pending:
        return "pending";
    case State::Running:
        return "running";
    case State::Succeeded:
        return "succeeded";
    case State::Failed:
        return "failed";
    }
    return "?";
}

} // namespace tileflow

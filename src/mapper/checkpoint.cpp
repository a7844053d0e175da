#include "mapper/checkpoint.hpp"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/durable.hpp"
#include "common/hash.hpp"
#include "common/logging.hpp"

namespace tileflow {

namespace {

constexpr const char* kMagic = "tileflow-ckpt";
constexpr int kVersion = 1;

std::atomic<int> g_crash_countdown{-1};

} // namespace

uint64_t
ckptHashSpace(uint64_t hash, const MappingSpace& space)
{
    hash = fnvWord(hash, space.numKnobs());
    for (const Knob& knob : space.knobs()) {
        hash = fnvBytes(knob.name, hash);
        hash = fnvWord(hash, knob.structural ? 1 : 0);
        hash = fnvWord(hash, knob.choices.size());
        for (int64_t choice : knob.choices)
            hash = fnvWord(hash, uint64_t(choice));
    }
    return hash;
}

void
ckptCreditRestoredMetrics(const SearchStats& restored,
                          const Evaluator& evaluator)
{
    MetricsRegistry& metrics = MetricsRegistry::global();
    const uint64_t evaluations = uint64_t(restored.evaluations);
    metrics.counter("mapper.evaluations").add(evaluations);
    metrics.counter("mapper.failed_evaluations")
        .add(histogramTotal(restored.failureHistogram));
    // The evaluator-side counter the resumed portion would have bumped.
    metrics
        .counter(evaluator.subtreeCache() ? "analysis.incremental_evals"
                                          : "analysis.evaluations")
        .add(evaluations);
    metrics.counter("evalcache.hits").add(restored.cacheHits);
    metrics.counter("evalcache.misses").add(restored.cacheMisses);
    metrics.counter("mapper.bound_pruned").add(restored.boundPruned);
    metrics.counter("mapper.candidates")
        .add(evaluations + restored.boundPruned);
}

void
armCheckpointCrashForTesting(int after)
{
    g_crash_countdown.store(after);
}

void
ckptWriteCache(CkptWriter& w, const EvalCache& cache)
{
    std::vector<std::pair<std::vector<int64_t>, CachedEval>> entries;
    // Bound-only entries are not verdicts and are not persisted: a
    // resumed run bounds those candidates again, which reaches the
    // same verdicts.
    cache.forEach([&](const std::vector<int64_t>& choices,
                      const CachedEval& value) {
        if (!value.pruned)
            entries.emplace_back(choices, value);
    });
    w.tag("cache");
    w.u64(entries.size());
    for (const auto& [choices, value] : entries) {
        w.u64(choices.size());
        for (int64_t c : choices)
            w.i64(c);
        w.u64(value.valid ? 1 : 0);
        w.d(value.cycles);
        w.u64(value.failed ? 1 : 0);
        w.str(value.failReason);
    }
}

bool
ckptReadCache(CkptReader& r, EvalCache& cache)
{
    r.tag("cache");
    const uint64_t n = r.u64();
    for (uint64_t i = 0; i < n && r.ok(); ++i) {
        const uint64_t len = r.u64();
        if (!r.ok() || len > (1u << 20))
            return false;
        std::vector<int64_t> choices;
        choices.resize(size_t(len));
        for (auto& c : choices)
            c = r.i64();
        CachedEval value;
        value.valid = r.u64() != 0;
        value.cycles = r.d();
        value.failed = r.u64() != 0;
        value.failReason = r.str();
        if (r.ok())
            cache.insert(choices, value);
    }
    return r.ok();
}

void
ckptWriteHistogram(CkptWriter& w, const FailureHistogram& hist)
{
    w.tag("hist");
    w.u64(hist.size());
    for (const auto& [reason, count] : hist) {
        w.str(reason);
        w.u64(count);
    }
}

bool
ckptReadHistogram(CkptReader& r, FailureHistogram& hist)
{
    r.tag("hist");
    const uint64_t n = r.u64();
    for (uint64_t i = 0; i < n && r.ok(); ++i) {
        const std::string reason = r.str();
        const uint64_t count = r.u64();
        if (r.ok())
            hist[reason] = count;
    }
    return r.ok();
}

void
ckptWriteStats(CkptWriter& w, const SearchStats& stats)
{
    w.tag("trace");
    w.u64(stats.trace.size());
    for (double t : stats.trace)
        w.d(t);
    w.tag("evals");
    w.i64(stats.evaluations);
    // Written unconditionally (0 when pruning is off), so checkpoints
    // interoperate across the boundPrune setting — which is
    // deliberately NOT in the config hash.
    w.tag("bpruned");
    w.u64(stats.boundPruned);
    w.tag("elapsedms");
    w.i64(stats.elapsedMs);
    w.tag("cachedelta");
    w.u64(stats.cacheHits);
    w.u64(stats.cacheMisses);
    ckptWriteHistogram(w, stats.failureHistogram);
}

bool
ckptReadStats(CkptReader& r, SearchStats& stats)
{
    r.tag("trace");
    stats.trace.resize(size_t(r.u64()));
    for (double& t : stats.trace)
        t = r.d();
    r.tag("evals");
    stats.evaluations = int(r.i64());
    r.tag("bpruned");
    stats.boundPruned = r.u64();
    r.tag("elapsedms");
    stats.elapsedMs = r.i64();
    r.tag("cachedelta");
    stats.cacheHits = r.u64();
    stats.cacheMisses = r.u64();
    return ckptReadHistogram(r, stats.failureHistogram);
}

CkptWriter::CkptWriter(const std::string& kind, uint64_t config_hash)
{
    buf_ = concat(kMagic, " ", kVersion, " ", kind, " ",
                  hex64(config_hash), "\n");
}

void
CkptWriter::u64(uint64_t v)
{
    buf_ += hex64(v);
    buf_ += ' ';
}

void
CkptWriter::i64(int64_t v)
{
    u64(uint64_t(v));
}

void
CkptWriter::d(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
CkptWriter::str(const std::string& s)
{
    // Length token, a single separating space, then raw bytes (which
    // may themselves contain whitespace).
    buf_ += hex64(s.size());
    buf_ += ' ';
    buf_ += s;
    buf_ += ' ';
}

void
CkptWriter::tag(const char* name)
{
    buf_ += name;
    buf_ += ' ';
}

bool
CkptWriter::writeTo(const std::string& path) const
{
    std::string payload = buf_;
    payload += concat("\nend ",
                      hex64(fnvBytes(buf_)), "\n");

    bool crash = false;
    const int countdown = g_crash_countdown.load();
    if (countdown >= 0) {
        crash = countdown == 0;
        if (!crash)
            g_crash_countdown.store(countdown - 1);
    }

    const std::string tmp = path + ".tmp";
    if (crash) {
        // Simulated crash mid-payload: a truncated tmp, no rename, so
        // the previous checkpoint stays intact.
        if (std::FILE* f = std::fopen(tmp.c_str(), "wb")) {
            std::fwrite(payload.data(), 1, payload.size() / 2, f);
            std::fclose(f);
        }
        return false;
    }
    std::string error;
    if (!replaceFileDurably(path, tmp, payload, &error)) {
        warn("checkpoint: ", error);
        return false;
    }
    return true;
}

std::optional<CkptReader>
CkptReader::open(const std::string& path, const std::string& kind,
                 uint64_t config_hash)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());

    // Split off the trailing "end <checksum>" line and verify it.
    const size_t end_pos = data.rfind("\nend ");
    if (end_pos == std::string::npos) {
        warn("checkpoint '", path, "': missing checksum; ignoring");
        return std::nullopt;
    }
    const std::string body = data.substr(0, end_pos);
    const uint64_t stored =
        std::strtoull(data.c_str() + end_pos + 5, nullptr, 16);
    if (fnvBytes(body) != stored) {
        warn("checkpoint '", path, "': checksum mismatch; ignoring");
        return std::nullopt;
    }

    CkptReader reader(body);
    // Header: magic, version, kind, config hash.
    if (reader.nextToken() != kMagic ||
        reader.nextToken() != std::to_string(kVersion) ||
        reader.nextToken() != kind) {
        warn("checkpoint '", path,
             "': wrong magic/version/kind; ignoring");
        return std::nullopt;
    }
    const uint64_t stored_hash =
        std::strtoull(reader.nextToken().c_str(), nullptr, 16);
    if (!reader.ok_ || stored_hash != config_hash) {
        warn("checkpoint '", path,
             "': search configuration changed; starting fresh");
        return std::nullopt;
    }
    return reader;
}

std::string
CkptReader::nextToken()
{
    while (pos_ < data_.size() &&
           std::isspace(uint8_t(data_[pos_])))
        ++pos_;
    if (pos_ >= data_.size()) {
        ok_ = false;
        return {};
    }
    const size_t start = pos_;
    while (pos_ < data_.size() && !std::isspace(uint8_t(data_[pos_])))
        ++pos_;
    return data_.substr(start, pos_ - start);
}

uint64_t
CkptReader::u64()
{
    const std::string token = nextToken();
    if (!ok_)
        return 0;
    return std::strtoull(token.c_str(), nullptr, 16);
}

int64_t
CkptReader::i64()
{
    return int64_t(u64());
}

double
CkptReader::d()
{
    const uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
CkptReader::str()
{
    const uint64_t len = u64();
    if (!ok_)
        return {};
    // Exactly one separator follows the length token, then raw bytes.
    pos_ += 1;
    if (pos_ + len > data_.size()) {
        ok_ = false;
        return {};
    }
    std::string out = data_.substr(pos_, len);
    pos_ += len;
    return out;
}

void
CkptReader::tag(const char* name)
{
    if (nextToken() != name)
        ok_ = false;
}

} // namespace tileflow

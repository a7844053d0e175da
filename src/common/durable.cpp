#include "common/durable.hpp"

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.hpp"

namespace tileflow {

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
    return buf;
}

bool
fsyncFile(std::FILE* f)
{
    if (std::fflush(f) != 0)
        return false;
    return ::fsync(fileno(f)) == 0;
}

bool
fsyncParentDir(const std::string& path)
{
    const size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash + 1);
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return false;
    const bool ok = ::fsync(fd) == 0;
    ::close(fd);
    return ok;
}

bool
replaceFileDurably(const std::string& path, const std::string& tmp,
                   std::string_view data, std::string* error)
{
    const auto fail = [&](const std::string& why) {
        std::remove(tmp.c_str());
        if (error)
            *error = why;
        return false;
    };
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return fail(concat("cannot open '", tmp, "' for writing"));
    const bool wrote =
        std::fwrite(data.data(), 1, data.size(), f) == data.size() &&
        fsyncFile(f);
    std::fclose(f);
    if (!wrote)
        return fail(concat("cannot write '", tmp, "'"));
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        return fail(concat("cannot rename '", tmp, "' over '", path, "'"));
    if (!fsyncParentDir(path))
        warn("cannot fsync the directory of '", path, "'");
    return true;
}

} // namespace tileflow

#include "common/strings.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/logging.hpp"

namespace tileflow {

std::string
trim(const std::string& s)
{
    size_t begin = 0;
    size_t end = s.size();
    while (begin < end && std::isspace(static_cast<unsigned char>(s[begin])))
        ++begin;
    while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1])))
        --end;
    return s.substr(begin, end - begin);
}

std::vector<std::string>
split(const std::string& s, char delim)
{
    std::vector<std::string> out;
    std::string piece;
    std::istringstream stream(s);
    while (std::getline(stream, piece, delim))
        out.push_back(piece);
    if (!s.empty() && s.back() == delim)
        out.push_back("");
    if (s.empty())
        out.push_back("");
    return out;
}

std::vector<std::pair<std::string, std::string>>
envKeyValues(const char* name)
{
    std::vector<std::pair<std::string, std::string>> out;
    const char* env = std::getenv(name);
    if (!env || !*env)
        return out;
    for (const std::string& piece : split(env, ',')) {
        const std::vector<std::string> kv = split(trim(piece), '=');
        if (kv.size() != 2) {
            warn(name, ": ignoring malformed piece '", piece, "'");
            continue;
        }
        out.emplace_back(trim(kv[0]), trim(kv[1]));
    }
    return out;
}

std::string
join(const std::vector<std::string>& parts, const std::string& sep)
{
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i > 0)
            out += sep;
        out += parts[i];
    }
    return out;
}

bool
startsWith(const std::string& s, const std::string& prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

std::string
fmt(double value, int precision)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(precision);
    os << value;
    return os.str();
}

std::string
humanCount(double value)
{
    const char* suffix = "";
    double v = value;
    if (std::fabs(v) >= 1e9) {
        v /= 1e9;
        suffix = "G";
    } else if (std::fabs(v) >= 1e6) {
        v /= 1e6;
        suffix = "M";
    } else if (std::fabs(v) >= 1e3) {
        v /= 1e3;
        suffix = "K";
    }
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(std::fabs(v) >= 100 ? 0 : 2);
    os << v << suffix;
    return os.str();
}

} // namespace tileflow

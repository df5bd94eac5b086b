#include "orch/manifest.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "sim/logging.hh"
#include "util/json.hh"

namespace misar {
namespace orch {

namespace {

std::string
hashHex(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace

bool
Manifest::open(const std::string &path, const std::string &campaign,
               std::size_t jobs, std::uint64_t gridHash, bool fresh)
{
    close();
    int flags = O_WRONLY | O_CREAT | O_APPEND | (fresh ? O_TRUNC : 0);
    fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) {
        warn("cannot open manifest %s: %s", path.c_str(),
             std::strerror(errno));
        return false;
    }
    if (fresh) {
        std::ostringstream os;
        os << "{\"manifest\":" << version << ",\"campaign\":\""
           << util::jsonEscape(campaign) << "\",\"jobs\":" << jobs
           << ",\"gridHash\":\"" << hashHex(gridHash) << "\"}\n";
        const std::string line = os.str();
        if (::write(fd, line.data(), line.size()) !=
            static_cast<ssize_t>(line.size()))
            return false;
        ::fsync(fd);
    }
    return true;
}

bool
Manifest::append(const ManifestEntry &e)
{
    if (fd < 0)
        return false;
    std::ostringstream os;
    os << "{\"job\":" << e.job << ",\"key\":\"" << util::jsonEscape(e.key)
       << "\",\"outcome\":\"" << util::jsonEscape(e.outcome)
       << "\",\"exit\":" << e.exitCode << ",\"signal\":" << e.termSignal
       << ",\"attempts\":" << e.attempts << ",\"wallSec\":";
    char wall[32];
    std::snprintf(wall, sizeof(wall), "%.3f", e.wallSec);
    os << wall << ",\"report\":\"" << util::jsonEscape(e.report) << "\"}\n";
    const std::string line = os.str();
    if (::write(fd, line.data(), line.size()) !=
        static_cast<ssize_t>(line.size()))
        return false;
    return ::fsync(fd) == 0;
}

void
Manifest::close()
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

bool
Manifest::load(const std::string &path, const std::string &campaign,
               std::uint64_t gridHash, std::vector<ManifestEntry> &out,
               std::string &err)
{
    std::ifstream f(path);
    if (!f) {
        err = "no manifest at " + path;
        return false;
    }
    std::string line;
    bool sawHeader = false;
    std::size_t lineNo = 0;
    while (std::getline(f, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        std::string perr;
        util::Json j = util::parseJson(line, &perr);
        if (!j.isObj()) {
            // A torn trailing line is expected after a hard kill;
            // anything unparseable mid-file is suspicious but the
            // safe interpretation is the same: the entry never
            // completed, so the job reruns.
            warn("manifest %s line %zu unreadable (%s); ignoring",
                 path.c_str(), lineNo, perr.c_str());
            continue;
        }
        if (j.has("manifest")) {
            if (j.at("manifest").uintOr(0) != version) {
                err = "manifest version mismatch";
                return false;
            }
            if (j.at("campaign").stringOr("") != campaign) {
                err = "manifest belongs to campaign '" +
                      j.at("campaign").stringOr("") + "', not '" +
                      campaign + "'";
                return false;
            }
            if (j.at("gridHash").stringOr("") != hashHex(gridHash)) {
                err = "manifest grid hash mismatch (spec changed "
                      "since the journal was written)";
                return false;
            }
            sawHeader = true;
            continue;
        }
        if (!sawHeader) {
            err = "manifest has no header line";
            return false;
        }
        ManifestEntry e;
        e.job = static_cast<unsigned>(j.at("job").uintOr(0));
        e.key = j.at("key").stringOr("");
        e.outcome = j.at("outcome").stringOr("");
        e.exitCode = static_cast<int>(j.at("exit").numberOr(-1));
        e.termSignal = static_cast<int>(j.at("signal").numberOr(0));
        e.attempts = static_cast<unsigned>(j.at("attempts").uintOr(1));
        e.wallSec = j.at("wallSec").numberOr(0.0);
        e.report = j.at("report").stringOr("");
        out.push_back(std::move(e));
    }
    if (!sawHeader) {
        err = "manifest " + path + " is empty";
        return false;
    }
    return true;
}

} // namespace orch
} // namespace misar

#include "core/checkpoint.hh"

#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "obs/spc.hh"
#include "support/logging.hh"

namespace pca::core
{

namespace
{

/** Standard CRC-32 (IEEE 802.3, reflected), table-driven. */
std::uint32_t
crc32(const char *data, std::size_t n)
{
    static const auto table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i)
        c = table[(c ^ static_cast<unsigned char>(data[i])) & 0xff] ^
            (c >> 8);
    return c ^ 0xffffffffu;
}

void
jsonEscape(std::string &out, const std::string &s)
{
    for (char ch : s) {
        const auto u = static_cast<unsigned char>(ch);
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (u < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", u);
            out += buf;
        } else {
            out += ch;
        }
    }
}

/**
 * Minimal cursor-based reader for the two line shapes this module
 * itself writes. Any deviation — including valid JSON we would
 * never emit — fails the parse, which the loader treats exactly
 * like a torn line.
 */
struct Cursor
{
    const char *p;
    const char *end;

    bool lit(const char *s)
    {
        const std::size_t n = std::strlen(s);
        if (static_cast<std::size_t>(end - p) < n ||
            std::memcmp(p, s, n) != 0)
            return false;
        p += n;
        return true;
    }

    bool number(std::uint64_t &out)
    {
        if (p == end || *p < '0' || *p > '9')
            return false;
        std::uint64_t v = 0;
        while (p != end && *p >= '0' && *p <= '9')
            v = v * 10 + static_cast<std::uint64_t>(*p++ - '0');
        out = v;
        return true;
    }

    bool quoted(std::string &out)
    {
        if (!lit("\""))
            return false;
        out.clear();
        while (p != end && *p != '"') {
            char ch = *p++;
            if (ch == '\\') {
                if (p == end)
                    return false;
                ch = *p++;
                if (ch == 'u') {
                    if (end - p < 4)
                        return false;
                    unsigned v = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = *p++;
                        v <<= 4;
                        if (h >= '0' && h <= '9')
                            v |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            v |= static_cast<unsigned>(h - 'a' + 10);
                        else
                            return false;
                    }
                    ch = static_cast<char>(v);
                }
            }
            out += ch;
        }
        return lit("\"");
    }
};

/** Split "a|b|c" into cells; empty input means no cells. */
std::vector<std::string>
splitAttr(const std::string &s)
{
    std::vector<std::string> cells;
    if (s.empty())
        return cells;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == '|') {
            cells.push_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return cells;
}

/**
 * Validate one line's trailing `,"crc":"xxxxxxxx"}` and return the
 * CRC-covered prefix, or nullopt.
 */
std::optional<std::pair<const char *, std::size_t>>
checkCrc(const std::string &line)
{
    // 18 = strlen(",\"crc\":\"xxxxxxxx\"}")
    if (line.size() < 18)
        return std::nullopt;
    const std::size_t body = line.size() - 18;
    Cursor c{line.data() + body, line.data() + line.size()};
    std::string hex;
    if (!c.lit(",\"crc\":") || !c.quoted(hex) || !c.lit("}") ||
        c.p != c.end || hex.size() != 8)
        return std::nullopt;
    char *rest = nullptr;
    const auto want = static_cast<std::uint32_t>(
        std::strtoul(hex.c_str(), &rest, 16));
    if (rest == nullptr || *rest != '\0')
        return std::nullopt;
    if (crc32(line.data(), body) != want)
        return std::nullopt;
    return std::make_pair(line.data(), body);
}

/** Append the `,"crc":"xxxxxxxx"}\n` suffix for @p body. */
void
sealLine(std::string &body)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, ",\"crc\":\"%08x\"}\n",
                  crc32(body.data(), body.size()));
    body += buf;
}

} // namespace

std::unique_ptr<StudyCheckpoint>
StudyCheckpoint::open(const std::string &path, const std::string &study,
                      const std::string &identity, std::size_t points)
{
    std::unique_ptr<StudyCheckpoint> cp(
        new StudyCheckpoint(path, study, identity, points));
    if (!cp->loadExisting())
        cp->file = std::fopen(path.c_str(), "w");
    if (cp->file == nullptr) {
        pca_warn("checkpoint: cannot open ", path, " for append (",
                 std::strerror(errno), "); checkpointing disabled");
        return nullptr;
    }
    return cp;
}

std::unique_ptr<StudyCheckpoint>
StudyCheckpoint::openFromEnv(
    const std::string &study,
    const std::function<std::string()> &identity, std::size_t points)
{
    const char *path = std::getenv("PCA_CHECKPOINT");
    if (path == nullptr || *path == '\0')
        return nullptr;
    return open(path, study, identity(), points);
}

StudyCheckpoint::StudyCheckpoint(std::string path, std::string study,
                                 std::string identity,
                                 std::size_t points)
    : filePath(std::move(path)), studyName(std::move(study)),
      identity(std::move(identity)), numPoints(points), loaded(points)
{
}

StudyCheckpoint::~StudyCheckpoint()
{
    if (file != nullptr)
        std::fclose(file);
}

bool
StudyCheckpoint::loadExisting()
{
    std::FILE *in = std::fopen(filePath.c_str(), "r");
    if (in == nullptr)
        return false; // no file yet: fresh start

    // Scan line by line, tracking the byte offset just past the last
    // valid line so a torn or corrupt tail can be truncated away. A
    // header opens a section; only our sections' records load.
    std::string line;
    std::size_t validEnd = 0;
    bool sawHeader = false;
    bool ours = false; //!< the current section is this identity's
    int c;
    std::size_t offset = 0;
    std::size_t resumed = 0;
    while ((c = std::fgetc(in)) != EOF) {
        ++offset;
        if (c != '\n') {
            line += static_cast<char>(c);
            continue;
        }
        const auto body = checkCrc(line);
        if (!body)
            break; // torn/corrupt: drop this line and everything after
        Cursor cur{body->first, body->first + body->second};
        if (cur.lit("{\"v\":1,\"study\":")) {
            std::string study, id;
            std::uint64_t pts = 0;
            if (!cur.quoted(study) || !cur.lit(",\"id\":") ||
                !cur.quoted(id) || !cur.lit(",\"points\":") ||
                !cur.number(pts) || cur.p != cur.end)
                break;
            sawHeader = true;
            ours = study == studyName && id == identity &&
                pts == numPoints;
        } else if (!sawHeader) {
            break;
        } else if (ours) {
            std::uint64_t point = 0;
            if (!cur.lit("{\"point\":") || !cur.number(point) ||
                !cur.lit(",\"runs\":[") || point >= numPoints)
                break;
            PointRecord rec;
            bool bad = false;
            while (!cur.lit("]")) {
                if (!rec.empty() && !cur.lit(",")) {
                    bad = true;
                    break;
                }
                CheckpointRun r;
                std::uint64_t ok = 0;
                std::string value, attr;
                if (!cur.lit("[") || !cur.number(ok) ||
                    !cur.lit(",") || !cur.quoted(value) ||
                    !cur.lit(",") || !cur.quoted(attr) ||
                    !cur.lit(",") || !cur.quoted(r.note) ||
                    !cur.lit("]")) {
                    bad = true;
                    break;
                }
                r.ok = ok != 0;
                char *rest = nullptr;
                r.value = std::strtod(value.c_str(), &rest);
                if (rest == nullptr || *rest != '\0') {
                    bad = true;
                    break;
                }
                r.attr = splitAttr(attr);
                rec.push_back(std::move(r));
            }
            if (bad || cur.p != cur.end)
                break;
            if (!loaded[point]) {
                ++doneCount;
                ++resumed;
            }
            loaded[point] = std::move(rec);
        }
        validEnd = offset;
        line.clear();
    }
    std::fclose(in);

    if (!sawHeader) {
        // An empty file is a fresh start (its study recorded nothing).
        if (offset > 0)
            pca_warn("checkpoint ", filePath,
                     ": unreadable header; restarting checkpoint");
        return false;
    }

    struct stat st{};
    if (::stat(filePath.c_str(), &st) == 0 &&
        static_cast<std::size_t>(st.st_size) > validEnd) {
        pca_warn("checkpoint ", filePath, ": dropping ",
                 static_cast<std::size_t>(st.st_size) - validEnd,
                 " torn trailing bytes");
        if (::truncate(filePath.c_str(),
                       static_cast<off_t>(validEnd)) != 0) {
            pca_warn("checkpoint ", filePath, ": truncate failed (",
                     std::strerror(errno),
                     "); restarting checkpoint");
            loaded.assign(numPoints, std::nullopt);
            doneCount = 0;
            return false;
        }
    }

    PCA_SPC_ADD(CheckpointPointsResumed, resumed);
    // Records append to the last section: ours, or a new one.
    headerPending = !ours;
    file = std::fopen(filePath.c_str(), "a");
    return true;
}

bool
StudyCheckpoint::completed(std::size_t point) const
{
    std::lock_guard<std::mutex> lock(mtx);
    return point < loaded.size() && loaded[point].has_value();
}

const PointRecord *
StudyCheckpoint::get(std::size_t point) const
{
    std::lock_guard<std::mutex> lock(mtx);
    if (point >= loaded.size() || !loaded[point])
        return nullptr;
    return &*loaded[point];
}

std::size_t
StudyCheckpoint::completedCount() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return doneCount;
}

void
StudyCheckpoint::record(std::size_t point, const PointRecord &rec)
{
    pca_assert(point < numPoints);
    std::string body = "{\"point\":" + std::to_string(point) +
                       ",\"runs\":[";
    for (std::size_t i = 0; i < rec.size(); ++i) {
        if (i > 0)
            body += ',';
        const CheckpointRun &r = rec[i];
        // %a round-trips the double bit-exactly through strtod, so a
        // resumed table cell is byte-identical to the original.
        char value[48];
        std::snprintf(value, sizeof value, "%a", r.value);
        body += r.ok ? "[1,\"" : "[0,\"";
        body += value;
        body += "\",\"";
        std::string attr;
        for (std::size_t k = 0; k < r.attr.size(); ++k) {
            if (k > 0)
                attr += '|';
            attr += r.attr[k];
        }
        jsonEscape(body, attr);
        body += "\",\"";
        jsonEscape(body, r.note);
        body += "\"]";
    }
    body += ']';
    sealLine(body);

    std::lock_guard<std::mutex> lock(mtx);
    if (file == nullptr)
        return;
    if (headerPending) {
        std::string header = "{\"v\":1,\"study\":\"";
        jsonEscape(header, studyName);
        header += "\",\"id\":\"";
        jsonEscape(header, identity);
        header += "\",\"points\":" + std::to_string(numPoints);
        sealLine(header);
        body.insert(0, header);
        headerPending = false;
    }
    std::fwrite(body.data(), 1, body.size(), file);
    std::fflush(file);
    ::fsync(fileno(file)); // a crash can tear at most this one line
    if (!loaded[point])
        ++doneCount;
    loaded[point] = rec;
    PCA_SPC_INC(CheckpointPointsWritten);
}

} // namespace pca::core

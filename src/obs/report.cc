#include "obs/report.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>

#include "obs/event_log.hh"
#include "sim/critpath.hh"
#include "sim/timeline.hh"

namespace specrt
{
namespace obs
{

namespace
{

/** Count retained event lines by kind ({"ev":"<kind>"...}). */
std::map<std::string, uint64_t>
eventCounts(const EventLog &ev)
{
    std::map<std::string, uint64_t> counts;
    static const char prefix[] = "{\"ev\":\"";
    constexpr size_t plen = sizeof(prefix) - 1;
    for (size_t i = 0; i < ev.size(); ++i) {
        const std::string &line = ev.at(i);
        if (line.compare(0, plen, prefix) != 0)
            continue;
        size_t q = line.find('"', plen);
        if (q == std::string::npos)
            continue;
        ++counts[line.substr(plen, q - plen)];
    }
    return counts;
}

/** Display-friendly number for the Markdown table (6 sig digits). */
std::string
tableNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

void
appendPairs(std::ostringstream &os,
            const std::vector<std::pair<std::string, double>> &pairs)
{
    for (size_t i = 0; i < pairs.size(); ++i) {
        os << (i ? ", " : "") << "\"" << jsonEscape(pairs[i].first)
           << "\": " << jsonNumber(pairs[i].second);
    }
}

} // namespace

std::string
renderReport(const ReportInputs &in)
{
    std::ostringstream os;
    os << "{\n"
       << "  \"schema\": 1,\n"
       << "  \"name\": \"" << jsonEscape(in.name) << "\",\n"
       << "  \"git_sha\": \"" << jsonEscape(in.gitSha) << "\",\n"
       << "  \"config_fingerprint\": \""
       << jsonEscape(in.configFingerprint) << "\",\n"
       << "  \"base_seed\": " << in.baseSeed << ",\n"
       << "  \"sim_ticks\": " << in.simTicks << ",\n"
       << "  \"events_fired\": " << in.eventsFired << ",\n"
       << "  \"runs\": " << in.runs << ",\n"
       << "  \"infra_failed_runs\": " << in.infraFailedRuns << ",\n";

    os << "  \"metrics\": {";
    appendPairs(os, in.metrics);
    os << "},\n";

    os << "  \"stats\": {";
    appendPairs(os, in.stats);
    os << "},\n";

    const stall::CostBreakdown &c = in.cost;
    os << "  \"cost\": {\n"
       << "    \"valid\": " << (c.valid ? "true" : "false") << ",\n"
       << "    \"num_procs\": " << c.numProcs << ",\n"
       << "    \"per_node_ticks\": " << jsonNumber(c.perNodeTicks)
       << ",\n"
       << "    \"busy\": " << jsonNumber(c.busy) << ",\n"
       << "    \"stalls\": {";
    for (size_t i = 0; i < stall::numCauses; ++i) {
        os << (i ? ", " : "") << "\""
           << stall::causeName(static_cast<stall::Cause>(i))
           << "\": " << jsonNumber(c.stalls[i]);
    }
    os << "},\n"
       << "    \"dominant\": \""
       << (c.valid ? stall::causeName(c.dominantCause()) : "")
       << "\",\n"
       << "    \"dominant_share\": "
       << jsonNumber(c.valid ? c.dominantShare() : 0.0) << "\n"
       << "  },\n";

    os << "  \"critpath\": {\n"
       << "    \"runs\": "
       << (in.critpath ? in.critpath->numRuns() : 0) << ",\n"
       << "    \"txns\": "
       << (in.critpath ? in.critpath->numTxns() : 0) << ",\n"
       << "    \"summary\": \""
       << jsonEscape(in.critpath ? in.critpath->summaryLine()
                                 : std::string())
       << "\"\n  },\n";

    os << "  \"timeline\": {\n"
       << "    \"samples\": "
       << (in.timeline ? in.timeline->numSamples() : 0) << ",\n"
       << "    \"series\": "
       << (in.timeline ? in.timeline->numSeries() : 0) << ",\n"
       << "    \"hot\": \""
       << jsonEscape(in.timeline ? in.timeline->hotSummary()
                                 : std::string())
       << "\"\n  },\n";

    os << "  \"events\": {\n"
       << "    \"recorded\": "
       << (in.events ? in.events->recorded() : 0) << ",\n"
       << "    \"dropped\": "
       << (in.events ? in.events->dropped() : 0) << ",\n"
       << "    \"counts\": {";
    if (in.events) {
        bool first = true;
        for (const auto &[kind, n] : eventCounts(*in.events)) {
            os << (first ? "" : ", ") << "\"" << jsonEscape(kind)
               << "\": " << n;
            first = false;
        }
    }
    os << "},\n"
       << "    \"aborts\": [";
    // The newest abort lines verbatim: each already is a JSON
    // object, so they embed directly.
    if (in.events) {
        constexpr size_t maxAborts = 8;
        std::vector<const std::string *> aborts;
        for (size_t i = 0; i < in.events->size(); ++i) {
            const std::string &line = in.events->at(i);
            if (line.rfind("{\"ev\":\"abort\"", 0) == 0 ||
                line.rfind("{\"ev\":\"sw_abort\"", 0) == 0)
                aborts.push_back(&line);
        }
        size_t from =
            aborts.size() > maxAborts ? aborts.size() - maxAborts : 0;
        for (size_t i = from; i < aborts.size(); ++i)
            os << (i == from ? "" : ", ") << *aborts[i];
    }
    os << "]\n  }";
    if (!in.host.empty())
        os << ",\n  \"host\": " << in.host;
    os << "\n}\n";
    return os.str();
}

bool
writeReport(const ReportInputs &in, const std::string &path)
{
    std::ofstream os(path, std::ios::trunc);
    if (!os)
        return false;
    os << renderReport(in);
    return static_cast<bool>(os);
}

// --- parsing ----------------------------------------------------------

namespace
{

/**
 * Minimal recursive-descent JSON reader that flattens values into
 * RunReport's dotted-key maps. It validates only as much structure as
 * the differ needs; tests/support/json_checker.hh stays the
 * strict-syntax oracle in tests.
 */
struct Parser
{
    const char *p;
    const char *end;
    std::string err;

    bool
    fail(const std::string &what)
    {
        if (err.empty())
            err = what;
        return false;
    }

    void
    skipWs()
    {
        while (p < end && std::isspace(static_cast<unsigned char>(*p)))
            ++p;
    }

    bool
    expect(char c)
    {
        skipWs();
        if (p >= end || *p != c)
            return fail(std::string("expected '") + c + "'");
        ++p;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        skipWs();
        if (p >= end || *p != '"')
            return fail("expected string");
        ++p;
        out.clear();
        while (p < end && *p != '"') {
            if (*p == '\\') {
                ++p;
                if (p >= end)
                    return fail("bad escape");
                switch (*p) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'u':
                    // Reports only compare strings for equality, so
                    // the escape can stay verbatim.
                    if (end - p < 5)
                        return fail("bad \\u escape");
                    out += "\\u";
                    out.append(p + 1, 4);
                    p += 4;
                    break;
                  default: return fail("bad escape");
                }
                ++p;
            } else {
                out += *p++;
            }
        }
        if (p >= end)
            return fail("unterminated string");
        ++p;
        return true;
    }

    bool
    parseValue(const std::string &path, RunReport &out)
    {
        skipWs();
        if (p >= end)
            return fail("unexpected end of input");
        char c = *p;
        if (c == '{')
            return parseObject(path, out);
        if (c == '[')
            return parseArray(path, out);
        if (c == '"') {
            std::string s;
            if (!parseString(s))
                return false;
            out.strings[path] = s;
            return true;
        }
        if (end - p >= 4 && std::strncmp(p, "true", 4) == 0) {
            p += 4;
            out.numbers[path] = 1;
            return true;
        }
        if (end - p >= 5 && std::strncmp(p, "false", 5) == 0) {
            p += 5;
            out.numbers[path] = 0;
            return true;
        }
        if (end - p >= 4 && std::strncmp(p, "null", 4) == 0) {
            p += 4;
            return true; // nulls are skipped
        }
        char *numEnd = nullptr;
        double v = std::strtod(p, &numEnd);
        if (numEnd == p)
            return fail(
                "bad value at '" +
                std::string(p, std::min<size_t>(end - p, 16)) + "'");
        p = numEnd;
        out.numbers[path] = v;
        return true;
    }

    bool
    parseObject(const std::string &path, RunReport &out)
    {
        if (!expect('{'))
            return false;
        skipWs();
        if (p < end && *p == '}') {
            ++p;
            return true;
        }
        for (;;) {
            std::string key;
            if (!parseString(key))
                return false;
            if (!expect(':'))
                return false;
            if (!parseValue(path.empty() ? key : path + "." + key,
                            out))
                return false;
            skipWs();
            if (p < end && *p == ',') {
                ++p;
                continue;
            }
            return expect('}');
        }
    }

    bool
    parseArray(const std::string &path, RunReport &out)
    {
        if (!expect('['))
            return false;
        skipWs();
        if (p < end && *p == ']') {
            ++p;
            return true;
        }
        for (size_t i = 0;; ++i) {
            // A top-level array is a results file of records: only
            // its last one is kept, under unprefixed keys.
            if (path.empty()) {
                out.numbers.clear();
                out.strings.clear();
            }
            if (!parseValue(path.empty() ? path
                                         : path + "[" +
                                               std::to_string(i) + "]",
                            out))
                return false;
            skipWs();
            if (p < end && *p == ',') {
                ++p;
                continue;
            }
            return expect(']');
        }
    }
};

} // namespace

bool
parseReport(const std::string &json, RunReport &out, std::string &err)
{
    out.numbers.clear();
    out.strings.clear();
    Parser parser{json.data(), json.data() + json.size(), {}};
    if (!parser.parseValue("", out)) {
        err = parser.err;
        return false;
    }
    parser.skipWs();
    if (parser.p != parser.end) {
        err = "trailing content after JSON value";
        return false;
    }
    return true;
}

bool
loadReport(const std::string &path, RunReport &out, std::string &err)
{
    std::ifstream is(path);
    if (!is) {
        err = "cannot open " + path;
        return false;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    return parseReport(buf.str(), out, err);
}

// --- diffing ----------------------------------------------------------

int
keyDirection(const std::string &key)
{
    auto endsWith = [&](const char *s) {
        size_t n = std::strlen(s);
        return key.size() >= n &&
               key.compare(key.size() - n, n, s) == 0;
    };
    auto contains = [&](const char *s) {
        return key.find(s) != std::string::npos;
    };

    // Host figures depend on the machine that ran the bench.
    if (key.rfind("host.", 0) == 0)
        return 0;
    // "speedup" anywhere, not just as a suffix: the benches name
    // their headline metrics hw_speedup_mean_16p and the like.
    if (contains("speedup") || endsWith("ticks_per_sec") ||
        endsWith("events_per_sec"))
        return +1;
    if (key.rfind("cost.stalls.", 0) == 0)
        return -1;
    if (key.rfind("events.counts.", 0) == 0) {
        // More conflict/fault activity is worse; lifecycle counts
        // (run_begin, commit, ...) are workload-shaped, neutral.
        std::string kind = key.substr(std::strlen("events.counts."));
        if (kind == "abort" || kind == "sw_abort" ||
            kind == "fault" || kind == "degrade")
            return -1;
        return 0;
    }
    if (contains("violation") || contains("abort") ||
        contains("lost") || contains("retr") ||
        contains("infra_failed") || contains("failures") ||
        contains("mem_"))
        return -1;
    return 0;
}

DiffResult
diff(const RunReport &a, const RunReport &b, const DiffOptions &opt)
{
    DiffResult res;
    // "schema" carries no run information; the key set itself is the
    // schema check.
    auto skipped = [](const std::string &key) {
        return key == "schema";
    };

    std::set<std::string> keys;
    for (const auto &kv : a.numbers)
        keys.insert(kv.first);
    for (const auto &kv : b.numbers)
        keys.insert(kv.first);
    for (const auto &kv : a.strings)
        keys.insert(kv.first);
    for (const auto &kv : b.strings)
        keys.insert(kv.first);

    for (const std::string &key : keys) {
        if (skipped(key))
            continue;
        auto na = a.numbers.find(key);
        auto nb = b.numbers.find(key);
        auto sa = a.strings.find(key);
        auto sb = b.strings.find(key);
        bool inA = na != a.numbers.end() || sa != a.strings.end();
        bool inB = nb != b.numbers.end() || sb != b.strings.end();

        DiffRow row;
        row.key = key;
        if (na != a.numbers.end())
            row.a = na->second;
        if (nb != b.numbers.end())
            row.b = nb->second;
        if (sa != a.strings.end())
            row.sa = sa->second;
        if (sb != b.strings.end())
            row.sb = sb->second;

        if (!inA || !inB) {
            row.kind = inB ? DiffKind::Added : DiffKind::Removed;
            row.numeric = inB ? nb != b.numbers.end()
                              : na != a.numbers.end();
            res.rows.push_back(std::move(row));
            continue;
        }

        ++res.compared;
        if (na != a.numbers.end() && nb != b.numbers.end()) {
            double va = na->second, vb = nb->second;
            if (va == vb)
                continue;
            double denom = std::max(std::abs(va), std::abs(vb));
            if (denom > 0 &&
                std::abs(vb - va) / denom <= opt.tolerance)
                continue;
            int dir = keyDirection(key);
            if (dir == 0)
                row.kind = DiffKind::Changed;
            else if ((vb > va) == (dir > 0))
                row.kind = DiffKind::Improved;
            else
                row.kind = DiffKind::Regressed;
        } else if (sa != a.strings.end() && sb != b.strings.end()) {
            if (sa->second == sb->second)
                continue;
            row.numeric = false;
            row.kind = DiffKind::Changed;
        } else {
            // The key changed type between reports: surface it,
            // neutrally, as a string row.
            row.numeric = false;
            if (row.sa.empty())
                row.sa = jsonNumber(row.a);
            if (row.sb.empty())
                row.sb = jsonNumber(row.b);
            row.kind = DiffKind::Changed;
        }
        if (row.kind == DiffKind::Regressed)
            ++res.regressions;
        else if (row.kind == DiffKind::Improved)
            ++res.improvements;
        res.rows.push_back(std::move(row));
    }
    return res;
}

std::string
diffMarkdown(const DiffResult &d, const std::string &nameA,
             const std::string &nameB)
{
    std::ostringstream os;
    os << "### Run comparison: " << nameA << " vs " << nameB
       << "\n\n";
    if (d.identical()) {
        os << "No differences: " << d.compared
           << " keys compared, all equal.\n";
        return os.str();
    }

    // One table row per key: flatten newlines and pipes, clip long
    // string values.
    auto cell = [](const std::string &s) {
        std::string out;
        for (char c : s)
            out += (c == '\n' || c == '|') ? ' ' : c;
        if (out.size() > 48)
            out = out.substr(0, 45) + "...";
        return out;
    };

    os << "| key | " << nameA << " | " << nameB
       << " | delta | status |\n"
       << "|---|---:|---:|---:|---|\n";
    for (const DiffRow &row : d.rows) {
        bool onlyA = row.kind == DiffKind::Removed;
        bool onlyB = row.kind == DiffKind::Added;
        std::string va, vb, delta = "n/a";
        if (row.numeric) {
            va = onlyB ? "-" : tableNumber(row.a);
            vb = onlyA ? "-" : tableNumber(row.b);
            if (!onlyA && !onlyB && row.a != 0) {
                char buf[32];
                std::snprintf(buf, sizeof(buf), "%+.1f%%",
                              100.0 * (row.b - row.a) / row.a);
                delta = buf;
            }
        } else {
            auto code = [&](const std::string &s) {
                std::string o = "`";
                o += cell(s);
                o += "`";
                return o;
            };
            va = onlyB ? std::string("-") : code(row.sa);
            vb = onlyA ? std::string("-") : code(row.sb);
        }
        os << "| `" << row.key << "` | " << va << " | " << vb
           << " | " << delta << " | ";
        switch (row.kind) {
          case DiffKind::Regressed:
            os << ":x: regressed";
            break;
          case DiffKind::Improved:
            os << ":white_check_mark: improved";
            break;
          case DiffKind::Changed: os << "changed"; break;
          case DiffKind::Added: os << "added"; break;
          case DiffKind::Removed: os << "removed"; break;
        }
        os << " |\n";
    }
    os << "\n**" << d.compared << " keys compared, " << d.rows.size()
       << " difference(s), " << d.regressions << " regression(s), "
       << d.improvements << " improvement(s).**\n";
    return os.str();
}

} // namespace obs
} // namespace specrt

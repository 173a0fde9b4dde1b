/**
 * @file
 * The append-only writer every observability artifact is rendered
 * with: the trace JSON (sim/trace_export.hh), the timeline CSV
 * (sim/timeline.hh) and the critical-path JSON (sim/critpath.hh).
 *
 * Artifacts run to tens of megabytes, one small record at a time, so
 * the writer appends to one std::string reserved up front: integers
 * go through std::to_chars, strings are copied, and nothing builds a
 * temporary stream or string per record. The text rules are the
 * artifacts' own and fixed byte for byte:
 *
 *  - escaped(): the trace's label escaping -- `"` and `\` get a
 *    backslash, every other control byte becomes \u00XX (so a
 *    newline is \u000a);
 *  - quoted(): the critical-path JSON strings -- quotes added, `\n`
 *    and `\t` short escapes, other control bytes as \u00XX;
 *  - g(): printf "%g", what an ostream prints for a double by
 *    default (the trace's counter-track values);
 *  - num(): an integral value within +-9e15 as an integer, anything
 *    else as "%.17g" (timeline cells, critical-path numbers).
 *
 * The doubles go through std::to_chars with chars_format::general,
 * which the standard defines to match printf's %.*g.
 */

#ifndef SPECRT_SIM_ARTIFACT_WRITER_HH
#define SPECRT_SIM_ARTIFACT_WRITER_HH

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace specrt
{

class ArtifactWriter
{
  public:
    /** Start empty with room for @p reserve_bytes. */
    explicit ArtifactWriter(size_t reserve_bytes = 0)
    {
        buf.reserve(reserve_bytes);
    }

    ArtifactWriter &
    operator<<(std::string_view s)
    {
        buf.append(s);
        return *this;
    }

    ArtifactWriter &
    operator<<(char c)
    {
        buf.push_back(c);
        return *this;
    }

    /** Decimal integer (NodeId, Tick, counts...). */
    template <std::integral T>
        requires(!std::same_as<T, char> && !std::same_as<T, bool>)
    ArtifactWriter &
    operator<<(T v)
    {
        char tmp[24];
        return put(tmp, std::to_chars(tmp, tmp + sizeof(tmp), v).ptr);
    }

    /** A double has two renderings here; say which (g() or num()). */
    ArtifactWriter &operator<<(double) = delete;

    /** Lower-case hex without a prefix. */
    ArtifactWriter &
    hex(uint64_t v)
    {
        char tmp[16];
        return put(tmp, std::to_chars(tmp, tmp + sizeof(tmp), v, 16).ptr);
    }

    /** @p s under the trace's escaping rule; null writes nothing. */
    ArtifactWriter &escaped(const char *s);

    /** @p s as a quoted JSON string (critical-path rule). */
    ArtifactWriter &quoted(std::string_view s);

    /** printf "%g" (an ostream's default double format). */
    ArtifactWriter &g(double v);

    /** Integral (|v| <= 9e15) as an integer, else "%.17g". */
    ArtifactWriter &num(double v);

    size_t size() const { return buf.size(); }
    std::string_view view() const { return buf; }

    /** The rendered bytes; the writer is left empty. */
    std::string take() { return std::exchange(buf, std::string()); }

  private:
    /** Append [first, last) (by length: the iterator-pair append
     *  trips a -Wrestrict false positive in GCC 12 at -O3). */
    ArtifactWriter &
    put(const char *first, const char *last)
    {
        buf.append(first, static_cast<size_t>(last - first));
        return *this;
    }

    ArtifactWriter &general(double v, int precision);

    std::string buf;
};

} // namespace specrt

#endif // SPECRT_SIM_ARTIFACT_WRITER_HH

#include "sim/artifact_writer.hh"

#include <cmath>

namespace specrt
{

namespace
{

/** "\u00XX" for a control byte. */
void
controlEscape(std::string &out, unsigned char c)
{
    static constexpr char digits[] = "0123456789abcdef";
    char e[6] = {'\\', 'u', '0', '0', digits[c >> 4], digits[c & 15]};
    out.append(e, sizeof(e));
}

} // namespace

ArtifactWriter &
ArtifactWriter::escaped(const char *s)
{
    if (!s)
        return *this;
    // Copy runs of plain bytes in one append each.
    const char *run = s;
    for (; *s; ++s) {
        char c = *s;
        if (c != '"' && c != '\\' &&
            static_cast<unsigned char>(c) >= 0x20)
            continue;
        put(run, s);
        if (c == '"' || c == '\\') {
            buf.push_back('\\');
            buf.push_back(c);
        } else {
            controlEscape(buf, static_cast<unsigned char>(c));
        }
        run = s + 1;
    }
    return put(run, s);
}

ArtifactWriter &
ArtifactWriter::quoted(std::string_view s)
{
    buf.push_back('"');
    for (char c : s) {
        switch (c) {
          case '"':  buf += "\\\""; break;
          case '\\': buf += "\\\\"; break;
          case '\n': buf += "\\n"; break;
          case '\t': buf += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                controlEscape(buf, static_cast<unsigned char>(c));
            else
                buf.push_back(c);
        }
    }
    buf.push_back('"');
    return *this;
}

ArtifactWriter &
ArtifactWriter::g(double v)
{
    // Integers below 1e6 print as themselves under %g; -0 keeps its
    // sign there, so it takes the general path.
    if (v > -1e6 && v < 1e6 &&
        v == static_cast<double>(static_cast<int64_t>(v)) &&
        !(v == 0 && std::signbit(v)))
        return *this << static_cast<int64_t>(v);
    return general(v, 6);
}

ArtifactWriter &
ArtifactWriter::num(double v)
{
    if (v >= -9.0e15 && v <= 9.0e15 &&
        v == static_cast<double>(static_cast<int64_t>(v)))
        return *this << static_cast<int64_t>(v);
    return general(v, 17);
}

ArtifactWriter &
ArtifactWriter::general(double v, int precision)
{
    char tmp[32];
    return put(tmp, std::to_chars(tmp, tmp + sizeof(tmp), v,
                                  std::chars_format::general, precision)
                        .ptr);
}

} // namespace specrt

/**
 * @file
 * JSON string escaping for the hand-written JSON the project emits.
 */

#ifndef VRC_BASE_JSON_ESCAPE_HH
#define VRC_BASE_JSON_ESCAPE_HH

#include <string>

namespace vrc
{

/**
 * Escape a string for embedding in a JSON document. Control
 * characters without a short escape become \u00XX, so nothing is lost.
 */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                static const char hex[] = "0123456789abcdef";
                out += "\\u00";
                out += hex[(c >> 4) & 0xf];
                out += hex[c & 0xf];
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace vrc

#endif // VRC_BASE_JSON_ESCAPE_HH

/**
 * @file
 * Plain-text table formatting for experiment output.
 *
 * The artifact registry (sim/artifacts.hh) prints tables shaped like
 * the paper's; this helper keeps column widths aligned and supports
 * numeric cells with fixed precision.
 */

#ifndef VRC_BASE_TABLE_HH
#define VRC_BASE_TABLE_HH

#include <cstdint>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

namespace vrc
{

/** A simple left/right-aligned text table. */
class TextTable
{
  public:
    /** Start a new row; subsequent cell() calls append to it. */
    TextTable &
    row()
    {
        _rows.emplace_back();
        return *this;
    }

    /** Append a string cell to the current row. */
    TextTable &
    cell(std::string text)
    {
        if (_rows.empty())
            row();
        _rows.back().push_back(std::move(text));
        return *this;
    }

    /** Append an integral cell. */
    TextTable &
    cell(std::uint64_t v)
    {
        return cell(std::to_string(v));
    }

    TextTable &
    cell(std::uint32_t v)
    {
        return cell(std::to_string(v));
    }

    TextTable &
    cell(int v)
    {
        return cell(std::to_string(v));
    }

    /** Append a floating-point cell with fixed precision. */
    TextTable &
    cell(double v, int precision = 3)
    {
        std::ostringstream os;
        os << std::fixed << std::setprecision(precision) << v;
        return cell(os.str());
    }

    /** Append a horizontal separator row. */
    TextTable &
    separator()
    {
        _rows.emplace_back();
        _rows.back().push_back(separatorMark());
        return *this;
    }

    /** Render to a stream with aligned columns. */
    void
    print(std::ostream &os) const
    {
        std::vector<std::size_t> widths;
        for (const auto &r : _rows) {
            if (isSeparator(r))
                continue;
            for (std::size_t c = 0; c < r.size(); ++c) {
                if (c >= widths.size())
                    widths.push_back(0);
                widths[c] = std::max(widths[c], r[c].size());
            }
        }
        std::size_t total = 0;
        for (std::size_t w : widths)
            total += w + 3;
        for (const auto &r : _rows) {
            if (isSeparator(r)) {
                os << std::string(total, '-') << '\n';
                continue;
            }
            for (std::size_t c = 0; c < r.size(); ++c) {
                os << std::setw(static_cast<int>(widths[c])) << r[c];
                if (c + 1 < r.size())
                    os << " | ";
            }
            os << '\n';
        }
    }

    std::string
    str() const
    {
        std::ostringstream os;
        print(os);
        return os.str();
    }

  private:
    static std::string separatorMark() { return "\x01sep"; }

    static bool
    isSeparator(const std::vector<std::string> &r)
    {
        return r.size() == 1 && r[0] == separatorMark();
    }

    std::vector<std::vector<std::string>> _rows;
};

inline std::ostream &
operator<<(std::ostream &os, const TextTable &t)
{
    t.print(os);
    return os;
}

} // namespace vrc

#endif // VRC_BASE_TABLE_HH

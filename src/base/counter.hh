/**
 * @file
 * Fixed counter tables.
 *
 * A component's statistics are one compile-time table: a list of
 * X(enumerator, name, shown by) rows that VRC_STAT_TABLE turns into an
 * enum class of counters and the rows naming them in reports. The
 * counters live in a fixed array inside the owner, whose hot paths
 * increment `_n[Stat::Misses]` directly; the name-keyed value() and
 * all() serve reports, JSON and tests only.
 */

#ifndef VRC_BASE_COUNTER_HH
#define VRC_BASE_COUNTER_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string_view>
#include <utility>
#include <vector>

namespace vrc
{

/** One row of a counter table. */
template <typename S>
struct StatRow
{
    S stat;
    std::string_view name; ///< the report and JSON key
    /**
     * The owner kinds (a bit mask the table defines) that show the
     * counter from construction on. 0: shown from its first
     * StatGroup::show() on, so a run that never reaches it reports
     * exactly what it would without the counter.
     */
    std::uint32_t shownBy;
};

/**
 * True when row i names enumerator i and the names strictly increase
 * in byte order.
 */
template <typename S, std::size_t N>
constexpr bool
statRowsInOrder(const StatRow<S> (&rows)[N])
{
    for (std::size_t i = 0; i < N; ++i) {
        if (static_cast<std::size_t>(rows[i].stat) != i)
            return false;
        if (i > 0 && !(rows[i - 1].name < rows[i].name))
            return false;
    }
    return true;
}

#define VRC_STAT_ENUMERATOR(stat, name, shown_by) stat,
#define VRC_STAT_ROW(stat, name, shown_by) {Stat::stat, name, shown_by},

/**
 * Declare a table's `Stat` enum and its `rows` from the X-macro row
 * list @p LIST, inside the table's struct (which defines the kinds the
 * rows' third column names).
 */
#define VRC_STAT_TABLE(LIST)                                           \
    enum class Stat : std::uint8_t { LIST(VRC_STAT_ENUMERATOR) Count }; \
    static constexpr StatRow<Stat> rows[] = {LIST(VRC_STAT_ROW)};

/**
 * The counters of one component, laid out by @p Table, a struct holding
 * a VRC_STAT_TABLE whose rows run in strictly increasing name byte
 * order (the order reports list them, as a `std::map<std::string, ...>`
 * would).
 */
template <typename Table>
class StatGroup
{
  public:
    using Stat = typename Table::Stat;
    static constexpr std::size_t size = std::size(Table::rows);

    /** Show every counter whose row names one of @p kinds. */
    explicit StatGroup(std::uint32_t kinds)
    {
        for (std::size_t i = 0; i < size; ++i) {
            if (Table::rows[i].shownBy & kinds)
                _shown |= bit(i);
        }
    }

    std::uint64_t &operator[](Stat s) { return _n[index(s)]; }
    std::uint64_t operator[](Stat s) const { return _n[index(s)]; }

    /**
     * Show @p s from now on (across reset() too) and return its slot:
     * `++_n.show(Stat::SoftMasked)` increments a lazily shown counter.
     */
    std::uint64_t &
    show(Stat s)
    {
        _shown |= bit(index(s));
        return _n[index(s)];
    }

    /** The counter named @p name; 0 for a name the table lacks. */
    std::uint64_t
    value(std::string_view name) const
    {
        const auto *row = std::ranges::lower_bound(
            Table::rows, name, {}, &StatRow<Stat>::name);
        return row != std::end(Table::rows) && row->name == name
            ? _n[index(row->stat)]
            : 0;
    }

    /** The shown counters as (name, value), in name order. */
    std::vector<std::pair<std::string_view, std::uint64_t>>
    all() const
    {
        std::vector<std::pair<std::string_view, std::uint64_t>> out;
        for (std::size_t i = 0; i < size; ++i) {
            if (_shown & bit(i))
                out.emplace_back(Table::rows[i].name, _n[i]);
        }
        return out;
    }

    /** Zero every counter; what is shown stays shown. */
    void reset() { _n.fill(0); }

  private:
    static_assert(size == static_cast<std::size_t>(Stat::Count),
                  "a counter table needs one row per counter");
    static_assert(size <= 64, "the shown set is one 64-bit mask");
    static_assert(statRowsInOrder(Table::rows),
                  "counter rows must follow their enumerators, in "
                  "strictly increasing name byte order");

    static constexpr std::size_t
    index(Stat s)
    {
        return static_cast<std::size_t>(s);
    }

    static constexpr std::uint64_t
    bit(std::size_t i)
    {
        return std::uint64_t{1} << i;
    }

    std::array<std::uint64_t, size> _n{};
    std::uint64_t _shown = 0; ///< bit i: all() lists row i
};

} // namespace vrc

#endif // VRC_BASE_COUNTER_HH

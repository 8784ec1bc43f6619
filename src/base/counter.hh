/**
 * @file
 * Named statistics counters.
 *
 * A tiny stats package: modules register named counters in a StatGroup;
 * experiments snapshot or print them. Far simpler than gem5's stats but
 * the same shape: stats live with the module that increments them.
 */

#ifndef VRC_BASE_COUNTER_HH
#define VRC_BASE_COUNTER_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace vrc
{

/** A monotonically increasing event counter. */
class Counter
{
  public:
    Counter() = default;

    void operator++() { ++_value; }
    void operator++(int) { ++_value; }
    void operator+=(std::uint64_t n) { _value += n; }

    std::uint64_t value() const { return _value; }
    void reset() { _value = 0; }

  private:
    std::uint64_t _value = 0;
};

/**
 * A map of named counters. Modules own one, register counters up front,
 * and the simulator aggregates groups for reporting.
 *
 * Registered-handle contract: counter() returns a reference that stays
 * valid for the lifetime of the group. Hot-path code must resolve its
 * handles once at construction and increment through them;
 * string-keyed lookups are for registration and reporting only.
 *
 * Storage is split for locality: the Counter payloads live packed in a
 * deque (stable addresses, a whole group's counters typically within
 * one chunk, so per-reference increments touch one or two cache lines
 * instead of a node per counter), while the names sit in a parallel
 * vector used only by registration and reporting. A group holds a few
 * dozen counters, so a scan registers one with no node per name.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : _name(std::move(name)) {}

    // Handles point into _slots; copying would silently dangle them.
    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;
    StatGroup(StatGroup &&) = default;
    StatGroup &operator=(StatGroup &&) = default;

    /** Fetch (creating on first use) the counter called @p key. */
    Counter &
    counter(std::string_view key)
    {
        const std::size_t i = indexOf(key);
        if (i < _keys.size())
            return _slots[i];
        _keys.emplace_back(key);
        return _slots.emplace_back();
    }

    /**
     * Register @p key and return its stable handle. Identical to
     * counter(); the distinct name marks construction-time resolution
     * for per-event increments (never call this inside a hot loop).
     */
    Counter &
    handle(std::string_view key)
    {
        return counter(key);
    }

    /** Read-only lookup; returns 0 for unknown keys. */
    std::uint64_t
    value(std::string_view key) const
    {
        const std::size_t i = indexOf(key);
        return i < _keys.size() ? _slots[i].value() : 0;
    }

    const std::string &name() const { return _name; }

    /** Name-sorted snapshot of every counter (reporting only). */
    std::map<std::string, Counter>
    all() const
    {
        std::map<std::string, Counter> out;
        for (std::size_t i = 0; i < _keys.size(); ++i)
            out.emplace(_keys[i], _slots[i]);
        return out;
    }

    /** Zero every counter in the group. */
    void
    reset()
    {
        for (Counter &ctr : _slots)
            ctr.reset();
    }

    void
    print(std::ostream &os) const
    {
        for (const auto &[key, ctr] : all())
            os << _name << "." << key << " = " << ctr.value() << '\n';
    }

  private:
    std::size_t
    indexOf(std::string_view key) const
    {
        return std::find(_keys.begin(), _keys.end(), key) - _keys.begin();
    }

    std::string _name;
    std::deque<Counter> _slots;
    std::vector<std::string> _keys; ///< _slots[i] is named _keys[i]
};

} // namespace vrc

#endif // VRC_BASE_COUNTER_HH

/**
 * @file
 * Protocol event ring buffer.
 *
 * The coherence oracle records every hierarchy event and every bus
 * transaction it observes into a fixed-capacity ring. When a violation
 * fires, the last N events are dumped as JSON -- the protocol history
 * leading up to the bug, which is usually all a human needs to localize
 * it. The ring is bounded so recording costs O(1) per event and fuzz
 * runs of millions of transactions stay cheap.
 */

#ifndef VRC_CHECK_EVENT_RING_HH
#define VRC_CHECK_EVENT_RING_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "base/json_escape.hh"
#include "base/types.hh"
#include "coherence/transaction.hh"
#include "core/events.hh"

namespace vrc
{

/** One recorded protocol event (hierarchy-, bus-, or oracle-origin). */
struct ProtocolEvent
{
    /** Which component produced the event. */
    enum class Origin : std::uint8_t
    {
        Hierarchy, ///< an EventObserver callback (fill/evict/move/...)
        Bus,       ///< a completed bus broadcast
        Oracle     ///< an oracle annotation (e.g. the violation itself)
    };

    std::uint64_t seq = 0; ///< global order stamp (assigned by the ring)
    Origin origin = Origin::Hierarchy;

    // Hierarchy-origin fields.
    EventKind kind = EventKind::L1Hit;
    CpuId cpu = invalidCpu;
    std::uint64_t refIndex = 0;
    std::uint32_t vaddr = 0;
    std::uint32_t paddr = 0;

    // Bus-origin fields.
    BusOp op = BusOp::ReadMiss;
    bool shared = false;
    bool supplied = false;

    /** Free-form text (oracle annotations). */
    std::string note;

    static ProtocolEvent
    fromHierarchy(const HierarchyEvent &ev)
    {
        ProtocolEvent e;
        e.origin = Origin::Hierarchy;
        e.kind = ev.kind;
        e.cpu = ev.cpu;
        e.refIndex = ev.refIndex;
        e.vaddr = ev.vaddr;
        e.paddr = ev.paddr;
        return e;
    }

    static ProtocolEvent
    fromBus(const BusTransaction &tx, const BusResult &res)
    {
        ProtocolEvent e;
        e.origin = Origin::Bus;
        e.cpu = tx.source;
        e.paddr = tx.blockAddr.value();
        e.op = tx.op;
        e.shared = res.shared;
        e.supplied = res.suppliedByCache;
        return e;
    }

    static ProtocolEvent
    annotation(std::string text)
    {
        ProtocolEvent e;
        e.origin = Origin::Oracle;
        e.note = std::move(text);
        return e;
    }
};

/** Printable origin name. */
inline const char *
protocolOriginName(ProtocolEvent::Origin o)
{
    switch (o) {
      case ProtocolEvent::Origin::Hierarchy:
        return "hierarchy";
      case ProtocolEvent::Origin::Bus:
        return "bus";
      case ProtocolEvent::Origin::Oracle:
        return "oracle";
    }
    return "?";
}

/** Fixed-capacity ring of the most recent protocol events. */
class ProtocolEventRing
{
  public:
    explicit ProtocolEventRing(std::size_t capacity)
        : _capacity(capacity ? capacity : 1)
    {
        _events.reserve(_capacity);
    }

    /** Append an event, overwriting the oldest once full. */
    void
    push(ProtocolEvent ev)
    {
        ev.seq = _next++;
        if (_events.size() < _capacity) {
            _events.push_back(std::move(ev));
        } else {
            _events[_head] = std::move(ev);
            _head = (_head + 1) % _capacity;
        }
    }

    std::size_t size() const { return _events.size(); }
    std::size_t capacity() const { return _capacity; }

    /** Events ever pushed (>= size() once the ring wraps). */
    std::uint64_t totalPushed() const { return _next; }

    void
    clear()
    {
        _events.clear();
        _head = 0;
    }

    /** Visit the retained events, oldest first. */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (std::size_t i = 0; i < _events.size(); ++i)
            fn(_events[(_head + i) % _events.size()]);
    }

    /** Dump the retained events as a JSON array. */
    void
    dumpJson(std::ostream &os) const
    {
        os << "[";
        bool first = true;
        forEach([&](const ProtocolEvent &e) {
            os << (first ? "" : ",") << "\n  {\"seq\": " << e.seq
               << ", \"origin\": \"" << protocolOriginName(e.origin)
               << "\"";
            switch (e.origin) {
              case ProtocolEvent::Origin::Hierarchy:
                os << ", \"kind\": \"" << eventKindName(e.kind)
                   << "\", \"cpu\": " << e.cpu
                   << ", \"ref\": " << e.refIndex
                   << ", \"vaddr\": " << e.vaddr
                   << ", \"paddr\": " << e.paddr;
                break;
              case ProtocolEvent::Origin::Bus:
                os << ", \"op\": \"" << busOpName(e.op)
                   << "\", \"source\": " << e.cpu
                   << ", \"addr\": " << e.paddr
                   << ", \"shared\": " << (e.shared ? "true" : "false")
                   << ", \"supplied\": "
                   << (e.supplied ? "true" : "false");
                break;
              case ProtocolEvent::Origin::Oracle:
                os << ", \"note\": \"" << jsonEscape(e.note) << "\"";
                break;
            }
            os << "}";
            first = false;
        });
        os << "\n]";
    }

  private:
    std::size_t _capacity;
    std::vector<ProtocolEvent> _events;
    std::size_t _head = 0;
    std::uint64_t _next = 0;
};

} // namespace vrc

#endif // VRC_CHECK_EVENT_RING_HH

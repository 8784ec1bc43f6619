/**
 * @file
 * In-memory spans for the traced benchmark run.
 *
 * A span records one call the benchmark makes into a simulator module:
 * name, module ("layer"), start, end, the span that caused it and the
 * run it belongs to. Spans stay in memory until the run ends; then they
 * are written as Chrome trace-event JSON (opens in Perfetto or
 * chrome://tracing) and folded into a per-layer self-time table. Spans
 * live only in the benchmark's own files: the simulator is timed from
 * the outside.
 *
 * A disabled tracer records nothing, so the untraced run pays one
 * branch per span site.
 */

#ifndef VRCBENCH_TRACER_HH
#define VRCBENCH_TRACER_HH

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "report.hh"

namespace vrcbench
{

/** One finished span; times in microseconds since the tracer's epoch. */
struct Span
{
    std::string name;
    std::string layer;
    double startUs = 0.0;
    double endUs = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::uint64_t run = 0;
    std::size_t thread = 0;
};

class Tracer
{
  public:
    Tracer(bool enabled, std::uint64_t run)
        : _enabled(enabled), _run(run), _epoch(Clock::now())
    {
    }

    bool enabled() const { return _enabled; }

    /**
     * A span open for the lifetime of this object. @p parent names the
     * causing span explicitly, so work handed to another thread (a
     * campaign cell on a worker) still hangs off its dispatcher.
     */
    class Scope
    {
      public:
        Scope(Tracer &t, std::string layer, std::string name,
              std::uint64_t parent = 0)
            : _t(t)
        {
            if (!_t._enabled)
                return;
            _span.layer = std::move(layer);
            _span.name = std::move(name);
            _span.parent = parent;
            _span.id = _t.nextId();
            _span.startUs = _t.nowUs();
        }

        ~Scope()
        {
            if (_t._enabled) {
                _span.endUs = _t.nowUs();
                _t.record(std::move(_span));
            }
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        std::uint64_t id() const { return _span.id; }

      private:
        Tracer &_t;
        Span _span;
    };

    /** Finished spans so far (copy; callers fold it after the run). */
    std::vector<Span>
    spans() const
    {
        std::lock_guard<std::mutex> g(_mu);
        return _spans;
    }

    /** Summed duration of every span called @p name, in seconds. */
    double
    totalSeconds(const std::string &name) const
    {
        double us = 0.0;
        for (const Span &s : spans())
            if (s.name == name)
                us += s.endUs - s.startUs;
        return us * 1e-6;
    }

    /** Durations of every span called @p name, in seconds. */
    std::vector<double>
    durations(const std::string &name) const
    {
        std::vector<double> out;
        for (const Span &s : spans())
            if (s.name == name)
                out.push_back((s.endUs - s.startUs) * 1e-6);
        return out;
    }

    /**
     * Self time per layer in seconds: each span's duration minus the
     * part of it its children cover (children may overlap each other
     * when they ran on several workers, so their union is taken).
     */
    std::map<std::string, double>
    selfSecondsByLayer() const
    {
        std::vector<Span> all = spans();
        std::map<std::uint64_t, std::vector<std::pair<double, double>>>
            kids;
        for (const Span &s : all)
            if (s.parent)
                kids[s.parent].emplace_back(s.startUs, s.endUs);
        std::map<std::string, double> self;
        for (const Span &s : all) {
            double covered = 0.0;
            auto it = kids.find(s.id);
            if (it != kids.end()) {
                auto iv = it->second;
                std::sort(iv.begin(), iv.end());
                double lo = s.startUs, hi = s.startUs;
                for (auto [a, b] : iv) {
                    a = std::clamp(a, s.startUs, s.endUs);
                    b = std::clamp(b, s.startUs, s.endUs);
                    if (a > hi) {
                        covered += hi - lo;
                        lo = a;
                    }
                    hi = std::max(hi, b);
                }
                covered += hi - lo;
            }
            self[s.layer] += (s.endUs - s.startUs - covered) * 1e-6;
        }
        return self;
    }

    /** Write every span as Chrome trace-event JSON. @return success. */
    bool
    writeChromeTrace(const std::string &path) const
    {
        std::ofstream out(path, std::ios::trunc);
        if (!out)
            return false;
        out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
        bool first = true;
        for (const Span &s : spans()) {
            out << (first ? "\n" : ",\n") << "{\"name\": \"" << s.name
                << "\", \"cat\": \"" << s.layer
                << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
                << ", \"ts\": " << exactNumber(s.startUs)
                << ", \"dur\": " << exactNumber(s.endUs - s.startUs)
                << ", \"args\": {\"id\": " << s.id
                << ", \"parent\": " << s.parent << ", \"run\": " << s.run
                << "}}";
            first = false;
        }
        out << "\n]}\n";
        return static_cast<bool>(out);
    }

  private:
    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         _epoch)
            .count();
    }

    std::uint64_t
    nextId()
    {
        std::lock_guard<std::mutex> g(_mu);
        return ++_lastId;
    }

    void
    record(Span s)
    {
        s.run = _run;
        s.thread = std::hash<std::thread::id>{}(std::this_thread::get_id()) %
            100000;
        std::lock_guard<std::mutex> g(_mu);
        _spans.push_back(std::move(s));
    }

    const bool _enabled;
    const std::uint64_t _run;
    const Clock::time_point _epoch;
    mutable std::mutex _mu; ///< guards _spans and _lastId
    std::vector<Span> _spans;
    std::uint64_t _lastId = 0;
};

} // namespace vrcbench

#endif // VRCBENCH_TRACER_HH

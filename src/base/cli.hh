/**
 * @file
 * Checked command-line flags for the tools: each tool declares its
 * flags as one table of Flag rows, and parse() rejects a bad argument
 * with "<tool>: bad value for --flag: '<v>'", the usage text and exit
 * 2. Integers read as strtoull(..., 0) reads them (decimal, 0x hex,
 * leading-0 octal), but whole: no sign, no whitespace, no overflow.
 */

#ifndef VRC_BASE_CLI_HH
#define VRC_BASE_CLI_HH

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/error.hh"

namespace vrc::cli
{

/** Cap on every flag that sets a number of threads. */
inline constexpr unsigned kMaxThreads = 256;

/** The rejecting tool: its message prefix and usage printer, if any. */
struct Tool
{
    const char *name;
    void (*usage)();
};

/** Print "<tool>: <what>" and the usage text, then exit 2. */
[[noreturn]] inline void
reject(const Tool &tool, const std::string &what)
{
    std::cerr << tool.name << ": " << what << "\n";
    if (tool.usage)
        tool.usage();
    std::exit(2);
}

/** Reject a failed configuration check; its context names the flag. */
inline void
check(const Tool &tool, const Status &checked)
{
    if (checked)
        return;
    const Error &e = checked.error();
    reject(tool, e.context.empty()
                     ? e.message
                     : "bad value for " + e.context + ": " + e.message);
}

/** Read @p v as a number in [lo, hi] into @p out. */
template <typename T>
    requires std::is_arithmetic_v<T> && (!std::is_same_v<T, bool>)
Status
readNumber(const std::string &v, T &out, T lo = 0,
           T hi = std::numeric_limits<T>::max())
{
    char *end = nullptr;
    errno = 0;
    T n{};
    if constexpr (std::is_floating_point_v<T>) {
        if (!v.empty() && !std::isspace(static_cast<unsigned char>(v[0])))
            n = std::strtod(v.c_str(), &end);
    } else if (std::isdigit(static_cast<unsigned char>(v.c_str()[0]))) {
        unsigned long long u = std::strtoull(v.c_str(), &end, 0);
        if (std::cmp_greater(u, hi))
            end = nullptr;
        n = static_cast<T>(u);
    }
    // `!(n >= lo)` also refuses a NaN.
    if (!end || *end != '\0' || errno == ERANGE || !(n >= lo) || n > hi)
        return makeError(ErrorKind::Bounds, "a number from ", +lo, " to ",
                         +hi);
    out = n;
    return okStatus();
}

/** For a Reader: accept the value when @p valid, else reject it. */
inline Status
accept(bool valid)
{
    return valid ? okStatus() : Status(makeError(ErrorKind::Parse, ""));
}

/** For a Reader: store @p v's value in @p out; none rejects it. */
template <typename T, typename U>
Status
store(T &out, std::optional<U> v)
{
    if (v)
        out = std::move(*v);
    return accept(v.has_value());
}

/** For a Reader: store @p v's value in @p out, or pass on its error. */
template <typename T, typename U>
Status
store(T &out, Result<U> v)
{
    if (!v)
        return v.error();
    out = v.take();
    return okStatus();
}

/** One row of a tool's flag table. */
struct Flag
{
    /** Reads a flag's value; an error rejects it. */
    using Reader = std::function<Status(const std::string &)>;

    /** `--name=<value>`, handed to @p r. */
    Flag(std::string n, Reader r) : name(std::move(n)), read(std::move(r))
    {
    }

    /** `--name=<text>`. */
    Flag(std::string n, std::string &out)
        : Flag(std::move(n), [&out](const std::string &v) {
              out = v;
              return okStatus();
          })
    {
    }

    /** `--name=<n>`, a number in [lo, hi]. */
    template <typename T>
        requires std::is_arithmetic_v<T> && (!std::is_same_v<T, bool>)
    Flag(std::string n, T &out, T lo = 0,
         T hi = std::numeric_limits<T>::max())
        : Flag(std::move(n), [&out, lo, hi](const std::string &v) {
              return readNumber(v, out, lo, hi);
          })
    {
    }

    /** `--name`, a switch that runs @p act. */
    Flag(std::string n, std::function<void()> act)
        : name(std::move(n)), isSwitch(true),
          read([act = std::move(act)](const std::string &) {
              act();
              return okStatus();
          })
    {
    }

    /** `--name`, a switch that sets @p out. */
    Flag(std::string n, bool &out)
        : Flag(std::move(n), [&out] { out = true; })
    {
    }

    std::string name;
    bool isSwitch = false;
    Reader read;
};

/**
 * Apply argv[1..argc) to @p flags in order, so the last of a repeated
 * flag wins. An argument not starting with '-' is appended to
 * @p positionals, or rejected when that is null.
 */
inline void
parse(const Tool &tool, int argc, char **argv,
      std::initializer_list<Flag> flags,
      std::vector<std::string> *positionals = nullptr)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.empty() || arg[0] != '-') {
            if (!positionals)
                reject(tool, "unexpected argument: '" + arg + "'");
            positionals->push_back(arg);
            continue;
        }
        const std::size_t eq = arg.find('=');
        const std::string name = arg.substr(0, eq);
        const std::string value = eq == arg.npos ? "" : arg.substr(eq + 1);
        const Flag *flag = nullptr;
        for (const Flag &f : flags)
            if (f.name == name)
                flag = &f;
        if (!flag)
            reject(tool, "unknown flag: '" + arg + "'");
        const std::string bad = "bad value for " + name + ": '" + value + "'";
        if (flag->isSwitch != (eq == arg.npos) ||
            (!flag->isSwitch && value.empty()))
            reject(tool, bad);
        if (Status read = flag->read(value); !read) {
            const std::string &why = read.error().message;
            reject(tool, why.empty() ? bad : bad + " (" + why + ")");
        }
    }
}

} // namespace vrc::cli

#endif // VRC_BASE_CLI_HH

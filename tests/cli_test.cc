/**
 * @file
 * Unit tests for the tools' checked flag parser (base/cli.hh), driven
 * in-process with a local flag table. Thread-count bounds are tested
 * only here: a tool that lost its bound would start that many threads.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "base/cli.hh"

namespace vrc
{
namespace
{

[[noreturn]] void
testUsage()
{
    std::cerr << "usage: cli_test [flags]\n";
    std::exit(2);
}

/** Every destination type, as a tool's main() would declare them. */
struct Dests
{
    std::string name;
    bool split = false;
    int actions = 0;
    std::uint32_t n32 = 7;
    std::uint64_t n64 = 0;
    unsigned workers = 2;
    unsigned clients = 4;
    int port = -1;
    double scale = 1.0;
    std::string org;
    std::vector<std::string> inputs;
};

/** Parse @p args (argv[0] is added) into a fresh Dests. */
Dests
parseArgs(std::vector<std::string> args, bool positionals = false)
{
    args.insert(args.begin(), "cli_test");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    Dests d;
    cli::parse({"cli_test", testUsage}, static_cast<int>(argv.size()),
               argv.data(),
               {
                   {"--name", d.name},
                   {"--split", d.split},
                   {"--act", [&d] { ++d.actions; }},
                   {"--n", d.n32},
                   {"--n64", d.n64},
                   {"--workers", d.workers, 0u, cli::kMaxThreads},
                   {"--clients", d.clients, 1u, cli::kMaxThreads},
                   {"--port", d.port, 0, 65535},
                   {"--scale", d.scale, 1e-6, 1e6},
                   {"--org",
                    [&d](const std::string &v) {
                        d.org = v;
                        return cli::accept(v == "vr" || v == "rr");
                    }},
               },
               positionals ? &d.inputs : nullptr);
    return d;
}

TEST(CliTest, ValidArgvFillsEveryDestination)
{
    Dests d = parseArgs({"--name=pops", "--split", "--act", "--act",
                         "--n=4096", "--n64=18446744073709551615",
                         "--workers=256", "--clients=1", "--port=0",
                         "--scale=0.002", "--org=rr", "a.ckpt",
                         "b.ckpt"},
                        true);
    EXPECT_EQ(d.name, "pops");
    EXPECT_TRUE(d.split);
    EXPECT_EQ(d.actions, 2);
    EXPECT_EQ(d.n32, 4096u);
    EXPECT_EQ(d.n64, UINT64_MAX);
    EXPECT_EQ(d.workers, 256u);
    EXPECT_EQ(d.clients, 1u);
    EXPECT_EQ(d.port, 0);
    EXPECT_EQ(d.scale, 0.002);
    EXPECT_EQ(d.org, "rr");
    EXPECT_EQ(d.inputs, (std::vector<std::string>{"a.ckpt", "b.ckpt"}));
}

TEST(CliTest, UnsetFlagsKeepTheirDefaults)
{
    Dests d = parseArgs({});
    EXPECT_EQ(d.n32, 7u);
    EXPECT_EQ(d.workers, 2u);
    EXPECT_EQ(d.port, -1);
    EXPECT_FALSE(d.split);
}

TEST(CliTest, NumbersReadAsStrtoulBaseZero)
{
    EXPECT_EQ(parseArgs({"--n=0x10"}).n32, 16u);
    EXPECT_EQ(parseArgs({"--n=0X10"}).n32, 16u);
    EXPECT_EQ(parseArgs({"--n=010"}).n32, 8u);
    EXPECT_EQ(parseArgs({"--n=0"}).n32, 0u);
    EXPECT_EQ(parseArgs({"--n=4294967295"}).n32, 4294967295u);
    EXPECT_EQ(parseArgs({"--n=1", "--n=2"}).n32, 2u) << "last one wins";
    EXPECT_EQ(parseArgs({"--scale=1e6"}).scale, 1e6);
}

TEST(CliDeathTest, UnknownFlagExits2)
{
    EXPECT_EXIT(parseArgs({"--scael=0.01"}), ::testing::ExitedWithCode(2),
                "cli_test: unknown flag: '--scael=0.01'");
    EXPECT_EXIT(parseArgs({"-n"}), ::testing::ExitedWithCode(2),
                "unknown flag");
}

TEST(CliDeathTest, UsageTextFollowsTheMessage)
{
    EXPECT_EXIT(parseArgs({"--bogus"}), ::testing::ExitedWithCode(2),
                "unknown flag: '--bogus'\nusage: cli_test");
}

TEST(CliDeathTest, PositionalWhereNoneIsTakenExits2)
{
    EXPECT_EXIT(parseArgs({"stray"}), ::testing::ExitedWithCode(2),
                "unexpected argument: 'stray'");
}

TEST(CliDeathTest, SwitchGivenAValueExits2)
{
    EXPECT_EXIT(parseArgs({"--split=1"}), ::testing::ExitedWithCode(2),
                "bad value for --split: '1'");
    EXPECT_EXIT(parseArgs({"--act=yes"}), ::testing::ExitedWithCode(2),
                "bad value for --act: 'yes'");
}

TEST(CliDeathTest, ValueFlagWithoutValueExits2)
{
    EXPECT_EXIT(parseArgs({"--n"}), ::testing::ExitedWithCode(2),
                "bad value for --n: ''");
    EXPECT_EXIT(parseArgs({"--n="}), ::testing::ExitedWithCode(2),
                "bad value for --n: ''");
    EXPECT_EXIT(parseArgs({"--name="}), ::testing::ExitedWithCode(2),
                "bad value for --name: ''");
}

TEST(CliDeathTest, UnparsableOrPartlyParsedNumberExits2)
{
    for (const char *v : {"abc", "12abc", " 12", "+12", "0x", "1.5"}) {
        SCOPED_TRACE(v);
        EXPECT_EXIT(parseArgs({std::string("--n=") + v}),
                    ::testing::ExitedWithCode(2), "bad value for --n: '");
    }
    for (const char *v : {"abc", "1.5x", " 1", "nan", "inf"}) {
        SCOPED_TRACE(v);
        EXPECT_EXIT(parseArgs({std::string("--scale=") + v}),
                    ::testing::ExitedWithCode(2),
                    "bad value for --scale: '");
    }
}

TEST(CliDeathTest, NegativeValueExits2)
{
    EXPECT_EXIT(parseArgs({"--n=-1"}), ::testing::ExitedWithCode(2),
                "bad value for --n: '-1'");
    EXPECT_EXIT(parseArgs({"--port=-1"}), ::testing::ExitedWithCode(2),
                "bad value for --port: '-1'");
    EXPECT_EXIT(parseArgs({"--scale=-1"}), ::testing::ExitedWithCode(2),
                "bad value for --scale: '-1'");
    // strtoul would read -1 as 4294967295 threads.
    EXPECT_EXIT(parseArgs({"--workers=-1"}), ::testing::ExitedWithCode(2),
                "bad value for --workers: '-1'");
    EXPECT_EXIT(parseArgs({"--clients=-1"}), ::testing::ExitedWithCode(2),
                "bad value for --clients: '-1'");
}

TEST(CliDeathTest, OverflowExits2)
{
    EXPECT_EXIT(parseArgs({"--n=4294967296"}), ::testing::ExitedWithCode(2),
                "bad value for --n: '4294967296' \\(a number from 0 to "
                "4294967295\\)");
    EXPECT_EXIT(parseArgs({"--n64=18446744073709551616"}),
                ::testing::ExitedWithCode(2),
                "bad value for --n64: '18446744073709551616'");
    EXPECT_EXIT(parseArgs({"--scale=1e999"}), ::testing::ExitedWithCode(2),
                "bad value for --scale: '1e999'");
}

TEST(CliDeathTest, OutOfBoundsExits2)
{
    EXPECT_EXIT(parseArgs({"--workers=257"}), ::testing::ExitedWithCode(2),
                "bad value for --workers: '257' \\(a number from 0 to "
                "256\\)");
    EXPECT_EXIT(parseArgs({"--clients=0"}), ::testing::ExitedWithCode(2),
                "bad value for --clients: '0'");
    EXPECT_EXIT(parseArgs({"--port=65536"}), ::testing::ExitedWithCode(2),
                "bad value for --port: '65536'");
    EXPECT_EXIT(parseArgs({"--scale=0"}), ::testing::ExitedWithCode(2),
                "bad value for --scale: '0'");
}

TEST(CliDeathTest, ReaderRejectionExits2)
{
    EXPECT_EXIT(parseArgs({"--org=bogus"}), ::testing::ExitedWithCode(2),
                "bad value for --org: 'bogus'");
}

TEST(CliDeathTest, ConfigErrorNamesTheFlag)
{
    Error e = makeErrorAt(ErrorKind::Bounds, "--block1", 0,
                          "level-1 block size 24 must be a power of two");
    EXPECT_EXIT(cli::check({"cli_test", testUsage}, e),
                ::testing::ExitedWithCode(2),
                "cli_test: bad value for --block1: level-1 block size 24");
}

} // namespace
} // namespace vrc

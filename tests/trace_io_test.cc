/**
 * @file
 * Unit tests for trace records and trace file I/O.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "trace/trace_io.hh"

namespace vrc
{
namespace
{

std::vector<TraceRecord>
sampleTrace()
{
    return {
        makeRef(0, RefType::Instr, 1, VirtAddr(0x1000)),
        makeRef(1, RefType::Read, 2, VirtAddr(0xdeadbee0)),
        makeRef(0, RefType::Write, 1, VirtAddr(0x2004)),
        makeContextSwitch(1, 3),
        makeRef(1, RefType::Read, 3, VirtAddr(0x3000)),
    };
}

TEST(TraceRecordTest, Predicates)
{
    TraceRecord r = makeRef(0, RefType::Read, 1, VirtAddr(0x10));
    EXPECT_TRUE(r.isMemRef());
    EXPECT_TRUE(r.isData());
    TraceRecord i = makeRef(0, RefType::Instr, 1, VirtAddr(0x10));
    EXPECT_TRUE(i.isMemRef());
    EXPECT_FALSE(i.isData());
    TraceRecord s = makeContextSwitch(0, 2);
    EXPECT_FALSE(s.isMemRef());
    EXPECT_FALSE(s.isData());
}

TEST(TraceRecordTest, VaAccessor)
{
    TraceRecord r = makeRef(0, RefType::Read, 1, VirtAddr(0x1234));
    EXPECT_EQ(r.va(), VirtAddr(0x1234));
}

TEST(TraceRecordTest, RefTypeNames)
{
    EXPECT_STREQ(refTypeName(RefType::Instr), "instr");
    EXPECT_STREQ(refTypeName(RefType::Read), "read");
    EXPECT_STREQ(refTypeName(RefType::Write), "write");
    EXPECT_STREQ(refTypeName(RefType::ContextSwitch), "context-switch");
}

TEST(TraceIoTest, BinaryRoundTrip)
{
    auto trace = sampleTrace();
    std::stringstream ss;
    std::uint64_t bytes = writeTraceBinary(ss, trace);
    EXPECT_EQ(bytes, 16 + trace.size() * sizeof(TraceRecord));
    auto back = tryReadTraceBinary(ss).orDie();
    EXPECT_EQ(back, trace);
}

TEST(TraceIoTest, BinaryEmptyTrace)
{
    std::stringstream ss;
    writeTraceBinary(ss, {});
    EXPECT_TRUE(tryReadTraceBinary(ss).orDie().empty());
}

TEST(TraceIoTest, TextRoundTrip)
{
    auto trace = sampleTrace();
    std::stringstream ss;
    writeTraceText(ss, trace);
    auto back = tryReadTraceText(ss).orDie();
    EXPECT_EQ(back, trace);
}

TEST(TraceIoTest, TextSkipsCommentsAndBlanks)
{
    std::stringstream ss;
    ss << "# a comment\n\n0 R 1 1000\n";
    auto back = tryReadTraceText(ss).orDie();
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0].type, RefType::Read);
    EXPECT_EQ(back[0].vaddr, 0x1000u);
}

TEST(TraceIoDeathTest, BinaryBadMagic)
{
    std::stringstream ss;
    ss << "this is not a trace at all, not even close.....";
    EXPECT_EXIT(tryReadTraceBinary(ss).orDie(),
                ::testing::ExitedWithCode(1), "bad magic");
}

TEST(TraceIoDeathTest, BinaryTruncatedBody)
{
    auto trace = sampleTrace();
    std::stringstream ss;
    writeTraceBinary(ss, trace);
    std::string data = ss.str();
    std::stringstream cut(data.substr(0, data.size() - 8));
    EXPECT_EXIT(tryReadTraceBinary(cut).orDie(),
                ::testing::ExitedWithCode(1), "truncated");
}

TEST(TraceIoDeathTest, TextBadTypeLetter)
{
    std::stringstream ss;
    ss << "0 Q 1 1000\n";
    EXPECT_EXIT(tryReadTraceText(ss).orDie(),
                ::testing::ExitedWithCode(1), "bad reference type");
}

TEST(TraceIoDeathTest, TextMalformedLine)
{
    std::stringstream ss;
    ss << "zzz\n";
    EXPECT_EXIT(tryReadTraceText(ss).orDie(),
                ::testing::ExitedWithCode(1), "malformed");
}

TEST(TraceIoTest, DineroImport)
{
    std::stringstream ss;
    ss << "# a comment\n"
       << "2 1000\n"   // ifetch
       << "0 2000\n"   // read
       << "1 2004\n";  // write
    auto recs = tryReadTraceDinero(ss, 3, 7).orDie();
    ASSERT_EQ(recs.size(), 3u);
    EXPECT_EQ(recs[0].type, RefType::Instr);
    EXPECT_EQ(recs[0].vaddr, 0x1000u);
    EXPECT_EQ(recs[1].type, RefType::Read);
    EXPECT_EQ(recs[2].type, RefType::Write);
    EXPECT_EQ(recs[2].vaddr, 0x2004u);
    for (const auto &r : recs) {
        EXPECT_EQ(r.cpu, 3u);
        EXPECT_EQ(r.pid, 7u);
    }
}

TEST(TraceIoDeathTest, DineroBadLabel)
{
    std::stringstream ss;
    ss << "5 1000\n";
    EXPECT_EXIT(tryReadTraceDinero(ss).orDie(),
                ::testing::ExitedWithCode(1), "unknown dinero label");
}

TEST(TraceIoDeathTest, DineroMalformed)
{
    std::stringstream ss;
    ss << "junk\n";
    EXPECT_EXIT(tryReadTraceDinero(ss).orDie(),
                ::testing::ExitedWithCode(1), "malformed dinero");
}

TEST(TraceIoTest, FileRoundTrip)
{
    auto trace = sampleTrace();
    std::string path =
        ::testing::TempDir() + "/vrc_trace_io_test.trace";
    saveTrace(path, trace);
    auto back = tryLoadTrace(path).orDie();
    EXPECT_EQ(back, trace);
    std::remove(path.c_str());
}

TEST(TraceIoDeathTest, MissingFile)
{
    EXPECT_EXIT(tryLoadTrace("/nonexistent/path/to.trace").orDie(),
                ::testing::ExitedWithCode(1), "cannot open");
}

} // namespace
} // namespace vrc

/**
 * @file
 * Tests for the artifact writer (sim/artifact_writer.hh) and the
 * byte rules the renderers build on it: integers and hex, the
 * trace's and the critical-path JSON's escaping, both number rules
 * on the edge doubles, and the trace JSON's handling of records with
 * no peer node, no element address, and control bytes in labels.
 * The expected strings are what the stream-based renderers the
 * writer replaced printed (printf "%g" and "%.17g").
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "sim/artifact_writer.hh"
#include "sim/sim_context.hh"
#include "sim/trace.hh"
#include "sim/trace_export.hh"
#include "support/json_checker.hh"

using namespace specrt;
using test_support::validJson;

namespace
{

std::string
g(double v)
{
    ArtifactWriter w;
    w.g(v);
    return w.take();
}

std::string
num(double v)
{
    ArtifactWriter w;
    w.num(v);
    return w.take();
}

} // namespace

TEST(ArtifactWriter, IntegersHexAndStrings)
{
    ArtifactWriter w(64);
    w << "n=" << int32_t(-1) << ' ' << uint64_t(18446744073709551615ull)
      << ' ' << int64_t(-9) << ' ' << uint32_t(0) << " 0x";
    w.hex(0xdeadbeefULL).hex(0);
    EXPECT_EQ(w.view(), "n=-1 18446744073709551615 -9 0 0xdeadbeef0");
    EXPECT_EQ(w.size(), 42u);
    EXPECT_EQ(w.take(), "n=-1 18446744073709551615 -9 0 0xdeadbeef0");
    EXPECT_EQ(w.size(), 0u);
}

TEST(ArtifactWriter, NumberRulesOnTheEdgeDoubles)
{
    // %g: what an ostream printed for a counter-track value.
    EXPECT_EQ(g(0), "0");
    EXPECT_EQ(g(1e-7), "1e-07");
    EXPECT_EQ(g(1234567.5), "1.23457e+06");
    EXPECT_EQ(g(1e20), "1e+20");
    EXPECT_EQ(g(-3), "-3");
    EXPECT_EQ(g(-0.0), "-0");
    EXPECT_EQ(g(999999), "999999");
    EXPECT_EQ(g(1e6), "1e+06");
    EXPECT_EQ(g(0.5), "0.5");

    // Integral, else %.17g: timeline cells and critical-path numbers.
    EXPECT_EQ(num(0), "0");
    EXPECT_EQ(num(1e-7), "9.9999999999999995e-08");
    EXPECT_EQ(num(1234567.5), "1234567.5");
    EXPECT_EQ(num(1e20), "1e+20");
    EXPECT_EQ(num(-3), "-3");
    EXPECT_EQ(num(-0.0), "0");
    EXPECT_EQ(num(9e15), "9000000000000000");
    EXPECT_EQ(num(std::numeric_limits<double>::quiet_NaN()), "nan");
}

TEST(ArtifactWriter, EscapingRulesDifferOnlyWhereTheArtifactsDid)
{
    const char label[] = "a\"b\\c\nd\te\x01z";
    ArtifactWriter trace;
    trace.escaped(label).escaped(nullptr).escaped("");
    EXPECT_EQ(trace.view(), "a\\\"b\\\\c\\u000ad\\u0009e\\u0001z");

    ArtifactWriter critpath;
    critpath.quoted(label);
    EXPECT_EQ(critpath.view(), "\"a\\\"b\\\\c\\nd\\te\\u0001z\"");
}

TEST(ArtifactWriter, TraceJsonRendersPeerlessAddresslessAndControlLabels)
{
    SimContext ctx;
    ScopedSimContext scope(ctx);
    trace::TraceBuffer &b = ctx.recorders().trace;
    b.enable(8);
    b.setLoop(2);

    trace::TraceRecord send;
    send.tick = 12;
    send.op = trace::TraceOp::MsgSend;
    send.node = 0; // peer stays invalidNode, addr invalidAddr
    send.iter = 3;
    send.b = 77;
    send.label = "Rd\"\n";
    b.emit(send);

    trace::TraceRecord abort;
    abort.tick = 30;
    abort.op = trace::TraceOp::Abort;
    abort.node = 1;
    abort.iter = 4;
    abort.addr = 0x40;
    abort.label = "tab\there";
    b.emit(abort);

    const std::string json = trace::chromeTraceJson(b);
    ASSERT_TRUE(validJson(json)) << json;
    const std::string msgCat =
        eventKindName(trace::opCategory(trace::TraceOp::MsgSend));
    const std::string abortCat =
        eventKindName(trace::opCategory(trace::TraceOp::Abort));
    const std::string want =
        "{\"traceEvents\": [\n"
        "  {\"name\": \"process_name\", \"ph\": \"M\", \"ts\": 0, "
        "\"pid\": 0, \"tid\": 0, \"args\": {\"name\": \"node 0\"}},\n"
        "  {\"name\": \"thread_name\", \"ph\": \"M\", \"ts\": 0, "
        "\"pid\": 0, \"tid\": 0, \"args\": {\"name\": \"iterations\"}},\n"
        "  {\"name\": \"thread_name\", \"ph\": \"M\", \"ts\": 0, "
        "\"pid\": 0, \"tid\": 1, \"args\": {\"name\": \"messages\"}},\n"
        "  {\"name\": \"thread_name\", \"ph\": \"M\", \"ts\": 0, "
        "\"pid\": 0, \"tid\": 2, \"args\": {\"name\": \"protocol\"}},\n"
        "  {\"name\": \"process_name\", \"ph\": \"M\", \"ts\": 0, "
        "\"pid\": 1, \"tid\": 0, \"args\": {\"name\": \"node 1\"}},\n"
        "  {\"name\": \"thread_name\", \"ph\": \"M\", \"ts\": 0, "
        "\"pid\": 1, \"tid\": 0, \"args\": {\"name\": \"iterations\"}},\n"
        "  {\"name\": \"thread_name\", \"ph\": \"M\", \"ts\": 0, "
        "\"pid\": 1, \"tid\": 1, \"args\": {\"name\": \"messages\"}},\n"
        "  {\"name\": \"thread_name\", \"ph\": \"M\", \"ts\": 0, "
        "\"pid\": 1, \"tid\": 2, \"args\": {\"name\": \"protocol\"}},\n"
        // No peer node prints -1; no address omits "elem".
        "  {\"name\": \"Rd\\\"\\u000a\", \"ph\": \"X\", \"ts\": 12, "
        "\"pid\": 0, \"tid\": 1, \"dur\": 1, \"cat\": \"" + msgCat +
        "\", \"args\": {\"loop\": 2, \"iter\": 3, \"peer\": -1, "
        "\"flow\": 77}},\n"
        "  {\"name\": \"Rd\\\"\\u000a\", \"ph\": \"s\", \"ts\": 12, "
        "\"pid\": 0, \"tid\": 1, \"cat\": \"" + msgCat +
        "\", \"id\": 77},\n"
        "  {\"name\": \"ABORT: tab\\u0009here\", \"ph\": \"i\", "
        "\"ts\": 30, \"pid\": 1, \"tid\": 2, \"s\": \"g\", \"cat\": \"" +
        abortCat +
        "\", \"args\": {\"loop\": 2, \"iter\": 4, \"elem\": \"0x40\", "
        "\"node\": 1}}\n"
        "],\n\"displayTimeUnit\": \"ns\",\n"
        "\"otherData\": {\"recorded\": 2, \"dropped\": 0}}\n";
    EXPECT_EQ(json, want);
}

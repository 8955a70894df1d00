/**
 * @file
 * Tests for the metadata text format: parsing the shipped
 * designs/vscale.meta (the only V-scale metadata), round-tripping
 * through print/parse, and diagnostics for malformed files.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "rtl2uspec/metadata_io.hh"
#include "vscale/vscale.hh"

using namespace r2u;
using namespace r2u::rtl2uspec;

TEST(MetadataIo, LoadsShippedVscaleMeta)
{
    DesignMetadata md = loadMetadata(vscale::metaPath());
    ASSERT_EQ(md.cores.size(), 4u);
    EXPECT_EQ(md.cores[0].ifr, "core_0.inst_DX");
    EXPECT_EQ(md.cores[3].imPc, "core_3.PC_IF");
    ASSERT_EQ(md.cores[0].pcrs.size(), 2u);
    EXPECT_EQ(md.cores[0].pcrs[1], "core_0.PC_WB");
    ASSERT_EQ(md.instrs.size(), 2u);
    EXPECT_EQ(md.instrs[0].name, "sw"); // id 0, as in the artifact
    EXPECT_TRUE(md.instrs[0].isWrite);
    EXPECT_EQ(md.instrs[1].match, 0x2003u);
    EXPECT_EQ(md.remote.memName, "dmem.mem");
    EXPECT_EQ(md.remote.pipelineRegs.size(), 5u);
    EXPECT_TRUE(md.exclude.count("arbiter.rr_ptr"));
    EXPECT_EQ(md.bound, 14u);
}

TEST(MetadataIo, RoundTrips)
{
    DesignMetadata md = loadMetadata(vscale::metaPath());
    md.relaxPairs = false;
    md.mergeNodes = false;
    std::string text = printMetadata(md);
    DesignMetadata again = parseMetadata(text);
    EXPECT_EQ(printMetadata(again), text);
    EXPECT_FALSE(again.relaxPairs);
    EXPECT_FALSE(again.mergeNodes);
}

TEST(MetadataIo, Diagnostics)
{
    EXPECT_THROW(parseMetadata("nonsense directive"), FatalError);
    EXPECT_THROW(parseMetadata("core prefix=c."), FatalError);
    EXPECT_THROW(parseMetadata("instr name=x mask=zz match=0 "
                               "kind=read\ncore prefix=c. ifr=i "
                               "im_pc=p pcrs=a req_en=e req_wen=w"),
                 FatalError);
    EXPECT_THROW(parseMetadata(""), FatalError); // no cores
    // Duplicate keys rejected.
    EXPECT_THROW(
        parseMetadata("core prefix=a. prefix=b. ifr=i im_pc=p "
                      "pcrs=x req_en=e req_wen=w"),
        FatalError);
    // kind must be read/write/other.
    EXPECT_THROW(
        parseMetadata("core prefix=a. ifr=i im_pc=p pcrs=x req_en=e "
                      "req_wen=w\ninstr name=x mask=0 match=0 "
                      "kind=banana"),
        FatalError);
    // The conflict budget is a run option (--conflict-budget), not
    // design metadata: the retired directive is refused.
    EXPECT_THROW(
        parseMetadata("conflict_budget 5000\ncore prefix=a. ifr=i "
                      "im_pc=p pcrs=x req_en=e req_wen=w\ninstr "
                      "name=x mask=0 match=0 kind=read"),
        FatalError);
}

TEST(MetadataIo, CommentsAndBlankLines)
{
    DesignMetadata md = parseMetadata(R"(
# a comment
core prefix=c. ifr=c.i im_pc=c.p pcrs=c.q req_en=c.e req_wen=c.w

instr name=ld mask=0x7f match=0x03 kind=read   # trailing comment
)");
    EXPECT_EQ(md.cores.size(), 1u);
    EXPECT_EQ(md.instrs[0].name, "ld");
}

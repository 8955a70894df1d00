/**
 * @file
 * User-supplied design metadata for rtl2uspec (paper §4.2.1, §4.3.4).
 *
 * As in the paper, the designer identifies: the instruction fetch
 * register (IFR), the per-stage PC registers (PCR array, PCR[0] in the
 * IFR's stage), the instruction-memory PC (IM_PC), the binary
 * encodings of the instruction types to model, and — for each remote
 * resource — its array, grant bus and request-pipeline registers
 * (§4.3.4).
 */

#ifndef R2U_RTL2USPEC_METADATA_HH
#define R2U_RTL2USPEC_METADATA_HH

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace r2u::rtl2uspec
{

/** Per-core metadata; one entry per core, index = core id. */
struct CoreMeta
{
    std::string prefix; ///< hierarchical prefix, e.g. "core_0."
    std::string ifr;    ///< instruction fetch register
    std::vector<std::string> pcrs; ///< PCR[0], PCR[1], ...
    std::string imPc;   ///< register feeding the imem address
    std::string reqEn;  ///< data-memory request enable output
    std::string reqWen; ///< data-memory write enable output
};

/** One instruction type to include in the synthesized model. */
struct InstrType
{
    std::string name; ///< "lw", "sw"
    uint32_t mask = 0, match = 0; ///< valid iff (word & mask) == match
    bool isRead = false;
    bool isWrite = false;
};

/**
 * A remote resource (§4.3.4): the shared array, the per-core grant bus
 * and the resource's request pipeline, whose registers the
 * Req-Snd/Req-Rec/Req-Proc decomposition orders.
 */
struct RemoteInterface
{
    std::string memName; ///< the remote array, e.g. "dmem.mem"
    std::string grant;   ///< per-core grant bus (bit c = core c)
    /** Request-pipeline registers inside the resource, in order. */
    std::vector<std::string> pipelineRegs;
    /** Roles of specific pipeline registers (for Req-Rec/Req-Proc). */
    std::string pipeValid;
    std::string pipeWen;
    std::string pipeCore;
};

struct DesignMetadata
{
    std::vector<CoreMeta> cores;
    std::vector<InstrType> instrs;
    RemoteInterface remote;

    /** State elements to exclude as arbitration bookkeeping. */
    std::set<std::string> exclude;

    /** BMC unrolling depth for HBI-hypothesis evaluation. */
    unsigned bound = 14;
    /** Progress SVAs assume the instruction issues by this frame. */
    unsigned issueByFrame = 5;

    /**
     * §6.2 optimization: evaluate one relaxed (instruction-agnostic)
     * ordering SVA per pipeline stage instead of one per instruction
     * pair. Disable for the ablation bench.
     */
    bool relaxPairs = true;

    /** §4.4 node merging into mgnode_k rows. Disable for ablation. */
    bool mergeNodes = true;
};

} // namespace r2u::rtl2uspec

#endif // R2U_RTL2USPEC_METADATA_HH

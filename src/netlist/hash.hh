/**
 * @file
 * Canonical structural hashing of netlist content.
 *
 * Two consumers need a semantic fingerprint of "what the solver will
 * see" rather than a count of how many cells it will see:
 *
 *  - the BMC run journal binds resumed verdicts to the producing
 *    design via a whole-netlist hash (structuralHash) — a rewired
 *    design with identical cell/input/register counts must not be
 *    allowed to resume another design's verdicts;
 *  - the content-addressed verdict cache keys each query by the hash
 *    of exactly the cone of influence its property can read
 *    (coneHash over nl::computeCoi), so an RTL edit invalidates only
 *    the queries whose slice actually changed.
 *
 * Both are folds over per-element digests computed once per netlist
 * (digestNetlist). A cell's digest is FNV-1a 64-bit over an explicit
 * little-endian encoding of its kind, name, port widths, connectivity
 * (input CellIds), constant/DFF power-on value and slice offset; a
 * memory's digest covers its name, geometry, initial contents and the
 * digests of its write-port cells in priority order. Nothing depends
 * on pointers or std::hash, so every value is stable across platforms
 * and process runs.
 *
 * The fold takes the in-cone elements in id order and chains each
 * element's id and digest through a bijective mixer, so it hashes the
 * sequence of (id, digest) pairs, not a multiset of digests: two
 * identical cells cannot cancel out, and the same content at other
 * ids hashes differently. Cell identifiers also appear inside the
 * digests (as input references): an edit that renumbers cells
 * conservatively invalidates every cone that mentions them, which can
 * only cost re-solves, never soundness.
 */

#ifndef R2U_NETLIST_HASH_HH
#define R2U_NETLIST_HASH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/bits.hh"
#include "netlist/coi.hh"
#include "netlist/netlist.hh"

namespace r2u::nl
{

/**
 * Incremental FNV-1a 64-bit hasher over an explicit byte encoding
 * (same constants as the journal's record checksum). Every integer is
 * fed little-endian with its full width, so `u32(1), u32(2)` and
 * `u64(0x200000001)` hash differently from most accidental
 * concatenations; strings are length-prefixed for the same reason.
 */
class Fnv64
{
  public:
    void byte(uint8_t b)
    {
        h_ ^= b;
        h_ *= 1099511628211ull;
    }

    void u32(uint32_t v)
    {
        for (unsigned i = 0; i < 4; i++)
            byte(static_cast<uint8_t>(v >> (8 * i)));
    }

    void u64(uint64_t v)
    {
        for (unsigned i = 0; i < 8; i++)
            byte(static_cast<uint8_t>(v >> (8 * i)));
    }

    void str(const std::string &s)
    {
        u32(static_cast<uint32_t>(s.size()));
        for (char c : s)
            byte(static_cast<uint8_t>(c));
    }

    /** Width-prefixed value bits, 64 bits at a time from bit 0. */
    void bits(const Bits &b);

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 14695981039346656037ull;
};

/** Content digest of every cell and memory of one netlist. */
struct Digests
{
    std::vector<uint64_t> cells; ///< indexed by CellId
    /** Indexed by MemId; each covers the memory's write-port cells. */
    std::vector<uint64_t> mems;
};

/** One pass over @p nl: each cell, then each memory, hashed once. */
Digests digestNetlist(const Netlist &nl);

/**
 * Whole-netlist content hash: the cell and memory counts, then every
 * cell and every memory digest. Equal-count designs with different
 * logic hash differently.
 */
uint64_t structuralHash(const Digests &digests);

/**
 * Content hash of one cone of influence (computed over the netlist
 * @p digests describe): the digests of its in-cone cells and memories
 * only. Cells outside the cone cannot influence any wire a
 * demand-driven unrolling of the seeds materializes (see
 * nl::computeCoi), so an edit confined to them leaves the hash — and
 * any verdict keyed by it — intact. MemWrite cells are never members
 * of Coi::cells; an in-cone memory's digest covers them.
 */
uint64_t coneHash(const Digests &digests, const Coi &coi);

} // namespace r2u::nl

#endif // R2U_NETLIST_HASH_HH

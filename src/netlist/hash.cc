#include "netlist/hash.hh"

#include "common/logging.hh"

namespace r2u::nl
{

void
Fnv64::bits(const Bits &b)
{
    u32(b.width());
    for (unsigned lo = 0; lo < b.width(); lo += 64) {
        unsigned w = b.width() - lo < 64 ? b.width() - lo : 64;
        u64(b.slice(lo, w).toUint64());
    }
}

namespace
{

/** Memory ids share the fold with cell ids; this bit keeps them apart. */
constexpr uint64_t kMemTag = 1ull << 63;
/** Fold seed: the FNV-1a offset basis. */
constexpr uint64_t kFoldSeed = 14695981039346656037ull;

/**
 * One step of the fold behind structuralHash and coneHash. The
 * (id, digest) pair goes through a bijective mixer on top of the
 * running value, never into an XOR or a sum, so the result depends
 * on order and ids and equal digests cannot cancel.
 */
uint64_t
foldDigest(uint64_t h, uint64_t id, uint64_t digest)
{
    h += digest ^ (id * 0x9e3779b97f4a7c15ull);
    h ^= h >> 32;
    h *= 0xd6e8feb86659fd93ull;
    return h ^ (h >> 32);
}

uint64_t
hashCell(const Cell &cell)
{
    Fnv64 h;
    h.u32(static_cast<uint32_t>(cell.kind));
    h.str(cell.name);
    h.u32(cell.width);
    h.u32(cell.lo);
    h.u32(static_cast<uint32_t>(cell.mem));
    h.u32(static_cast<uint32_t>(cell.inputs.size()));
    for (CellId in : cell.inputs)
        h.u32(static_cast<uint32_t>(in));
    h.bits(cell.value);
    return h.value();
}

uint64_t
hashMemory(const Memory &mem, const std::vector<uint64_t> &cells)
{
    Fnv64 h;
    h.str(mem.name);
    h.u32(mem.depth);
    h.u32(mem.width);
    h.u32(mem.abits);
    h.u32(static_cast<uint32_t>(mem.init.size()));
    for (const Bits &word : mem.init)
        h.bits(word);
    // Write ports in priority order, each with its cell's content: an
    // in-cone array is driven by all of its write ports, so rewiring
    // one invalidates every cone that reads the array.
    h.u32(static_cast<uint32_t>(mem.writePorts.size()));
    for (CellId port : mem.writePorts) {
        h.u32(static_cast<uint32_t>(port));
        h.u64(cells[port]);
    }
    return h.value();
}

} // namespace

Digests
digestNetlist(const Netlist &nl)
{
    Digests d;
    d.cells.reserve(nl.numCells());
    for (size_t c = 0; c < nl.numCells(); c++)
        d.cells.push_back(hashCell(nl.cell(static_cast<CellId>(c))));
    d.mems.reserve(nl.numMemories());
    for (size_t m = 0; m < nl.numMemories(); m++)
        d.mems.push_back(
            hashMemory(nl.memory(static_cast<MemId>(m)), d.cells));
    return d;
}

uint64_t
structuralHash(const Digests &digests)
{
    uint64_t h = foldDigest(kFoldSeed, digests.cells.size(),
                            digests.mems.size());
    for (size_t c = 0; c < digests.cells.size(); c++)
        h = foldDigest(h, c, digests.cells[c]);
    for (size_t m = 0; m < digests.mems.size(); m++)
        h = foldDigest(h, kMemTag | m, digests.mems[m]);
    return h;
}

uint64_t
coneHash(const Digests &digests, const Coi &coi)
{
    R2U_ASSERT(coi.cells.size() == digests.cells.size() &&
                   coi.mems.size() == digests.mems.size(),
               "cone and digests come from different netlists");
    uint64_t h = kFoldSeed;
    for (size_t c = 0; c < digests.cells.size(); c++)
        if (coi.cells[c])
            h = foldDigest(h, c, digests.cells[c]);
    for (size_t m = 0; m < digests.mems.size(); m++)
        if (coi.mems[m])
            h = foldDigest(h, kMemTag | m, digests.mems[m]);
    return h;
}

} // namespace r2u::nl

/**
 * @file
 * Tests for the canonical structural netlist hash (ISSUE 8): the
 * whole-netlist hash must be deterministic and must discriminate
 * same-shaped designs (equal cell/register/memory counts, different
 * logic), and the per-cone hash must track exactly the cone of
 * influence — an edit outside a cone leaves its hash (and any cached
 * verdict keyed by it) intact, an edit inside changes it. Both hashes
 * fold the per-cell and per-memory digests of nl::digestNetlist; the
 * fold must see duplicates and positions, not just a digest multiset.
 *
 * The journal regression at the bottom is the bug this issue fixes:
 * two designs the old count-mixing configHash() could not tell apart
 * must now reject each other's journals.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "bmc/journal.hh"
#include "common/bits.hh"
#include "common/logging.hh"
#include "netlist/coi.hh"
#include "netlist/hash.hh"
#include "netlist/netlist.hh"

using namespace r2u;
namespace fs = std::filesystem;

namespace
{

/**
 * A small design with two independent cones:
 *   cone A:  ra = Dff(a0 <opA> a1)
 *   cone B:  rb = Dff(b0 <opB> b1)   (operands optionally swapped)
 * plus a memory whose write data is selectable, read back into cone A
 * when @p mem_in_a. Every variant has identical cell, input, register,
 * and memory counts — only wiring/kinds/values differ.
 */
struct TwoCone
{
    nl::Netlist n;
    nl::CellId ra, rb;
    nl::MemId mem;

    TwoCone(nl::CellKind opA, nl::CellKind opB, bool swapB,
            bool mem_data_from_a1, uint64_t rb_init)
    {
        nl::CellId a0 = n.addInput("a0", 8);
        nl::CellId a1 = n.addInput("a1", 8);
        nl::CellId b0 = n.addInput("b0", 8);
        nl::CellId b1 = n.addInput("b1", 8);
        nl::CellId one = n.addConst(Bits(1, 1), "one");

        nl::CellId ga = n.addBinary(opA, a0, a1, "ga");
        nl::CellId gb = swapB ? n.addBinary(opB, b1, b0, "gb")
                              : n.addBinary(opB, b0, b1, "gb");

        mem = n.addMemory("m", 4, 8);
        nl::CellId waddr = n.addSlice(a0, 0, 2, "waddr");
        nl::CellId wdata = mem_data_from_a1
                               ? n.addBinary(nl::CellKind::Xor, a1, a1,
                                             "wdata")
                               : n.addBinary(nl::CellKind::Xor, a0, a0,
                                             "wdata");
        n.addMemWrite(mem, waddr, wdata, one);
        nl::CellId rd = n.addMemRead(mem, waddr, "rd");

        nl::CellId da = n.addBinary(nl::CellKind::Or, ga, rd, "da");
        ra = n.addDff("ra", da, one, Bits(8, 0));
        rb = n.addDff("rb", gb, one, Bits(8, rb_init));
        n.validate();
    }
};

uint64_t
structural(const nl::Netlist &n)
{
    return nl::structuralHash(nl::digestNetlist(n));
}

uint64_t
coneOf(const nl::Netlist &n, const nl::CoiSeeds &seeds)
{
    return nl::coneHash(nl::digestNetlist(n), nl::computeCoi(n, seeds));
}

uint64_t
coneOf(const TwoCone &d, nl::CellId seed)
{
    return coneOf(d.n, nl::CoiSeeds{{seed}, {}});
}

} // namespace

TEST(NetlistHash, DeterministicAcrossIndependentBuilds)
{
    TwoCone x(nl::CellKind::And, nl::CellKind::Add, false, false, 7);
    TwoCone y(nl::CellKind::And, nl::CellKind::Add, false, false, 7);
    EXPECT_EQ(structural(x.n), structural(y.n));
    EXPECT_EQ(coneOf(x, x.ra), coneOf(y, y.ra));
    EXPECT_EQ(coneOf(x, x.rb), coneOf(y, y.rb));
}

// The heart of the ISSUE 8 bugfix: equal-count designs with different
// logic must hash differently. The old configHash() mixed only element
// counts and could not tell any of these apart.
TEST(NetlistHash, SameShapeDifferentLogicDiscriminates)
{
    TwoCone base(nl::CellKind::And, nl::CellKind::Add, false, false, 7);
    // Different cell kind at identical counts.
    TwoCone kind(nl::CellKind::Or, nl::CellKind::Add, false, false, 7);
    // Same kinds, operands of the (commutative-looking but
    // order-sensitive in the encoding) B gate swapped.
    TwoCone swap(nl::CellKind::And, nl::CellKind::Add, true, false, 7);
    // Same gates, different register power-on value.
    TwoCone init(nl::CellKind::And, nl::CellKind::Add, false, false, 9);
    // Same gates, memory write port wired to a different data source.
    TwoCone wire(nl::CellKind::And, nl::CellKind::Add, false, true, 7);

    auto same_counts = [&](const TwoCone &d) {
        nl::NetlistStats a = base.n.stats();
        nl::NetlistStats b = d.n.stats();
        EXPECT_EQ(a.cells, b.cells);
        EXPECT_EQ(a.registers, b.registers);
        EXPECT_EQ(a.inputs, b.inputs);
        EXPECT_EQ(a.memories, b.memories);
        EXPECT_EQ(a.flopBits, b.flopBits);
        EXPECT_EQ(a.memBits, b.memBits);
    };
    same_counts(kind);
    same_counts(swap);
    same_counts(init);
    same_counts(wire);

    uint64_t h = structural(base.n);
    EXPECT_NE(h, structural(kind.n));
    EXPECT_NE(h, structural(swap.n));
    EXPECT_NE(h, structural(init.n));
    EXPECT_NE(h, structural(wire.n));
}

// Editing cone B must not disturb cone A's hash (that is what makes
// per-cone cache invalidation partial), and must disturb cone B's.
TEST(NetlistHash, ConeHashIsolatesIndependentCones)
{
    TwoCone base(nl::CellKind::And, nl::CellKind::Add, false, false, 7);
    TwoCone editB(nl::CellKind::And, nl::CellKind::Xor, false, false, 7);

    EXPECT_EQ(coneOf(base, base.ra), coneOf(editB, editB.ra));
    EXPECT_NE(coneOf(base, base.rb), coneOf(editB, editB.rb));

    // And the reverse: a cone-A-only edit leaves cone B alone.
    TwoCone editA(nl::CellKind::Or, nl::CellKind::Add, false, false, 7);
    EXPECT_EQ(coneOf(base, base.rb), coneOf(editA, editA.rb));
    EXPECT_NE(coneOf(base, base.ra), coneOf(editA, editA.ra));
}

// MemWrite cells have no output wire and are not members of
// Coi::cells, but their wiring changes what a reader of the array can
// observe — the cone hash must see through that.
TEST(NetlistHash, ConeHashSeesMemoryWritePortRewiring)
{
    TwoCone base(nl::CellKind::And, nl::CellKind::Add, false, false, 7);
    TwoCone wire(nl::CellKind::And, nl::CellKind::Add, false, true, 7);

    // ra reads the memory, so rewiring the write port changes its cone
    // hash; rb does not, so its hash is untouched.
    EXPECT_NE(coneOf(base, base.ra), coneOf(wire, wire.ra));
    EXPECT_EQ(coneOf(base, base.rb), coneOf(wire, wire.rb));

    // Seeding the memory directly sees the rewiring too.
    nl::CoiSeeds seeds;
    seeds.mems.push_back(base.mem);
    EXPECT_NE(coneOf(base.n, seeds), coneOf(wire.n, seeds));
}

// Two identical cells have equal digests. An order-free XOR fold
// would cancel them and hash the grown cone like the original one;
// the id-keyed fold must not.
TEST(NetlistHash, TwoIdenticalCellsChangeTheConeHash)
{
    TwoCone base(nl::CellKind::And, nl::CellKind::Add, false, false, 7);
    TwoCone grown(nl::CellKind::And, nl::CellKind::Add, false, false, 7);
    nl::CellId a0 = grown.n.findByName("a0");
    nl::CellId a1 = grown.n.findByName("a1");
    nl::CellId x = grown.n.addBinary(nl::CellKind::Xor, a0, a1);
    nl::CellId y = grown.n.addBinary(nl::CellKind::Xor, a0, a1);
    nl::Digests d = nl::digestNetlist(grown.n);
    ASSERT_EQ(d.cells[x], d.cells[y]);

    // The original cells keep their ids and digests.
    EXPECT_EQ(coneOf(base, base.ra), coneOf(grown, grown.ra));
    EXPECT_NE(coneOf(base, base.ra),
              coneOf(grown.n, nl::CoiSeeds{{grown.ra, x, y}, {}}));
    EXPECT_NE(structural(base.n), structural(grown.n));
}

// The same digests at swapped ids: one design appends P then Q, the
// other Q then P. Any fold that ignores order and ids (XOR, sum) sees
// the same multiset of digests in both cones.
TEST(NetlistHash, SameDigestsAtSwappedIdsDiffer)
{
    auto append = [](TwoCone &d, nl::CellKind first,
                     nl::CellKind second) {
        nl::CellId a0 = d.n.findByName("a0");
        nl::CellId b0 = d.n.findByName("b0");
        nl::CellId p = d.n.addBinary(first, a0, b0);
        nl::CellId q = d.n.addBinary(second, a0, b0);
        return nl::CoiSeeds{{p, q}, {}};
    };
    TwoCone x(nl::CellKind::And, nl::CellKind::Add, false, false, 7);
    TwoCone y(nl::CellKind::And, nl::CellKind::Add, false, false, 7);
    nl::CoiSeeds sx = append(x, nl::CellKind::And, nl::CellKind::Or);
    nl::CoiSeeds sy = append(y, nl::CellKind::Or, nl::CellKind::And);
    nl::Digests dx = nl::digestNetlist(x.n);
    nl::Digests dy = nl::digestNetlist(y.n);
    ASSERT_EQ(dx.cells[sx.cells[0]], dy.cells[sy.cells[1]]);
    ASSERT_EQ(dx.cells[sx.cells[1]], dy.cells[sy.cells[0]]);

    EXPECT_NE(coneOf(x.n, sx), coneOf(y.n, sy));
    EXPECT_NE(structural(x.n), structural(y.n));
}

// End-to-end journal regression: a journal produced by one design must
// be rejected by a same-shaped design with different logic, because
// the config binding is now the structural hash, not element counts.
TEST(NetlistHash, SameShapeDesignRejectsForeignJournal)
{
    TwoCone base(nl::CellKind::And, nl::CellKind::Add, false, false, 7);
    TwoCone other(nl::CellKind::Or, nl::CellKind::Add, false, false, 7);

    fs::path path = fs::path(::testing::TempDir()) / "same_shape.bin";
    fs::remove(path);
    {
        bmc::VerdictStore j;
        j.openJournal(path.string(), structural(base.n), false);
        bmc::VerdictStore::Record rec;
        rec.key = 0x1234; // the query's content hash
        rec.name = "sva_a";
        rec.verdict = bmc::Verdict::Proven;
        rec.bound = 3;
        j.append(rec);
    }
    {
        // Same design resumes fine.
        bmc::VerdictStore j;
        j.openJournal(path.string(), structural(base.n), true);
        EXPECT_EQ(j.numLoaded(), 1u);
    }
    bmc::VerdictStore j;
    EXPECT_THROW(j.openJournal(path.string(), structural(other.n), true),
                 FatalError);
}

#include "bmc/unroller.hh"

#include "common/logging.hh"

namespace r2u::bmc
{

using nl::CellId;
using nl::CellKind;
using nl::MemId;
using sat::Lit;
using sat::Word;

Unroller::Unroller(const nl::Netlist &netlist, sat::CnfBuilder &cnf,
                   Options options)
    : nl_(netlist), cnf_(cnf), options_(std::move(options))
{
    nl_.validate();
}

void
Unroller::ensureFrames(unsigned n)
{
    sat::CnfBuilder::Permanent permanent(cnf_);
    while (frames() < n) {
        unsigned f = frames();
        wires_.emplace_back(nl_.numCells());
        mems_.emplace_back(nl_.numMemories());
        mem_built_.emplace_back(nl_.numMemories(), 0);
        if (options_.fullUnroll)
            buildFrameEager(f);
    }
}

void
Unroller::adoptState(const Unroller &other)
{
    R2U_ASSERT(&nl_ == &other.nl_,
               "adoptState across different netlists");
    R2U_ASSERT(options_.fullUnroll == other.options_.fullUnroll &&
                   options_.concreteInit == other.options_.concreteInit,
               "adoptState across different unroll options");
    wires_ = other.wires_;
    mems_ = other.mems_;
    mem_built_ = other.mem_built_;
    stats_ = other.stats_;
}

const Word &
Unroller::wire(unsigned frame, CellId cell)
{
    ensureFrames(frame + 1);
    if (wires_[frame][cell].empty())
        demand(frame, cell, false);
    return wires_[frame][cell];
}

const Word &
Unroller::memWord(unsigned frame, MemId mem, unsigned addr)
{
    ensureFrames(frame + 1);
    R2U_ASSERT(addr < nl_.memory(mem).depth, "memWord addr out of range");
    if (!mem_built_[frame][mem])
        demand(frame, mem, true);
    return mems_[frame][mem][addr];
}

Bits
Unroller::wireValue(unsigned frame, CellId cell)
{
    return cnf_.modelWord(wire(frame, cell));
}

bool
Unroller::wireMaterialized(unsigned frame, CellId cell) const
{
    return frame < frames() && !wires_[frame][cell].empty();
}

bool
Unroller::memMaterialized(unsigned frame, MemId mem) const
{
    return frame < frames() && mem_built_[frame][mem] != 0;
}

bool
Unroller::memEverMaterialized(MemId mem) const
{
    for (unsigned f = 0; f < frames(); f++)
        if (mem_built_[f][mem])
            return true;
    return false;
}

/**
 * Iterative post-order construction of the requested cone: the first
 * visit of a task pushes its unbuilt dependencies, the second visit
 * (everything below it memoized) builds it. Registers chase their D/EN
 * inputs and previous value into frame-1; memory arrays chase the
 * previous array plus every write port's inputs into frame-1; frame 0
 * state is a leaf.
 */
void
Unroller::demand(unsigned frame, int id, bool is_mem)
{
    auto built = [&](const DemandTask &t) {
        return t.isMem ? mem_built_[t.frame][t.id] != 0
                       : !wires_[t.frame][t.id].empty();
    };
    // The unrolling outlives any query scope: memoized wires are
    // shared by every later query on this context.
    sat::CnfBuilder::Permanent permanent(cnf_);

    std::vector<DemandTask> stack;
    stack.push_back({frame, id, is_mem, false});
    while (!stack.empty()) {
        DemandTask t = stack.back();
        if (built(t)) {
            stack.pop_back();
            continue;
        }
        if (t.expanded) {
            if (t.isMem)
                buildMemArray(t.frame, t.id);
            else
                buildWire(t.frame, t.id);
            stack.pop_back();
            continue;
        }
        stack.back().expanded = true;
        pushDeps(stack, t);
    }
}

void
Unroller::pushDeps(std::vector<DemandTask> &stack, const DemandTask &t)
{
    auto needWire = [&](unsigned f, CellId c) {
        if (wires_[f][c].empty())
            stack.push_back({f, c, false, false});
    };
    auto needMem = [&](unsigned f, MemId m) {
        if (!mem_built_[f][m])
            stack.push_back({f, m, true, false});
    };

    if (t.isMem) {
        if (t.frame == 0)
            return;
        needMem(t.frame - 1, t.id);
        for (CellId port : nl_.memory(t.id).writePorts) {
            const nl::Cell &c = nl_.cell(port);
            needWire(t.frame - 1, c.inputs[0]); // addr
            needWire(t.frame - 1, c.inputs[1]); // data
            needWire(t.frame - 1, c.inputs[2]); // en
        }
        return;
    }

    const nl::Cell &c = nl_.cell(t.id);
    switch (c.kind) {
      case CellKind::Const:
      case CellKind::Input:
        break;
      case CellKind::Dff:
        if (t.frame > 0) {
            needWire(t.frame - 1, c.inputs[0]); // D
            needWire(t.frame - 1, c.inputs[1]); // EN
            needWire(t.frame - 1, t.id);        // previous Q
        }
        break;
      case CellKind::MemRead:
        needWire(t.frame, c.inputs[0]); // addr
        needMem(t.frame, c.mem);
        break;
      case CellKind::MemWrite:
        panic("MemWrite cell %d demanded as a wire", t.id);
      default:
        for (CellId in : c.inputs)
            needWire(t.frame, in);
    }
}

sat::Word
Unroller::normAddr(const Word &addr, unsigned abits)
{
    // Compare only the low address bits (power-of-two wrap, matching
    // the simulator's modulo semantics).
    Word a = addr.size() > abits ? sat::CnfBuilder::sliceW(addr, 0, abits)
                                 : addr;
    if (a.size() < abits)
        a = sat::CnfBuilder::zextW(a, abits, cnf_.falseLit());
    return a;
}

Word
Unroller::readMem(unsigned frame, MemId mem, const Word &addr)
{
    const nl::Memory &m = nl_.memory(mem);
    Word a = normAddr(addr, m.abits);
    const auto &arr = mems_[frame][mem];

    // One-hot decode shared with the write ports (via the gate cache),
    // then a clause-encoded select per output bit. Decoded indices
    // >= depth select nothing, so unbacked addresses read 0 as before.
    std::vector<Lit> onehot = cnf_.mkDecodeW(a);
    return cnf_.mkSelectW(onehot, arr, m.width);
}

void
Unroller::buildMemArray(unsigned f, MemId m)
{
    const nl::Memory &mem = nl_.memory(m);
    auto &arr = mems_[f][m];
    arr.resize(mem.depth);

    if (f == 0) {
        bool symbolic = !options_.concreteInit ||
                        options_.symbolicMems.count(mem.id) > 0;
        auto init_it = options_.memInit.find(mem.id);
        for (unsigned a = 0; a < mem.depth; a++) {
            if (init_it != options_.memInit.end() &&
                a < init_it->second.size()) {
                arr[a] = cnf_.constWord(init_it->second[a]);
            } else if (symbolic) {
                arr[a] = cnf_.freshWord(mem.width);
            } else {
                arr[a] = cnf_.constWord(mem.init[a]);
            }
        }
    } else {
        // Apply the previous frame's write ports in order (later
        // ports take priority, matching the simulator).
        auto &prev = mems_[f - 1][m];
        for (unsigned a = 0; a < mem.depth; a++)
            arr[a] = prev[a];
        for (CellId port : mem.writePorts) {
            const nl::Cell &c = nl_.cell(port);
            const Word &addr = wires_[f - 1][c.inputs[0]];
            const Word &data = wires_[f - 1][c.inputs[1]];
            Lit en = wires_[f - 1][c.inputs[2]][0];
            Word a = normAddr(addr, mem.abits);
            std::vector<Lit> onehot = cnf_.mkDecodeW(a);
            for (unsigned i = 0; i < mem.depth; i++) {
                Lit hit = cnf_.mkAnd(en, onehot[i]);
                arr[i] = cnf_.mkMuxW(hit, data, arr[i]);
            }
        }
    }

    mem_built_[f][m] = 1;
    stats_.memArraysBuilt++;
    stats_.memWordsBuilt += mem.depth;
}

void
Unroller::buildWire(unsigned f, CellId id)
{
    const nl::Cell &c = nl_.cell(id);
    auto &w = wires_[f];
    auto in = [&](size_t k) -> const Word & {
        return w[c.inputs[k]];
    };

    Word out;
    switch (c.kind) {
      case CellKind::Const:
        out = cnf_.constWord(c.value);
        break;
      case CellKind::Input: {
        const Bits *pin = nullptr;
        if (f < options_.inputValues.size()) {
            auto it = options_.inputValues[f].find(id);
            if (it != options_.inputValues[f].end())
                pin = &it->second;
        }
        out = pin ? cnf_.constWord(*pin) : cnf_.freshWord(c.width);
        break;
      }
      case CellKind::Dff:
        if (f == 0) {
            if (options_.concreteInit) {
                out = cnf_.constWord(c.value);
            } else {
                auto it = options_.regInit.find(id);
                out = it != options_.regInit.end()
                          ? cnf_.constWord(it->second)
                          : cnf_.freshWord(c.width);
            }
        } else {
            const Word &d = wires_[f - 1][c.inputs[0]];
            const Word &q = wires_[f - 1][id];
            Lit en = wires_[f - 1][c.inputs[1]][0];
            out = cnf_.mkMuxW(en, d, q);
        }
        break;
      case CellKind::Add:
        out = cnf_.mkAddW(in(0), in(1));
        break;
      case CellKind::Sub:
        out = cnf_.mkSubW(in(0), in(1));
        break;
      case CellKind::And:
        out = cnf_.mkAndW(in(0), in(1));
        break;
      case CellKind::Or:
        out = cnf_.mkOrW(in(0), in(1));
        break;
      case CellKind::Xor:
        out = cnf_.mkXorW(in(0), in(1));
        break;
      case CellKind::Not:
        out = cnf_.mkNotW(in(0));
        break;
      case CellKind::Mux:
        out = cnf_.mkMuxW(in(0)[0], in(1), in(2));
        break;
      case CellKind::Eq:
        out = {cnf_.mkEqW(in(0), in(1))};
        break;
      case CellKind::Ult:
        out = {cnf_.mkUltW(in(0), in(1))};
        break;
      case CellKind::Slt:
        out = {cnf_.mkSltW(in(0), in(1))};
        break;
      case CellKind::RedOr:
        out = {cnf_.mkRedOrW(in(0))};
        break;
      case CellKind::RedAnd:
        out = {cnf_.mkRedAndW(in(0))};
        break;
      case CellKind::Shl:
        out = cnf_.mkShlW(in(0), in(1));
        break;
      case CellKind::Lshr:
        out = cnf_.mkLshrW(in(0), in(1));
        break;
      case CellKind::Ashr:
        out = cnf_.mkAshrW(in(0), in(1));
        break;
      case CellKind::Concat: {
        for (size_t k = c.inputs.size(); k-- > 0;) {
            const Word &part = w[c.inputs[k]];
            out.insert(out.end(), part.begin(), part.end());
        }
        break;
      }
      case CellKind::Slice:
        out = sat::CnfBuilder::sliceW(in(0), c.lo, c.width);
        break;
      case CellKind::Zext:
        out = sat::CnfBuilder::zextW(in(0), c.width, cnf_.falseLit());
        break;
      case CellKind::Sext:
        out = sat::CnfBuilder::sextW(in(0), c.width);
        break;
      case CellKind::MemRead:
        out = readMem(f, c.mem, in(0));
        break;
      case CellKind::MemWrite:
        panic("MemWrite cell %d built as a wire", id);
    }

    R2U_ASSERT(!out.empty(), "built a zero-width word for cell %d", id);
    stats_.wiresBuilt++;
    w[id] = std::move(out);
}

void
Unroller::buildFrameEager(unsigned f)
{
    // Same construction order as the original eager unroller: all
    // memory arrays, then sources/registers, then combinational cells
    // topologically.
    for (size_t m = 0; m < nl_.numMemories(); m++)
        buildMemArray(f, static_cast<MemId>(m));

    for (size_t i = 0; i < nl_.numCells(); i++) {
        const nl::Cell &c = nl_.cell(static_cast<CellId>(i));
        if (c.kind == CellKind::Const || c.kind == CellKind::Input ||
            c.kind == CellKind::Dff)
            buildWire(f, static_cast<CellId>(i));
    }

    for (CellId id : nl_.topoOrder())
        buildWire(f, id);
}

} // namespace r2u::bmc

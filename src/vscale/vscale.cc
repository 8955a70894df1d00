#include "vscale/vscale.hh"

#include "common/logging.hh"
#include "isa/isa.hh"

namespace r2u::vscale
{

namespace
{

unsigned
log2ceil(unsigned n)
{
    unsigned b = 0;
    while ((1u << b) < n)
        b++;
    return b == 0 ? 1 : b;
}

} // namespace

unsigned
Config::regBits() const
{
    return log2ceil(nregs);
}

unsigned
Config::imemAbits() const
{
    return log2ceil(imemWords);
}

unsigned
Config::dmemAbits() const
{
    return log2ceil(dmemWords);
}

std::vector<std::string>
designFiles()
{
    std::string dir = R2U_DESIGN_DIR;
    return {
        dir + "/vscale_core.v",
        dir + "/vscale_arbiter.v",
        dir + "/vscale_mem.v",
        dir + "/multi_vscale.v",
    };
}

std::string
metaPath()
{
    return std::string(R2U_DESIGN_DIR) + "/vscale.meta";
}

vlog::ElabResult
elaborateVscale(const Config &config)
{
    vlog::ElabOptions opts;
    opts.top = "multi_vscale";
    opts.params["XLEN"] = config.xlen;
    opts.params["PC_BITS"] = config.pcBits();
    opts.params["NREGS"] = config.nregs;
    opts.params["REG_BITS"] = config.regBits();
    opts.params["DMEM_WORDS"] = config.dmemWords;
    opts.params["DMEM_ABITS"] = config.dmemAbits();
    opts.params["IMEM_WORDS"] = config.imemWords;
    opts.params["IMEM_ABITS"] = config.imemAbits();
    opts.params["BUGGY"] = config.buggy ? 1 : 0;
    return vlog::elaborateFiles(designFiles(), opts);
}

std::string
coreSig(unsigned core, const std::string &name)
{
    R2U_ASSERT(core < kNumCores, "core index %u out of range", core);
    return "core_" + std::to_string(core) + "." + name;
}

Harness::Harness(const Config &config)
    : config_(config), design_(elaborateVscale(config))
{
    sim_ = std::make_unique<sim::Simulator>(*design_.netlist);
    dmem_ = design_.mem("dmem.mem");
    for (unsigned c = 0; c < kNumCores; c++) {
        imem_[c] = design_.mem("imem_" + std::to_string(c) + ".mem");
        regfile_[c] = design_.mem(coreSig(c, "regfile"));
    }
}

void
Harness::loadProgram(unsigned core, const std::vector<uint32_t> &words)
{
    R2U_ASSERT(core < kNumCores, "core index out of range");
    if (words.size() + 1 > config_.imemWords)
        fatal("program of %zu words does not fit in imem of %u words",
              words.size(), config_.imemWords);
    spin_addr_[core] = static_cast<uint32_t>(4 * words.size());
    isa::Inst spin;
    spin.op = isa::Op::Jal;
    spin.rd = 0;
    spin.imm = 0;
    for (unsigned i = 0; i < config_.imemWords; i++) {
        uint32_t w;
        if (i < words.size())
            w = words[i];
        else if (i == words.size())
            w = isa::encode(spin);
        else
            w = isa::nopWord();
        sim_->pokeMem(imem_[core], i, Bits(32, w));
    }
}

void
Harness::loadProgram(unsigned core, const std::string &assembly)
{
    loadProgram(core, isa::assemble(assembly));
}

void
Harness::resetAndRun(unsigned cycles)
{
    sim_->setInput("reset", Bits(1, 1));
    sim_->setInput("clk", Bits(1, 0));
    sim_->step();
    sim_->step();
    sim_->setInput("reset", Bits(1, 0));
    run(cycles);
}

void
Harness::run(unsigned cycles)
{
    sim_->run(cycles);
}

uint32_t
Harness::reg(unsigned core, unsigned index) const
{
    R2U_ASSERT(core < kNumCores && index < config_.nregs,
               "bad reg access core %u x%u", core, index);
    return static_cast<uint32_t>(
        sim_->memWord(regfile_[core], index).toUint64());
}

uint32_t
Harness::dataWord(unsigned wordIndex) const
{
    return static_cast<uint32_t>(
        sim_->memWord(dmem_, wordIndex).toUint64());
}

void
Harness::setDataWord(unsigned wordIndex, uint32_t value)
{
    sim_->pokeMem(dmem_, wordIndex, Bits(config_.xlen, value));
}

bool
Harness::coreSpinning(unsigned core)
{
    // The spin jal sits right after the program at byte address A; a
    // parked core's fetch PC oscillates between A and A+4 forever.
    uint32_t a = spin_addr_[core];
    uint32_t pc = static_cast<uint32_t>(
        sim_->value(coreSig(core, "PC_IF")).toUint64());
    return pc == a || pc == a + 4;
}

} // namespace r2u::vscale

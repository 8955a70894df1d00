/**
 * @file
 * Support library for the multi-V-scale case-study design: elaboration
 * configuration, hierarchical signal-name helpers, and a simulation
 * harness that loads programs and inspects architectural state.
 */

#ifndef R2U_VSCALE_VSCALE_HH
#define R2U_VSCALE_VSCALE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "verilog/elaborate.hh"

namespace r2u::vscale
{

/** Elaboration-time configuration of the multi-V-scale. */
struct Config
{
    unsigned xlen = 32;
    unsigned nregs = 32;
    unsigned imemWords = 32;
    unsigned dmemWords = 8;
    bool buggy = false;

    unsigned regBits() const;
    unsigned imemAbits() const;
    unsigned pcBits() const { return imemAbits() + 2; }
    unsigned dmemAbits() const;

    /** Full-width configuration (RTL correctness testing). */
    static Config full() { return Config{}; }

    /**
     * Narrow configuration for formal runs: 8-bit datapath, 8
     * registers. Litmus-visible behavior is identical; CNF sizes are
     * laptop-scale.
     */
    static
    Config
    formal()
    {
        Config c;
        c.xlen = 8;
        c.nregs = 8;
        return c;
    }
};

/** Paths of the multi-V-scale Verilog sources. */
std::vector<std::string> designFiles();

/**
 * Path of designs/vscale.meta, the multi-V-scale's rtl2uspec design
 * metadata (IFR/PCR/IM_PC per core, lw/sw encodings, the shared data
 * memory's interface; paper §4.2.1, §4.3.4). Load it with
 * rtl2uspec::loadMetadata; it holds for every Config.
 */
std::string metaPath();

/** Parse + elaborate the multi-V-scale with the given configuration. */
vlog::ElabResult elaborateVscale(const Config &config);

/** Hierarchical name of a per-core signal, e.g. coreSig(0, "inst_DX"). */
std::string coreSig(unsigned core, const std::string &name);

constexpr unsigned kNumCores = 4;

/**
 * Simulation harness: owns the elaborated design and a Simulator, and
 * provides program loading and architectural-state inspection.
 */
class Harness
{
  public:
    explicit Harness(const Config &config);

    const Config &config() const { return config_; }
    const vlog::ElabResult &design() const { return design_; }
    sim::Simulator &sim() { return *sim_; }

    /**
     * Load a program into core @p core's instruction memory. A
     * spin-in-place "jal x0, 0" is appended and the remainder is
     * NOP-filled so the PC never wraps back into the program.
     */
    void loadProgram(unsigned core, const std::vector<uint32_t> &words);

    /** Assemble-and-load convenience. */
    void loadProgram(unsigned core, const std::string &assembly);

    /** Apply reset for two cycles, then run @p cycles clock edges. */
    void resetAndRun(unsigned cycles);

    /** Run additional cycles without reset. */
    void run(unsigned cycles);

    uint32_t reg(unsigned core, unsigned index) const;
    uint32_t dataWord(unsigned wordIndex) const;
    void setDataWord(unsigned wordIndex, uint32_t value);

    /** True if core @p core is parked on the spin jal (test finished). */
    bool coreSpinning(unsigned core);

  private:
    Config config_;
    vlog::ElabResult design_;
    std::unique_ptr<sim::Simulator> sim_;
    nl::MemId dmem_;
    uint32_t spin_addr_[kNumCores] = {};
    nl::MemId imem_[kNumCores];
    nl::MemId regfile_[kNumCores];
};

} // namespace r2u::vscale

#endif // R2U_VSCALE_VSCALE_HH

/**
 * @file
 * Shared helpers for the experiment benches: the formal-sized
 * multi-V-scale configuration, one-shot synthesis, output-directory
 * paths, and a quick-mode switch (R2U_QUICK=1 trims litmus sweeps for
 * smoke runs; the default regenerates the full figures).
 */

#ifndef R2U_BENCH_BENCH_UTIL_HH
#define R2U_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "rtl2uspec/synthesis.hh"
#include "vscale/metadata.hh"
#include "vscale/vscale.hh"

namespace r2u::bench
{

inline vscale::Config
formalConfig()
{
    vscale::Config cfg = vscale::Config::formal();
    cfg.imemWords = 16;
    return cfg;
}

inline bool
quickMode()
{
    const char *q = std::getenv("R2U_QUICK");
    return q && q[0] == '1';
}

inline std::string
outPath(const std::string &file)
{
    return std::string(R2U_OUTPUT_DIR) + "/" + file;
}

inline void
banner(const std::string &title)
{
    std::printf("\n==== %s ====\n", title.c_str());
}

/** Elaborate + synthesize the (fixed) multi-V-scale once. */
inline rtl2uspec::SynthesisResult
synthesizeVscale(bool buggy = false)
{
    vscale::Config cfg = formalConfig();
    cfg.buggy = buggy;
    auto design = vscale::elaborateVscale(cfg);
    return rtl2uspec::synthesize(design, vscale::vscaleMetadata(cfg));
}

} // namespace r2u::bench

#endif // R2U_BENCH_BENCH_UTIL_HH

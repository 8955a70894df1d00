/**
 * @file
 * Litmus test shapes shared by the SC-reference and campaign tests:
 * coherence stress tests with thousands of candidate executions but
 * few distinct outcomes, the shape where outcome pruning does most of
 * the work.
 */

#ifndef R2U_TESTS_LITMUS_SHAPES_HH
#define R2U_TESTS_LITMUS_SHAPES_HH

#include "common/logging.hh"
#include "litmus/litmus.hh"

namespace r2u::test
{

/**
 * @p writers single-write threads racing on x (distinct values, so
 * writers! coherence orders) plus one thread issuing @p reads loads of
 * x: writers! * (writers + 1)^reads candidates.
 */
inline litmus::Test
cohStress(int writers, int reads)
{
    litmus::Test t;
    t.name = strfmt("stress_coh_w%d_r%d", writers, reads);
    for (int i = 0; i < writers; i++) {
        litmus::Thread th;
        th.ops.push_back({true, "x", i + 1, 0});
        t.threads.push_back(th);
    }
    litmus::Thread reader;
    for (int r = 0; r < reads; r++)
        reader.ops.push_back({false, "x", 0, r});
    t.threads.push_back(reader);
    // New-to-old reordering within the reader: SC-forbidden once
    // coherence pins write 1 before the last write.
    t.interesting.regs = {{writers, 0, writers}, {writers, 1, 1}};
    return t;
}

/** Two racing coherence chains (x and y) plus a two-load observer. */
inline litmus::Test
mixedStress(int writers)
{
    litmus::Test t;
    t.name = strfmt("stress_mixed_w%d", writers);
    for (int i = 0; i < writers; i++) {
        litmus::Thread th;
        th.ops.push_back({true, "x", i + 1, 0});
        th.ops.push_back({true, "y", i + 1, 0});
        t.threads.push_back(th);
    }
    litmus::Thread reader;
    reader.ops.push_back({false, "x", 0, 0});
    reader.ops.push_back({false, "y", 0, 1});
    t.threads.push_back(reader);
    t.interesting.regs = {{writers, 0, writers}, {writers, 1, 0}};
    return t;
}

} // namespace r2u::test

#endif // R2U_TESTS_LITMUS_SHAPES_HH

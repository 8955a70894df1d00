#include "check/check.hh"

#include <algorithm>
#include <map>
#include <optional>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace r2u::check
{

std::string
TestResult::summary() const
{
    return strfmt("%-10s %-4s interesting=%s/%s obs=%d sc=%d "
                  "exec=%d/%d pruned=%d %.3f ms",
                  name.c_str(), ok() ? "PASS" : "FAIL",
                  interestingObservable ? "observable" : "forbidden",
                  interestingScAllowed ? "sc-allowed" : "sc-forbidden",
                  observableOutcomes, scAllowedOutcomes,
                  executionsExplored, executionsTotal,
                  executionsPruned, ms);
}

std::vector<uhb::Microop>
microopsOf(const litmus::Test &test)
{
    std::vector<uhb::Microop> ops;
    auto locs = test.locations();
    auto addr_of = [&](const std::string &loc) {
        for (size_t i = 0; i < locs.size(); i++)
            if (locs[i] == loc)
                return static_cast<int>(4 * i);
        panic("unknown location");
    };
    int id = 0;
    for (size_t t = 0; t < test.threads.size(); t++) {
        int index = 0;
        for (const litmus::Access &a : test.threads[t].ops) {
            uhb::Microop op;
            op.id = id++;
            op.core = static_cast<int>(t);
            op.index = index++;
            op.isRead = !a.isWrite;
            op.isWrite = a.isWrite;
            op.addr = addr_of(a.loc);
            op.value = a.isWrite ? a.value : 0;
            if (a.isWrite)
                op.label = strfmt("C%zu: sw %s=%d", t, a.loc.c_str(),
                                  a.value);
            else
                op.label = strfmt("C%zu: lw x%d,%s", t, a.reg,
                                  a.loc.c_str());
            ops.push_back(op);
        }
    }
    return ops;
}

namespace
{

/** n!, or nullopt when it does not fit in 64 bits. */
std::optional<uint64_t>
factorial(size_t n)
{
    uint64_t f = 1;
    for (size_t i = 2; i <= n; i++)
        if (__builtin_mul_overflow(f, i, &f))
            return std::nullopt;
    return f;
}

} // namespace

ExecutionSpace::ExecutionSpace(const litmus::Test &test)
    : ops_(microopsOf(test))
{
    // The candidate count must fit in 64 bits: a wrapped product
    // would silently check a fraction of the space (or none of it).
    auto locs = test.locations();
    auto grow = [&](std::optional<uint64_t> radix, int addr,
                    const char *what) {
        if (!radix || __builtin_mul_overflow(size_, *radix, &size_))
            fatal("litmus test '%s': more than 2^64 candidate "
                  "executions (overflow at the %s of location '%s')",
                  test.name.c_str(), what, locs[addr / 4].c_str());
    };
    std::map<int, std::vector<int>> writes;
    for (const uhb::Microop &op : ops_) {
        if (op.isWrite)
            writes[op.addr].push_back(op.id);
        else if (op.isRead)
            reads_.push_back(op.id);
    }
    for (int rid : reads_) {
        std::vector<int> srcs{-1};
        auto it = writes.find(ops_[rid].addr);
        if (it != writes.end())
            srcs.insert(srcs.end(), it->second.begin(),
                        it->second.end());
        grow(srcs.size(), ops_[rid].addr, "rf sources");
        read_srcs_.push_back(std::move(srcs));
    }
    for (auto &[addr, ws] : writes) {
        std::sort(ws.begin(), ws.end());
        grow(factorial(ws.size()), addr, "coherence orders");
        write_groups_.emplace_back(addr, ws);
    }
}

uhb::Execution
ExecutionSpace::makeScratch() const
{
    uhb::Execution exec;
    exec.ops = ops_;
    exec.rf.assign(ops_.size(), -2);
    for (const auto &[addr, ws] : write_groups_)
        exec.ws[addr] = ws;
    return exec;
}

void
ExecutionSpace::materialize(uint64_t k, uhb::Execution &exec) const
{
    R2U_ASSERT(k < size_, "execution index out of range");
    for (size_t r = 0; r < reads_.size(); r++) {
        const std::vector<int> &srcs = read_srcs_[r];
        int src = srcs[k % srcs.size()];
        k /= srcs.size();
        int rid = reads_[r];
        exec.rf[rid] = src;
        exec.ops[rid].value = src < 0 ? 0 : ops_[src].value;
    }
    for (const auto &[addr, ws] : write_groups_) {
        // Each group's factorial divides size_ and bounds the smaller
        // ones below, so none of them overflows.
        uint64_t nperm = *factorial(ws.size());
        uint64_t p = k % nperm;
        k /= nperm;
        // Lehmer decode of permutation p over the sorted write list.
        std::vector<int> pool = ws;
        std::vector<int> &order = exec.ws[addr];
        order.clear();
        for (size_t left = ws.size(); left > 0; left--) {
            uint64_t f = *factorial(left - 1);
            size_t d = static_cast<size_t>(p / f);
            p %= f;
            order.push_back(pool[d]);
            pool.erase(pool.begin() + static_cast<long>(d));
        }
    }
}

void
forEachExecution(const litmus::Test &test,
                 const std::function<void(const uhb::Execution &)> &fn)
{
    ExecutionSpace space(test);
    uhb::Execution exec = space.makeScratch();
    for (uint64_t k = 0; k < space.size(); k++) {
        space.materialize(k, exec);
        fn(exec);
    }
}

mcm::Outcome
outcomeOf(const litmus::Test &test, const uhb::Execution &exec)
{
    mcm::Outcome out;
    auto locs = test.locations();
    auto loc_of = [&](int addr) { return locs[addr / 4]; };

    size_t id = 0;
    for (size_t t = 0; t < test.threads.size(); t++) {
        for (const litmus::Access &a : test.threads[t].ops) {
            if (!a.isWrite) {
                out.regs[{static_cast<int>(t), a.reg}] =
                    exec.ops[id].value;
            }
            id++;
        }
    }
    // Final memory: last write in ws per location, 0 when unwritten.
    for (const std::string &loc : locs)
        out.mem[loc] = 0;
    for (const auto &[addr, order] : exec.ws) {
        if (!order.empty())
            out.mem[loc_of(addr)] = exec.ops[order.back()].value;
    }
    return out;
}

} // namespace r2u::check

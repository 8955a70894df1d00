#include "mcm/sc_ref.hh"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace r2u::mcm
{

bool
Outcome::operator<(const Outcome &o) const
{
    if (regs != o.regs)
        return regs < o.regs;
    return mem < o.mem;
}

bool
Outcome::operator==(const Outcome &o) const
{
    return regs == o.regs && mem == o.mem;
}

bool
Outcome::satisfies(const litmus::Condition &cond) const
{
    for (const auto &rc : cond.regs) {
        auto it = regs.find({rc.thread, rc.reg});
        if (it == regs.end() || it->second != rc.value)
            return false;
    }
    for (const auto &mc : cond.mem) {
        auto it = mem.find(mc.loc);
        int v = it == mem.end() ? 0 : it->second;
        if (v != mc.value)
            return false;
    }
    return true;
}

std::string
Outcome::toString() const
{
    std::string s;
    for (const auto &[key, v] : regs) {
        if (!s.empty())
            s += " ";
        s += strfmt("%d:x%d=%d", key.first, key.second, v);
    }
    for (const auto &[loc, v] : mem) {
        if (!s.empty())
            s += " ";
        s += strfmt("%s=%d", loc.c_str(), v);
    }
    return s;
}

namespace
{

/** A bit field of a packed state; no field straddles a word. */
struct Field
{
    size_t word = 0;
    unsigned shift = 0;
    uint64_t mask = 0;

    uint64_t
    get(const uint64_t *s) const
    {
        return (s[word] >> shift) & mask;
    }

    void
    set(uint64_t *s, uint64_t v) const
    {
        s[word] = (s[word] & ~(mask << shift)) | (v << shift);
    }
};

/** One access with its location, value and register interned. */
struct Op
{
    bool isWrite = false;
    size_t loc = 0;
    uint64_t value = 0; ///< writes: index into the test's values
    size_t slot = 0;    ///< reads: (thread, reg) slot id
};

/**
 * A test interned for the flat search. A state packs, per thread, its
 * pc; per location, the index of its current value; per (thread, reg)
 * slot, the index of the value last loaded into it. Value index 0 is
 * the initial value 0, so the all-zero state is the initial one.
 * Which locations were written and which registers were loaded follows
 * from the pcs, so the key carries no flags for them.
 */
class Layout
{
  public:
    explicit Layout(const litmus::Test &test) : locs_(test.locations())
    {
        auto index_of = [](auto &list, const auto &x) {
            auto it = std::find(list.begin(), list.end(), x);
            if (it == list.end())
                it = list.insert(list.end(), x);
            return static_cast<size_t>(it - list.begin());
        };
        for (size_t t = 0; t < test.threads.size(); t++) {
            ops_.emplace_back();
            for (const litmus::Access &a : test.threads[t].ops) {
                Op op;
                op.isWrite = a.isWrite;
                op.loc = index_of(locs_, a.loc);
                if (a.isWrite)
                    op.value = index_of(values_, a.value);
                else
                    op.slot = index_of(
                        slots_, std::make_pair(static_cast<int>(t), a.reg));
                ops_.back().push_back(op);
            }
        }
        for (const auto &ops : ops_)
            pcs_.push_back(place(ops.size()));
        for (size_t l = 0; l < locs_.size(); l++)
            loc_fields_.push_back(place(values_.size() - 1));
        for (size_t s = 0; s < slots_.size(); s++)
            slot_fields_.push_back(place(values_.size() - 1));
    }

    /** Words per state. */
    size_t words() const { return word_ + 1; }

    /**
     * Append to @p succ every state one access after @p s, one per
     * thread that has not finished.
     */
    void
    successors(const uint64_t *s, std::vector<uint64_t> &succ) const
    {
        size_t w = words();
        for (size_t t = 0; t < ops_.size(); t++) {
            uint64_t pc = pcs_[t].get(s);
            if (pc == ops_[t].size())
                continue;
            size_t at = succ.size();
            succ.insert(succ.end(), s, s + w);
            uint64_t *next = succ.data() + at;
            pcs_[t].set(next, pc + 1);
            const Op &op = ops_[t][pc];
            if (op.isWrite)
                loc_fields_[op.loc].set(next, op.value);
            else
                slot_fields_[op.slot].set(next,
                                          loc_fields_[op.loc].get(s));
        }
    }

    /** The outcome of a final state: every location, every slot. */
    Outcome
    outcome(const uint64_t *s) const
    {
        Outcome out;
        for (size_t i = 0; i < slots_.size(); i++)
            out.regs[slots_[i]] = values_[slot_fields_[i].get(s)];
        for (size_t l = 0; l < locs_.size(); l++)
            out.mem[locs_[l]] = values_[loc_fields_[l].get(s)];
        return out;
    }

  private:
    /** The next field wide enough for 0..@p max. */
    Field
    place(uint64_t max)
    {
        auto bits = static_cast<unsigned>(
            std::max<uint64_t>(1, std::bit_width(max)));
        if (shift_ + bits > 64)
            word_++, shift_ = 0;
        Field f{word_, shift_, ~uint64_t(0) >> (64 - bits)};
        shift_ += bits;
        return f;
    }

    std::vector<std::string> locs_;
    std::vector<int> values_{0};
    std::vector<std::pair<int, int>> slots_;
    std::vector<std::vector<Op>> ops_;
    std::vector<Field> pcs_, loc_fields_, slot_fields_;
    size_t word_ = 0;    ///< where the next field goes
    unsigned shift_ = 0;
};

/**
 * Visited states: open addressing over an arena of fixed-width keys.
 * The table holds 1-based arena indices (0 = empty) and stays at most
 * half full.
 */
class StateSet
{
  public:
    explicit StateSet(size_t words) : words_(words), table_(64, 0) {}

    size_t size() const { return arena_.size() / words_; }
    const uint64_t *key(size_t i) const { return &arena_[i * words_]; }

    /** Insert @p s; true iff it was not there yet. */
    bool
    insert(const uint64_t *s)
    {
        if (2 * (size() + 1) > table_.size())
            grow();
        size_t slot = find(s);
        if (table_[slot])
            return false;
        arena_.insert(arena_.end(), s, s + words_);
        table_[slot] = static_cast<uint32_t>(size());
        return true;
    }

  private:
    /** The table slot holding @p s, or the empty slot it would take. */
    size_t
    find(const uint64_t *s) const
    {
        // Fibonacci hashing: the top bits of the product depend on
        // every bit of the key.
        uint64_t h = 0;
        for (size_t w = 0; w < words_; w++)
            h = (h ^ s[w]) * 0x9e3779b97f4a7c15ull;
        size_t mask = table_.size() - 1;
        for (size_t i = h >> (64 - __builtin_ctzll(table_.size()));;
             i = (i + 1) & mask) {
            uint32_t e = table_[i];
            if (!e || std::equal(s, s + words_, key(e - 1)))
                return i;
        }
    }

    void
    grow()
    {
        R2U_ASSERT(size() < UINT32_MAX / 2, "SC state space too large");
        table_.assign(2 * table_.size(), 0);
        for (size_t i = 0; i < size(); i++)
            table_[find(key(i))] = static_cast<uint32_t>(i + 1);
    }

    size_t words_;
    std::vector<uint64_t> arena_;
    std::vector<uint32_t> table_;
};

} // namespace

std::set<Outcome>
enumerateSC(const litmus::Test &test)
{
    Layout layout(test);
    size_t words = layout.words();
    StateSet seen(words);
    std::vector<uint64_t> init(words, 0), succ;
    seen.insert(init.data());
    std::vector<size_t> stack{0};
    std::set<Outcome> outcomes;
    while (!stack.empty()) {
        size_t i = stack.back();
        stack.pop_back();
        succ.clear();
        layout.successors(seen.key(i), succ);
        if (succ.empty())
            outcomes.insert(layout.outcome(seen.key(i)));
        for (size_t at = 0; at < succ.size(); at += words)
            if (seen.insert(&succ[at]))
                stack.push_back(seen.size() - 1);
    }
    return outcomes;
}

bool
scAllows(const litmus::Test &test, const litmus::Condition &cond)
{
    for (const Outcome &o : enumerateSC(test))
        if (o.satisfies(cond))
            return true;
    return false;
}

} // namespace r2u::mcm

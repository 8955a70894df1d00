#include "sat/cnf.hh"

#include <algorithm>

#include "common/logging.hh"

namespace r2u::sat
{

template <size_t N>
size_t
CnfBuilder::GateTable<N>::home(const Key &key) const
{
    // Fibonacci hashing: the top bits of the product mix every input.
    uint64_t h = 0;
    for (int v : key)
        h = (h + static_cast<uint32_t>(v)) * 0x9e3779b97f4a7c15ull;
    return static_cast<size_t>(h >> shift_);
}

template <size_t N>
const Lit *
CnfBuilder::GateTable<N>::find(const Key &key) const
{
    if (size_ == 0)
        return nullptr;
    size_t mask = slots_.size() - 1;
    for (size_t i = home(key);; i = (i + 1) & mask) {
        const Slot &s = slots_[i];
        if (s.y == kLitUndef)
            return nullptr;
        if (s.key == key)
            return &s.y;
    }
}

template <size_t N>
void
CnfBuilder::GateTable<N>::insert(const Key &key, Lit y)
{
    if (2 * (size_ + 1) > slots_.size())
        grow();
    size_t mask = slots_.size() - 1;
    for (size_t i = home(key);; i = (i + 1) & mask) {
        Slot &s = slots_[i];
        if (s.y == kLitUndef) {
            s = Slot{key, y};
            size_++;
            return;
        }
        if (s.key == key)
            return;
    }
}

template <size_t N>
void
CnfBuilder::GateTable<N>::clear()
{
    if (size_ == 0)
        return;
    for (Slot &s : slots_)
        s.y = kLitUndef;
    size_ = 0;
}

template <size_t N>
void
CnfBuilder::GateTable<N>::grow()
{
    std::vector<Slot> old = std::move(slots_);
    size_t capacity = old.empty() ? 64 : 2 * old.size();
    slots_.assign(capacity, Slot{Key{}, kLitUndef});
    shift_ = 64 - static_cast<unsigned>(__builtin_ctzll(capacity));
    size_ = 0;
    for (const Slot &s : old)
        if (s.y != kLitUndef)
            insert(s.key, s.y);
}

CnfBuilder::CnfBuilder(Solver &solver) : solver_(solver)
{
    true_lit_ = mkLit(solver_.newVar());
    solver_.addClause(true_lit_);
}

void
CnfBuilder::adoptState(const CnfBuilder &other)
{
    R2U_ASSERT(!inScope(), "adoptState inside a scope");
    true_lit_ = other.true_lit_;
    shared_ = other.shared_;
    if (other.inScope())
        solver_.retireScope(other.scope_act_, other.scope_vars_);
}

void
CnfBuilder::beginScope()
{
    R2U_ASSERT(!inScope(), "beginScope inside a scope");
    solver_.openScope();
    scope_act_ = mkLit(solver_.newVar());
    scope_vars_.assign(1, var(scope_act_));
}

void
CnfBuilder::endScope()
{
    R2U_ASSERT(inScope() && permanent_ == 0, "endScope outside a scope");
    solver_.retireScope(scope_act_, scope_vars_);
    scope_act_ = kLitUndef;
    scope_vars_.clear();
    scope_.ands.clear();
    scope_.xors.clear();
    scope_.muxes.clear();
}

template <class Cache, class Key>
const Lit *
CnfBuilder::findGate(Cache Caches::*which, const Key &key) const
{
    if (const Lit *hit = (shared_.*which).find(key))
        return hit;
    return scoped() ? (scope_.*which).find(key) : nullptr;
}

template <class Cache, class Key>
void
CnfBuilder::cacheGate(Cache Caches::*which, const Key &key, Lit y)
{
    ((scoped() ? scope_ : shared_).*which).insert(key, y);
}

void
CnfBuilder::emit(std::initializer_list<Lit> lits)
{
    if (!scoped()) {
        solver_.addClause(lits);
        return;
    }
    Lit guarded[4];
    R2U_ASSERT(lits.size() < 4, "clause of %zu literals", lits.size());
    size_t n = 0;
    for (Lit l : lits)
        guarded[n++] = l;
    guarded[n++] = ~scope_act_;
    solver_.addClause(guarded, n);
}

Lit
CnfBuilder::freshLit()
{
    Lit l = mkLit(solver_.newVar());
    if (scoped())
        scope_vars_.push_back(var(l));
    return l;
}

Lit
CnfBuilder::mkAnd(Lit a, Lit b)
{
    // Constant folding and trivial cases.
    if (isFalse(a) || isFalse(b))
        return falseLit();
    if (isTrue(a))
        return b;
    if (isTrue(b))
        return a;
    if (a == b)
        return a;
    if (a == ~b)
        return falseLit();

    if (b.x < a.x)
        std::swap(a, b);
    GateTable<2>::Key key{a.x, b.x};
    if (const Lit *hit = findGate(&Caches::ands, key))
        return *hit;

    Lit y = freshLit();
    emit({~y, a});
    emit({~y, b});
    emit({~a, ~b, y});
    cacheGate(&Caches::ands, key, y);
    return y;
}

Lit
CnfBuilder::mkXor(Lit a, Lit b)
{
    if (isFalse(a))
        return b;
    if (isFalse(b))
        return a;
    if (isTrue(a))
        return ~b;
    if (isTrue(b))
        return ~a;
    if (a == b)
        return falseLit();
    if (a == ~b)
        return trueLit();

    // Normalize: strip signs into a result inversion.
    bool invert = false;
    if (sign(a)) {
        a = ~a;
        invert = !invert;
    }
    if (sign(b)) {
        b = ~b;
        invert = !invert;
    }
    if (b.x < a.x)
        std::swap(a, b);
    GateTable<2>::Key key{a.x, b.x};
    Lit y;
    if (const Lit *hit = findGate(&Caches::xors, key)) {
        y = *hit;
    } else {
        y = freshLit();
        emit({~y, a, b});
        emit({~y, ~a, ~b});
        emit({y, ~a, b});
        emit({y, a, ~b});
        cacheGate(&Caches::xors, key, y);
    }
    return invert ? ~y : y;
}

Lit
CnfBuilder::mkMux(Lit sel, Lit t, Lit f)
{
    if (isTrue(sel))
        return t;
    if (isFalse(sel))
        return f;
    if (t == f)
        return t;
    if (t == ~f)
        return mkXor(sel, f);
    if (isTrue(t))
        return mkOr(sel, f);
    if (isFalse(t))
        return mkAnd(~sel, f);
    if (isTrue(f))
        return mkOr(~sel, t);
    if (isFalse(f))
        return mkAnd(sel, t);
    if (sel == t)
        return mkOr(sel, f);
    if (sel == ~t)
        return mkAnd(~sel, f);
    if (sel == f)
        return mkAnd(sel, t);
    if (sel == ~f)
        return mkOr(~sel, t);

    // Canonicalize the select polarity, then encode the mux as a
    // single variable with six clauses (two redundant, for stronger
    // unit propagation) instead of two ANDs and an OR.
    if (sign(sel)) {
        sel = ~sel;
        std::swap(t, f);
    }
    GateTable<3>::Key key{sel.x, t.x, f.x};
    if (const Lit *hit = findGate(&Caches::muxes, key))
        return *hit;

    Lit y = freshLit();
    emit({~sel, ~t, y});
    emit({~sel, t, ~y});
    emit({sel, ~f, y});
    emit({sel, f, ~y});
    emit({~t, ~f, y});
    emit({t, f, ~y});
    cacheGate(&Caches::muxes, key, y);
    return y;
}

Lit
CnfBuilder::mkAndN(const std::vector<Lit> &ls)
{
    Lit acc = trueLit();
    for (Lit l : ls)
        acc = mkAnd(acc, l);
    return acc;
}

Lit
CnfBuilder::mkOrN(const std::vector<Lit> &ls)
{
    Lit acc = falseLit();
    for (Lit l : ls)
        acc = mkOr(acc, l);
    return acc;
}

Lit
CnfBuilder::mkOrTree(std::vector<Lit> ls)
{
    if (ls.empty())
        return falseLit();
    while (ls.size() > 1) {
        size_t out = 0;
        for (size_t i = 0; i + 1 < ls.size(); i += 2)
            ls[out++] = mkOr(ls[i], ls[i + 1]);
        if (ls.size() & 1)
            ls[out++] = ls.back();
        ls.resize(out);
    }
    return ls[0];
}

std::vector<Lit>
CnfBuilder::mkDecodeW(const Word &a)
{
    R2U_ASSERT(a.size() <= 24, "decode of a %zu-bit address", a.size());
    std::vector<Lit> out{trueLit()};
    for (Lit bit : a) {
        size_t sz = out.size();
        out.resize(2 * sz);
        for (size_t i = 0; i < sz; i++) {
            out[i + sz] = mkAnd(out[i], bit);
            out[i] = mkAnd(out[i], ~bit);
        }
    }
    return out;
}

Word
CnfBuilder::mkSelectW(const std::vector<Lit> &onehot,
                      const std::vector<Word> &words, unsigned width)
{
    R2U_ASSERT(words.size() <= onehot.size(),
               "select of %zu words through a %zu-line decode",
               words.size(), onehot.size());
    // A constant-true line wins outright: exactly one line is true,
    // so every other line must be constant-false.
    for (size_t i = 0; i < onehot.size(); i++)
        if (isTrue(onehot[i]))
            return i < words.size() ? words[i] : constWord(width, 0);

    Word out(width);
    for (unsigned b = 0; b < width; b++) {
        bool defined = false;
        for (size_t i = 0; i < words.size() && !defined; i++)
            defined = !isFalse(onehot[i]) && !isFalse(words[i][b]);
        if (!defined) {
            out[b] = falseLit();
            continue;
        }
        // out[b] <-> OR_i (onehot[i] & words[i][b]). Because exactly
        // one line is true, one implication pair per live line fully
        // defines the output — no auxiliary and/or variables.
        Lit y = freshLit();
        for (size_t i = 0; i < onehot.size(); i++) {
            Lit o = onehot[i];
            if (isFalse(o))
                continue;
            Lit a = i < words.size() ? words[i][b] : falseLit();
            if (isTrue(a)) {
                emit({~o, y});
            } else if (isFalse(a)) {
                emit({~o, ~y});
            } else {
                emit({~o, ~a, y});
                emit({~o, a, ~y});
            }
        }
        out[b] = y;
    }
    return out;
}

Word
CnfBuilder::constWord(const Bits &value)
{
    Word w(value.width());
    for (unsigned i = 0; i < value.width(); i++)
        w[i] = value.bit(i) ? trueLit() : falseLit();
    return w;
}

Word
CnfBuilder::constWord(unsigned width, uint64_t value)
{
    return constWord(Bits(width, value));
}

Word
CnfBuilder::freshWord(unsigned width)
{
    Word w(width);
    for (unsigned i = 0; i < width; i++)
        w[i] = freshLit();
    return w;
}

Word
CnfBuilder::mkAddW(const Word &a, const Word &b)
{
    R2U_ASSERT(a.size() == b.size(), "add width mismatch");
    Word sum(a.size());
    Lit carry = falseLit();
    for (size_t i = 0; i < a.size(); i++) {
        Lit axb = mkXor(a[i], b[i]);
        sum[i] = mkXor(axb, carry);
        carry = mkOr(mkAnd(a[i], b[i]), mkAnd(axb, carry));
    }
    return sum;
}

Word
CnfBuilder::mkNegW(const Word &a)
{
    Word inv = mkNotW(a);
    Word one = constWord(static_cast<unsigned>(a.size()), 1);
    return mkAddW(inv, one);
}

Word
CnfBuilder::mkSubW(const Word &a, const Word &b)
{
    R2U_ASSERT(a.size() == b.size(), "sub width mismatch");
    // a - b = a + ~b + 1
    Word sum(a.size());
    Lit carry = trueLit();
    for (size_t i = 0; i < a.size(); i++) {
        Lit nb = ~b[i];
        Lit axb = mkXor(a[i], nb);
        sum[i] = mkXor(axb, carry);
        carry = mkOr(mkAnd(a[i], nb), mkAnd(axb, carry));
    }
    return sum;
}

Word
CnfBuilder::mkAndW(const Word &a, const Word &b)
{
    R2U_ASSERT(a.size() == b.size(), "and width mismatch");
    Word r(a.size());
    for (size_t i = 0; i < a.size(); i++)
        r[i] = mkAnd(a[i], b[i]);
    return r;
}

Word
CnfBuilder::mkOrW(const Word &a, const Word &b)
{
    R2U_ASSERT(a.size() == b.size(), "or width mismatch");
    Word r(a.size());
    for (size_t i = 0; i < a.size(); i++)
        r[i] = mkOr(a[i], b[i]);
    return r;
}

Word
CnfBuilder::mkXorW(const Word &a, const Word &b)
{
    R2U_ASSERT(a.size() == b.size(), "xor width mismatch");
    Word r(a.size());
    for (size_t i = 0; i < a.size(); i++)
        r[i] = mkXor(a[i], b[i]);
    return r;
}

Word
CnfBuilder::mkNotW(const Word &a)
{
    Word r(a.size());
    for (size_t i = 0; i < a.size(); i++)
        r[i] = ~a[i];
    return r;
}

Word
CnfBuilder::mkMuxW(Lit sel, const Word &t, const Word &f)
{
    R2U_ASSERT(t.size() == f.size(), "mux width mismatch");
    Word r(t.size());
    for (size_t i = 0; i < t.size(); i++)
        r[i] = mkMux(sel, t[i], f[i]);
    return r;
}

Lit
CnfBuilder::mkEqW(const Word &a, const Word &b)
{
    R2U_ASSERT(a.size() == b.size(), "eq width mismatch");
    Lit acc = trueLit();
    for (size_t i = 0; i < a.size(); i++)
        acc = mkAnd(acc, mkEq(a[i], b[i]));
    return acc;
}

Lit
CnfBuilder::mkUltW(const Word &a, const Word &b)
{
    R2U_ASSERT(a.size() == b.size(), "ult width mismatch");
    // Ripple from LSB: lt_i = (~a & b) | (a==b) & lt_{i-1}
    Lit lt = falseLit();
    for (size_t i = 0; i < a.size(); i++) {
        Lit here_lt = mkAnd(~a[i], b[i]);
        Lit here_eq = mkEq(a[i], b[i]);
        lt = mkOr(here_lt, mkAnd(here_eq, lt));
    }
    return lt;
}

Lit
CnfBuilder::mkSltW(const Word &a, const Word &b)
{
    R2U_ASSERT(a.size() == b.size() && !a.empty(), "slt width mismatch");
    Lit sa = a.back(), sb = b.back();
    Lit ult = mkUltW(a, b);
    // Different signs: a < b iff a negative. Same sign: unsigned compare.
    return mkMux(mkXor(sa, sb), sa, ult);
}

Lit
CnfBuilder::mkRedOrW(const Word &a)
{
    Lit acc = falseLit();
    for (Lit l : a)
        acc = mkOr(acc, l);
    return acc;
}

Lit
CnfBuilder::mkRedAndW(const Word &a)
{
    Lit acc = trueLit();
    for (Lit l : a)
        acc = mkAnd(acc, l);
    return acc;
}

Word
CnfBuilder::mkShlW(const Word &a, const Word &sh)
{
    Word cur = a;
    unsigned n = static_cast<unsigned>(a.size());
    for (size_t s = 0; s < sh.size(); s++) {
        unsigned amount = 1u << s;
        if (amount >= n) {
            // Shifting by >= width zeroes the word if this bit is set.
            Word zero = constWord(n, 0);
            cur = mkMuxW(sh[s], zero, cur);
            continue;
        }
        Word shifted(n);
        for (unsigned i = 0; i < n; i++)
            shifted[i] = (i >= amount) ? cur[i - amount] : falseLit();
        cur = mkMuxW(sh[s], shifted, cur);
    }
    return cur;
}

Word
CnfBuilder::mkLshrW(const Word &a, const Word &sh)
{
    Word cur = a;
    unsigned n = static_cast<unsigned>(a.size());
    for (size_t s = 0; s < sh.size(); s++) {
        unsigned amount = 1u << s;
        if (amount >= n) {
            Word zero = constWord(n, 0);
            cur = mkMuxW(sh[s], zero, cur);
            continue;
        }
        Word shifted(n);
        for (unsigned i = 0; i < n; i++)
            shifted[i] =
                (i + amount < n) ? cur[i + amount] : falseLit();
        cur = mkMuxW(sh[s], shifted, cur);
    }
    return cur;
}

Word
CnfBuilder::mkAshrW(const Word &a, const Word &sh)
{
    Word cur = a;
    unsigned n = static_cast<unsigned>(a.size());
    Lit sign_bit = a.empty() ? falseLit() : a.back();
    for (size_t s = 0; s < sh.size(); s++) {
        unsigned amount = 1u << s;
        Word shifted(n);
        for (unsigned i = 0; i < n; i++)
            shifted[i] =
                (i + amount < n) ? cur[i + amount] : sign_bit;
        cur = mkMuxW(sh[s], shifted, cur);
    }
    return cur;
}

Word
CnfBuilder::zextW(const Word &a, unsigned width, Lit false_lit)
{
    R2U_ASSERT(width >= a.size(), "zext shrinks");
    Word r = a;
    r.resize(width, false_lit);
    return r;
}

Word
CnfBuilder::sextW(const Word &a, unsigned width)
{
    R2U_ASSERT(width >= a.size() && !a.empty(), "sext shrinks");
    Word r = a;
    r.resize(width, a.back());
    return r;
}

Word
CnfBuilder::sliceW(const Word &a, unsigned lo, unsigned width)
{
    R2U_ASSERT(lo + width <= a.size(), "slice out of range");
    return Word(a.begin() + lo, a.begin() + lo + width);
}

Word
CnfBuilder::concatW(const Word &hi, const Word &lo)
{
    Word r = lo;
    r.insert(r.end(), hi.begin(), hi.end());
    return r;
}

Bits
CnfBuilder::modelWord(const Word &w) const
{
    Bits b(static_cast<unsigned>(w.size()));
    for (size_t i = 0; i < w.size(); i++) {
        Lit l = w[i];
        bool v;
        if (l == true_lit_)
            v = true;
        else if (l == ~true_lit_)
            v = false;
        else
            v = solver_.modelValue(l);
        b.setBit(static_cast<unsigned>(i), v);
    }
    return b;
}

} // namespace r2u::sat

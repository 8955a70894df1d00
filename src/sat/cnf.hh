/**
 * @file
 * Tseitin-style circuit-to-CNF construction on top of sat::Solver.
 *
 * The BMC engine bit-blasts word-level netlist cells through this
 * builder. Gates are structurally hashed (AIG-style) and constants are
 * folded, which keeps the unrolled formulas small — the property
 * localization that makes rtl2uspec's SVAs cheap shows up here as tiny
 * cone-of-influence CNFs.
 *
 * Words are little-endian vectors of literals (index 0 = LSB).
 *
 * A query scope (beginScope/endScope) makes everything a property
 * builds retirable: its clauses carry the negated activation literal,
 * its gates live in scope-local caches and its variables are recorded,
 * so that endScope() leaves the solver as if the query had never been
 * encoded. Construction that must outlive the query — the unrolled
 * transition relation — runs inside a Permanent section.
 */

#ifndef R2U_SAT_CNF_HH
#define R2U_SAT_CNF_HH

#include <array>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "common/bits.hh"
#include "sat/solver.hh"

namespace r2u::sat
{

using Word = std::vector<Lit>;

class CnfBuilder
{
  public:
    explicit CnfBuilder(Solver &solver);

    Solver &solver() { return solver_; }

    /** Literal that is constrained true (its negation is false). */
    Lit trueLit() const { return true_lit_; }
    Lit falseLit() const { return ~true_lit_; }

    /** Fresh unconstrained literal. */
    Lit freshLit();

    bool isTrue(Lit l) const { return l == true_lit_; }
    bool isFalse(Lit l) const { return l == ~true_lit_; }
    bool isConst(Lit l) const { return isTrue(l) || isFalse(l); }

    // --- bit-level gates ---
    Lit mkAnd(Lit a, Lit b);
    Lit mkOr(Lit a, Lit b) { return ~mkAnd(~a, ~b); }
    Lit mkXor(Lit a, Lit b);
    Lit mkEq(Lit a, Lit b) { return ~mkXor(a, b); }
    Lit mkMux(Lit sel, Lit t, Lit f);
    Lit mkImplies(Lit a, Lit b) { return mkOr(~a, b); }
    Lit mkAndN(const std::vector<Lit> &ls);
    Lit mkOrN(const std::vector<Lit> &ls);

    /**
     * Balanced OR over a set of literals. Same function as mkOrN but
     * tree-shaped (depth log n instead of n), the right shape for wide
     * memory select terms.
     */
    Lit mkOrTree(std::vector<Lit> ls);

    /**
     * One-hot address decode: result[i] is true iff a == i, for all
     * 2^|a| indices. Built by serial expansion (doubling the vector
     * per address bit), so common prefixes are shared across the
     * outputs — and, via the gate cache, across every decode of the
     * same address word.
     */
    std::vector<Lit> mkDecodeW(const Word &a);

    /**
     * One-hot select: the word picked by the single true line of
     * `onehot`, with lines beyond words.size() (and an all-false
     * onehot) reading as zero. Precondition: exactly one line of
     * `onehot` is true in every assignment — i.e. a complete
     * mkDecodeW output. Clause-encoded: one fresh variable per output
     * bit and two clauses per line, instead of a per-line AND/OR tree
     * (~2x depth auxiliary variables per bit).
     */
    Word mkSelectW(const std::vector<Lit> &onehot,
                   const std::vector<Word> &words, unsigned width);

    // --- word-level operations (operand widths must match) ---
    Word constWord(const Bits &value);
    Word constWord(unsigned width, uint64_t value);
    Word freshWord(unsigned width);

    Word mkAddW(const Word &a, const Word &b);
    Word mkSubW(const Word &a, const Word &b);
    Word mkAndW(const Word &a, const Word &b);
    Word mkOrW(const Word &a, const Word &b);
    Word mkXorW(const Word &a, const Word &b);
    Word mkNotW(const Word &a);
    Word mkMuxW(Lit sel, const Word &t, const Word &f);
    Word mkNegW(const Word &a);

    Lit mkEqW(const Word &a, const Word &b);
    Lit mkUltW(const Word &a, const Word &b);
    Lit mkSltW(const Word &a, const Word &b);
    Lit mkRedOrW(const Word &a);
    Lit mkRedAndW(const Word &a);

    /** Barrel shifters; shift amount is a word. Result width = a. */
    Word mkShlW(const Word &a, const Word &sh);
    Word mkLshrW(const Word &a, const Word &sh);
    Word mkAshrW(const Word &a, const Word &sh);

    static Word zextW(const Word &a, unsigned width, Lit false_lit);
    static Word sextW(const Word &a, unsigned width);
    static Word sliceW(const Word &a, unsigned lo, unsigned width);
    static Word concatW(const Word &hi, const Word &lo);

    /**
     * Adopt another builder's structural-hash caches and true
     * literal. Only meaningful right after Solver::cloneFrom() of the
     * other builder's solver (identical variable numbering): future
     * gate constructions then hit the donor's cache instead of
     * re-encoding shared structure. A donor's open scope is retired
     * here at once, so this copy holds none of its clauses, gates or
     * variables.
     */
    void adoptState(const CnfBuilder &other);

    /**
     * Open a query scope with a fresh activation literal act. Until
     * endScope(), every clause this builder emits outside a Permanent
     * section carries ~act, new gates go to scope-local caches, and
     * new variables are recorded as the scope's.
     */
    void beginScope();

    /**
     * Retire the scope (Solver::retireScope): ~act becomes a level-0
     * fact, the scope's clauses and the learnt clauses derived from
     * them are deleted, and its variables leave the search.
     */
    void endScope();

    bool inScope() const { return scope_act_ != kLitUndef; }

    /** The open scope's activation literal (kLitUndef outside one). */
    Lit activation() const { return scope_act_; }

    /**
     * While one lives, the builder emits unguarded clauses into the
     * shared caches, as outside a scope: for the unrolling, whose
     * gates every later query reuses. Gates built in here never read
     * a scope-local cache entry, so nothing permanent depends on the
     * scope.
     */
    class Permanent
    {
      public:
        explicit Permanent(CnfBuilder &cnf) : cnf_(cnf) { cnf_.permanent_++; }
        ~Permanent() { cnf_.permanent_--; }
        Permanent(const Permanent &) = delete;
        Permanent &operator=(const Permanent &) = delete;

      private:
        CnfBuilder &cnf_;
    };

    /** Assert a literal: at the root level, or guarded inside a scope. */
    void assertLit(Lit l) { emit({l}); }

    /** Evaluate a word in the solver's current model. */
    Bits modelWord(const Word &w) const;

    size_t numGates() const { return shared_.ands.size(); }

  private:
    /**
     * Structural-hash cache of one gate kind: the gate's N input
     * literals to its output literal, in one open-addressing array
     * (linear probing, power-of-two size, at most half full). Gates
     * are only ever added, and a scope's table is emptied whole, so
     * there are no tombstones; copying or freeing a table is one
     * array copy or free.
     */
    template <size_t N>
    class GateTable
    {
      public:
        using Key = std::array<int, N>;

        /** The cached output for @p key, or null. */
        const Lit *find(const Key &key) const;
        /** Cache @p y for @p key (an existing entry stays). */
        void insert(const Key &key, Lit y);
        /** Drop every entry and keep the array for the next scope. */
        void clear();
        size_t size() const { return size_; }

      private:
        struct Slot
        {
            Key key;
            Lit y; ///< kLitUndef: empty
        };

        size_t home(const Key &key) const;
        void grow();

        std::vector<Slot> slots_;
        size_t size_ = 0;
        unsigned shift_ = 64; ///< 64 - log2(slots_.size())
    };

    /** One set of structural-hash caches. */
    struct Caches
    {
        GateTable<2> ands, xors;
        GateTable<3> muxes;
    };

    /** In a scope and outside every Permanent section. */
    bool scoped() const { return inScope() && permanent_ == 0; }

    /** The cached gate for @p key, shared caches first; null if none. */
    template <class Cache, class Key>
    const Lit *findGate(Cache Caches::*which, const Key &key) const;

    /** Cache a new gate: scope-local while scoped, else shared. */
    template <class Cache, class Key>
    void cacheGate(Cache Caches::*which, const Key &key, Lit y);

    /** Add a clause, with ~act appended while scoped. */
    void emit(std::initializer_list<Lit> lits);

    Solver &solver_;
    Lit true_lit_;
    Caches shared_;
    Caches scope_;
    Lit scope_act_ = kLitUndef;
    std::vector<Var> scope_vars_;
    int permanent_ = 0;
};

} // namespace r2u::sat

#endif // R2U_SAT_CNF_HH

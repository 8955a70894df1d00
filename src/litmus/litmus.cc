#include "litmus/litmus.hh"

#include <algorithm>
#include <map>
#include <set>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace r2u::litmus
{

std::vector<std::string>
Test::locations() const
{
    std::vector<std::string> locs;
    for (const Thread &t : threads) {
        for (const Access &a : t.ops) {
            if (std::find(locs.begin(), locs.end(), a.loc) == locs.end())
                locs.push_back(a.loc);
        }
    }
    // Locations named in final-memory conditions count too.
    for (const MemCond &mc : interesting.mem) {
        if (std::find(locs.begin(), locs.end(), mc.loc) == locs.end())
            locs.push_back(mc.loc);
    }
    return locs;
}

std::vector<std::vector<int>>
Test::readRegs() const
{
    std::vector<std::vector<int>> out(threads.size());
    for (size_t t = 0; t < threads.size(); t++)
        for (const Access &a : threads[t].ops)
            if (!a.isWrite)
                out[t].push_back(a.reg);
    return out;
}

std::string
Test::print() const
{
    std::string out = "name " + name + "\n";
    for (size_t t = 0; t < threads.size(); t++) {
        out += strfmt("thread %zu\n", t);
        for (const Access &a : threads[t].ops) {
            if (a.isWrite)
                out += strfmt("w %s %d\n", a.loc.c_str(), a.value);
            else
                out += strfmt("r %s %d\n", a.loc.c_str(), a.reg);
        }
    }
    out += "interesting ";
    bool first = true;
    for (const RegCond &rc : interesting.regs) {
        if (!first)
            out += " & ";
        out += strfmt("%d:x%d=%d", rc.thread, rc.reg, rc.value);
        first = false;
    }
    for (const MemCond &mc : interesting.mem) {
        if (!first)
            out += " & ";
        out += strfmt("%s=%d", mc.loc.c_str(), mc.value);
        first = false;
    }
    out += "\n";
    return out;
}

namespace
{

/** A whole-token integer field of litmus line @p line; fatal()
 *  naming the line when it is malformed or out of int range. */
int
intField(const char *what, const std::string &tok,
         const std::string &line)
{
    try {
        return parseInt(what, trim(tok));
    } catch (const FatalError &e) {
        fatal("litmus: %s in line '%s'", e.what(), line.c_str());
    }
}

} // namespace

Test
Test::parse(const std::string &text)
{
    Test test;
    for (const std::string &raw : split(text, '\n')) {
        std::string line = raw;
        size_t c = line.find('#');
        if (c != std::string::npos)
            line = line.substr(0, c);
        line = trim(line);
        if (line.empty())
            continue;
        auto toks = splitWs(line);
        if (toks[0] == "name") {
            if (toks.size() != 2)
                fatal("litmus: bad name line '%s'", line.c_str());
            test.name = toks[1];
        } else if (toks[0] == "thread") {
            if (toks.size() != 2)
                fatal("litmus: bad thread line '%s'", line.c_str());
            int idx = intField("thread index", toks[1], line);
            if (idx < 0 || static_cast<size_t>(idx) != test.threads.size())
                fatal("litmus: threads must be declared in order");
            test.threads.emplace_back();
        } else if (toks[0] == "w" || toks[0] == "r") {
            if (test.threads.empty() || toks.size() != 3)
                fatal("litmus: bad access line '%s'", line.c_str());
            Access a;
            a.isWrite = toks[0] == "w";
            a.loc = toks[1];
            int v = intField(a.isWrite ? "value" : "register", toks[2],
                             line);
            if (a.isWrite)
                a.value = v;
            else
                a.reg = v;
            test.threads.back().ops.push_back(a);
        } else if (toks[0] == "interesting") {
            std::string rest = trim(line.substr(toks[0].size()));
            for (std::string part : split(rest, '&')) {
                part = trim(part);
                if (part.empty())
                    continue;
                size_t colon = part.find(':');
                size_t eq = part.find('=');
                if (eq == std::string::npos)
                    fatal("litmus: bad condition '%s'", part.c_str());
                if (colon != std::string::npos && colon < eq) {
                    RegCond rc;
                    rc.thread = intField("thread",
                                         part.substr(0, colon), line);
                    std::string reg =
                        trim(part.substr(colon + 1, eq - colon - 1));
                    if (reg.empty() || reg[0] != 'x')
                        fatal("litmus: bad register '%s'", reg.c_str());
                    rc.reg = intField("register", reg.substr(1), line);
                    rc.value =
                        intField("value", part.substr(eq + 1), line);
                    test.interesting.regs.push_back(rc);
                } else {
                    MemCond mc;
                    mc.loc = trim(part.substr(0, eq));
                    mc.value =
                        intField("value", part.substr(eq + 1), line);
                    test.interesting.mem.push_back(mc);
                }
            }
        } else {
            fatal("litmus: unexpected line '%s'", line.c_str());
        }
    }
    if (test.name.empty() || test.threads.empty())
        fatal("litmus: test needs a name and at least one thread");
    return test;
}

std::string
Test::threadAssembly(size_t thread) const
{
    R2U_ASSERT(thread < threads.size(), "bad thread index");
    auto locs = locations();
    auto addr_of = [&](const std::string &loc) {
        for (size_t i = 0; i < locs.size(); i++)
            if (locs[i] == loc)
                return static_cast<int>(4 * i);
        panic("unknown location");
    };
    std::string out;
    for (const Access &a : threads[thread].ops) {
        if (a.isWrite) {
            out += strfmt("addi x1, x0, %d\n", a.value);
            out += strfmt("sw x1, %d(x0)\n", addr_of(a.loc));
        } else {
            out += strfmt("lw x%d, %d(x0)\n", a.reg, addr_of(a.loc));
        }
    }
    return out;
}

// ----------------------------------------------------------------------
// diy-style generation from critical cycles.
// ----------------------------------------------------------------------

namespace
{

struct CycleEvent
{
    int thread = 0;
    int loc = 0;
    bool isWrite = false;
    int value = 0; ///< for writes
    int reg = 0;   ///< for reads
};

} // namespace

Test
generateFromCycle(const std::string &name, const std::string &cycle)
{
    auto rels = splitWs(cycle);
    if (rels.empty())
        fatal("empty cycle specification");

    struct Rel
    {
        std::string text;
        char from, to;
        bool external;
    };
    auto parseRel = [&](const std::string &r) -> Rel {
        if (r == "Rfe")
            return {r, 'W', 'R', true};
        if (r == "Fre")
            return {r, 'R', 'W', true};
        if (r == "Wse")
            return {r, 'W', 'W', true};
        if (startsWith(r, "Pod") && r.size() == 5)
            return {r, r[3], r[4], false};
        fatal("unknown cycle relation '%s'", r.c_str());
    };
    std::vector<Rel> parsed;
    for (const auto &r : rels)
        parsed.push_back(parseRel(r));
    size_t n = parsed.size();

    // Rotate so the last relation is external: then event 0 starts
    // thread 0 and every thread's events are contiguous in cycle
    // order (program order == cycle order within a thread).
    size_t last_ext = n;
    for (size_t i = 0; i < n; i++)
        if (parsed[i].external)
            last_ext = i;
    if (last_ext == n)
        fatal("cycle '%s' has no external relation", cycle.c_str());
    std::rotate(parsed.begin(), parsed.begin() + (last_ext + 1) % n,
                parsed.end());

    for (size_t i = 0; i < n; i++) {
        if (parsed[i].to != parsed[(i + 1) % n].from)
            fatal("cycle '%s': relation %zu type mismatch",
                  cycle.c_str(), i);
    }

    size_t npods = 0, nexts = 0;
    for (const auto &r : parsed)
        (r.external ? nexts : npods)++;
    if (npods == 0)
        fatal("cycle '%s' has no program-order relation", cycle.c_str());

    // Build events. Event i is the source of relation i; program
    // order edges advance the location (mod #pods), external edges
    // advance the thread.
    std::vector<CycleEvent> events(n);
    int thread = 0, loc = 0;
    for (size_t i = 0; i < n; i++) {
        events[i].thread = thread;
        events[i].loc = loc;
        events[i].isWrite = parsed[i].from == 'W';
        if (parsed[i].external)
            thread++;
        else
            loc = static_cast<int>((loc + 1) % npods);
    }
    int nthreads = thread; // last relation is external and wraps to 0

    // Coherence-order writes per location: Wse edges constrain the
    // source co-before the target; unrelated writes keep cycle order.
    // Assign values 1, 2, ... in coherence order.
    std::map<int, std::vector<size_t>> writes_of; // loc -> event idx
    for (size_t i = 0; i < n; i++)
        if (events[i].isWrite)
            writes_of[events[i].loc].push_back(i);
    for (auto &[l, ws] : writes_of) {
        // Stable ordering: repeatedly pick a write with no unassigned
        // Wse predecessor.
        std::vector<size_t> order;
        std::set<size_t> remaining(ws.begin(), ws.end());
        while (!remaining.empty()) {
            size_t picked = *remaining.begin();
            for (size_t cand : remaining) {
                bool has_pred = false;
                for (size_t i = 0; i < n; i++) {
                    size_t to = (i + 1) % n;
                    if (parsed[i].text == "Wse" && to == cand &&
                        remaining.count(i))
                        has_pred = true;
                }
                if (!has_pred) {
                    picked = cand;
                    break;
                }
            }
            order.push_back(picked);
            remaining.erase(picked);
        }
        int v = 0;
        for (size_t idx : order)
            events[idx].value = ++v;
    }

    // Read values: an Rfe edge makes its target read the source
    // write's value; an Fre edge makes its source read the coherence
    // predecessor of the target write.
    std::vector<int> read_value(n, 0);
    for (size_t i = 0; i < n; i++) {
        size_t to = (i + 1) % n;
        if (parsed[i].text == "Rfe")
            read_value[to] = events[i].value;
        else if (parsed[i].text == "Fre")
            read_value[i] = events[to].value - 1;
    }

    std::vector<std::string> loc_names;
    for (size_t l = 0; l < npods; l++) {
        if (l == 0)
            loc_names.push_back("x");
        else if (l == 1)
            loc_names.push_back("y");
        else if (l == 2)
            loc_names.push_back("z");
        else
            loc_names.push_back("a" + std::to_string(l));
    }

    Test test;
    test.name = name;
    test.threads.resize(static_cast<size_t>(nthreads));
    std::vector<int> next_reg(static_cast<size_t>(nthreads), 2);
    for (size_t i = 0; i < n; i++) {
        CycleEvent &e = events[i];
        Access a;
        a.isWrite = e.isWrite;
        a.loc = loc_names[static_cast<size_t>(e.loc)];
        if (e.isWrite) {
            a.value = e.value;
        } else {
            a.reg = next_reg[static_cast<size_t>(e.thread)]++;
            RegCond rc;
            rc.thread = e.thread;
            rc.reg = a.reg;
            rc.value = read_value[i];
            test.interesting.regs.push_back(rc);
        }
        test.threads[static_cast<size_t>(e.thread)].ops.push_back(a);
    }

    // Locations with multiple writes need a final-value condition to
    // pin the coherence order the cycle asserts.
    for (const auto &[l, ws] : writes_of) {
        if (ws.size() < 2)
            continue;
        MemCond mc;
        mc.loc = loc_names[static_cast<size_t>(l)];
        mc.value = 0;
        for (size_t idx : ws)
            mc.value = std::max(mc.value, events[idx].value);
        test.interesting.mem.push_back(mc);
    }
    return test;
}

// ----------------------------------------------------------------------
// The 56-test suite.
// ----------------------------------------------------------------------

std::vector<Test>
standardSuite()
{
    std::vector<Test> suite;
    auto hand = [&](const char *text) {
        suite.push_back(Test::parse(text));
    };

    // --- hand-written classics (x86-TSO-suite flavor) ---
    hand(R"(name mp
thread 0
w x 1
w y 1
thread 1
r y 2
r x 3
interesting 1:x2=1 & 1:x3=0)");

    hand(R"(name sb
thread 0
w x 1
r y 2
thread 1
w y 1
r x 2
interesting 0:x2=0 & 1:x2=0)");

    hand(R"(name lb
thread 0
r x 2
w y 1
thread 1
r y 2
w x 1
interesting 0:x2=1 & 1:x2=1)");

    hand(R"(name wrc
thread 0
w x 1
thread 1
r x 2
w y 1
thread 2
r y 2
r x 3
interesting 1:x2=1 & 2:x2=1 & 2:x3=0)");

    hand(R"(name rwc
thread 0
w x 1
thread 1
r x 2
r y 3
thread 2
w y 1
r x 2
interesting 1:x2=1 & 1:x3=0 & 2:x2=0)");

    hand(R"(name iriw
thread 0
w x 1
thread 1
w y 1
thread 2
r x 2
r y 3
thread 3
r y 2
r x 3
interesting 2:x2=1 & 2:x3=0 & 3:x2=1 & 3:x3=0)");

    hand(R"(name corr
thread 0
w x 1
thread 1
r x 2
r x 3
interesting 1:x2=1 & 1:x3=0)");

    hand(R"(name coww
thread 0
w x 1
w x 2
interesting x=1)");

    hand(R"(name cowr
thread 0
w x 1
r x 2
thread 1
w x 2
interesting 0:x2=2 & x=1)");

    hand(R"(name corw
thread 0
r x 2
w x 1
interesting 0:x2=1)");

    hand(R"(name 2+2w
thread 0
w x 1
w y 2
thread 1
w y 1
w x 2
interesting x=1 & y=1)");

    hand(R"(name s
thread 0
w x 2
w y 1
thread 1
r y 2
w x 1
interesting 1:x2=1 & x=2)");

    hand(R"(name r
thread 0
w x 1
w y 1
thread 1
w y 2
r x 2
interesting 1:x2=0 & y=2)");

    hand(R"(name ssl
thread 0
w x 1
r x 2
r y 3
thread 1
w y 1
r y 2
r x 3
interesting 0:x2=1 & 0:x3=0 & 1:x2=1 & 1:x3=0)");

    hand(R"(name wrw+2w
thread 0
w x 1
r y 2
thread 1
w y 1
w x 2
interesting 0:x2=0 & x=1)");

    hand(R"(name wrr+2r
thread 0
w x 1
r y 2
thread 1
w y 1
thread 2
r y 2
r x 3
interesting 0:x2=0 & 2:x2=1 & 2:x3=0)");

    hand(R"(name mp3
thread 0
w x 1
w y 1
thread 1
r y 2
w z 1
thread 2
r z 2
r x 3
interesting 1:x2=1 & 2:x2=1 & 2:x3=0)");

    hand(R"(name sb3
thread 0
w x 1
r y 2
thread 1
w y 1
r z 2
thread 2
w z 1
r x 2
interesting 0:x2=0 & 1:x2=0 & 2:x2=0)");

    hand(R"(name lb3
thread 0
r x 2
w y 1
thread 1
r y 2
w z 1
thread 2
r z 2
w x 1
interesting 0:x2=1 & 1:x2=1 & 2:x2=1)");

    hand(R"(name co2w
thread 0
w x 1
thread 1
w x 2
r x 3
interesting 1:x3=1 & x=2)");

    // --- generated safe tests from critical-cycle enumeration ---
    const char *exts[] = {"Rfe", "Fre", "Wse"};
    auto to_type = [](const std::string &r) {
        return r == "Fre" ? 'W' : (r == "Rfe" ? 'R' : 'W');
    };
    auto from_type = [](const std::string &r) {
        return r == "Fre" ? 'R' : 'W';
    };
    int id = 0;
    // Two-thread cycles: ext pod ext pod.
    for (const char *e1 : exts) {
        for (const char *e2 : exts) {
            std::string pod1 = std::string("Pod") + to_type(e1) +
                               from_type(e2);
            std::string pod2 = std::string("Pod") + to_type(e2) +
                               from_type(e1);
            std::string cyc = std::string(e1) + " " + pod1 + " " + e2 +
                              " " + pod2;
            suite.push_back(generateFromCycle(
                strfmt("safe%03d", id++), cyc));
        }
    }
    // Three-thread cycles: (ext pod) x3.
    for (const char *e1 : exts) {
        for (const char *e2 : exts) {
            for (const char *e3 : exts) {
                std::string pod1 = std::string("Pod") + to_type(e1) +
                                   from_type(e2);
                std::string pod2 = std::string("Pod") + to_type(e2) +
                                   from_type(e3);
                std::string pod3 = std::string("Pod") + to_type(e3) +
                                   from_type(e1);
                std::string cyc = std::string(e1) + " " + pod1 + " " +
                                  std::string(e2) + " " + pod2 + " " +
                                  std::string(e3) + " " + pod3;
                suite.push_back(generateFromCycle(
                    strfmt("safe%03d", id++), cyc));
            }
        }
    }

    R2U_ASSERT(suite.size() == 56, "suite has %zu tests, expected 56",
               suite.size());
    return suite;
}

} // namespace r2u::litmus

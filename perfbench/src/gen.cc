#include "gen.hh"

#include "bench.hh"
#include "common/logging.hh"
#include "common/strutil.hh"

namespace perfbench
{

namespace json = r2u::serve::json;

std::string
diyCycle(const std::vector<int> &exts)
{
    static const char *names[] = {"Rfe", "Fre", "Wse"};
    // Access kind at each end of an external relation.
    static const char src[] = {'W', 'R', 'W'};
    static const char dst[] = {'R', 'W', 'W'};
    std::string cycle;
    size_t n = exts.size();
    for (size_t i = 0; i < n; i++) {
        int e = exts[i], next = exts[(i + 1) % n];
        cycle += r2u::strfmt("%s%s Pod%c%c", i ? " " : "", names[e], dst[e],
                             src[next]);
    }
    return cycle;
}

std::string
diyCycle(Rng &rng, int threads)
{
    std::vector<int> exts;
    for (int i = 0; i < threads; i++)
        exts.push_back(int(rng.below(3)));
    return diyCycle(exts);
}

r2u::litmus::Test
cohStress(int writers, int reads)
{
    r2u::litmus::Test t;
    t.name = r2u::strfmt("stress_coh_w%d_r%d", writers, reads);
    for (int i = 0; i < writers; i++) {
        r2u::litmus::Thread th;
        th.ops.push_back({true, "x", i + 1, 0});
        t.threads.push_back(th);
    }
    r2u::litmus::Thread reader;
    for (int r = 0; r < reads; r++)
        reader.ops.push_back({false, "x", 0, r});
    t.threads.push_back(reader);
    t.interesting.regs = {{writers, 0, writers}, {writers, 1, 1}};
    return t;
}

r2u::litmus::Test
mixedStress(int writers)
{
    r2u::litmus::Test t;
    t.name = r2u::strfmt("stress_mixed_w%d", writers);
    for (int i = 0; i < writers; i++) {
        r2u::litmus::Thread th;
        th.ops.push_back({true, "x", i + 1, 0});
        th.ops.push_back({true, "y", i + 1, 0});
        t.threads.push_back(th);
    }
    r2u::litmus::Thread reader;
    reader.ops.push_back({false, "x", 0, 0});
    reader.ops.push_back({false, "y", 0, 1});
    t.threads.push_back(reader);
    t.interesting.regs = {{writers, 0, writers}, {writers, 1, 0}};
    return t;
}

json::Value
synthesizeRequest(const std::string &root, unsigned jobs)
{
    SynthInput in = synthInput(root);
    json::Value req = json::Value::object();
    req.set("type", json::Value::string("synthesize"));
    req.set("top", json::Value::string(in.top));
    req.set("meta", json::Value::string(in.metaPath));
    json::Value files = json::Value::array();
    for (const auto &f : in.files)
        files.push(json::Value::string(f));
    req.set("files", std::move(files));
    json::Value params = json::Value::object();
    for (const auto &[k, v] : in.params)
        params.set(k, json::Value::number(v));
    req.set("params", std::move(params));
    req.set("jobs", json::Value::number(int64_t{jobs}));
    return req;
}

std::vector<ServeRequest>
serveMix(uint64_t seed, size_t count, const std::string &root,
         const std::string &model_path)
{
    Rng rng(seed);
    // Campaign contents are dealt from seeded permutations rather than
    // drawn independently: every suite test and every 4- and 5-thread
    // external-relation pattern comes up once per pass, so a run's
    // campaign work hardly depends on the seed, only its order does.
    std::vector<std::string> suite;
    for (const auto &t : r2u::litmus::standardSuite())
        suite.push_back(t.name);
    rng.shuffle(suite);
    std::vector<std::vector<int>> patterns;
    for (int threads : {4, 5}) {
        int total = 1;
        for (int i = 0; i < threads; i++)
            total *= 3;
        for (int code = 0; code < total; code++) {
            std::vector<int> exts;
            for (int i = 0, c = code; i < threads; i++, c /= 3)
                exts.push_back(c % 3);
            patterns.push_back(std::move(exts));
        }
    }
    rng.shuffle(patterns);
    size_t next_test = 0, next_pattern = 0;

    ServeRequest synth;
    synth.kind = ServeRequest::Kind::Synthesize;
    synth.body = synthesizeRequest(root, 1);
    ServeRequest status;
    status.body = json::Value::object();
    status.body.set("type", json::Value::string("status"));

    std::vector<ServeRequest> out;
    while (out.size() < count) {
        std::vector<ServeRequest> block(14, synth);
        block.push_back(status);
        for (int i = 0; i < 5; i++) {
            ServeRequest c;
            c.kind = ServeRequest::Kind::Campaign;
            c.body = json::Value::object();
            c.body.set("type", json::Value::string("campaign"));
            c.body.set("model", json::Value::string(model_path));
            if (i % 2 == 1) {
                c.body.set("cycle",
                           json::Value::string(diyCycle(
                               patterns[next_pattern++ % patterns.size()])));
                c.expectTests = 1;
            } else {
                json::Value names = json::Value::array();
                for (int k = 0; k < 4; k++)
                    names.push(json::Value::string(
                        suite[next_test++ % suite.size()]));
                c.body.set("tests", std::move(names));
                c.expectTests = 4;
            }
            block.push_back(std::move(c));
        }
        rng.shuffle(block);
        for (auto &r : block)
            if (out.size() < count)
                out.push_back(std::move(r));
    }
    return out;
}

} // namespace perfbench

#include "rtl2uspec/metadata_io.hh"

#include <map>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace r2u::rtl2uspec
{

namespace
{

/** Split "k1=v1 k2=v2" tokens into a map; fatal on duplicates. */
std::map<std::string, std::string>
kvPairs(const std::vector<std::string> &toks, size_t from,
        const std::string &line)
{
    std::map<std::string, std::string> kv;
    for (size_t i = from; i < toks.size(); i++) {
        size_t eq = toks[i].find('=');
        if (eq == std::string::npos)
            fatal("metadata: expected key=value, got '%s' in '%s'",
                  toks[i].c_str(), line.c_str());
        std::string key = toks[i].substr(0, eq);
        if (!kv.emplace(key, toks[i].substr(eq + 1)).second)
            fatal("metadata: duplicate key '%s' in '%s'", key.c_str(),
                  line.c_str());
    }
    return kv;
}

std::string
need(const std::map<std::string, std::string> &kv,
     const std::string &key, const std::string &line)
{
    auto it = kv.find(key);
    if (it == kv.end())
        fatal("metadata: missing '%s=' in '%s'", key.c_str(),
              line.c_str());
    return it->second;
}

uint32_t
parseHex(const std::string &s, const std::string &line)
{
    try {
        return static_cast<uint32_t>(std::stoul(s, nullptr, 0));
    } catch (...) {
        fatal("metadata: bad number '%s' in '%s'", s.c_str(),
              line.c_str());
    }
}

} // namespace

DesignMetadata
parseMetadata(const std::string &text)
{
    DesignMetadata md;
    for (std::string line : split(text, '\n')) {
        size_t c = line.find('#');
        if (c != std::string::npos)
            line = line.substr(0, c);
        line = trim(line);
        if (line.empty())
            continue;
        auto toks = splitWs(line);
        const std::string &kind = toks[0];

        if (kind == "bound") {
            md.bound = parseHex(toks.at(1), line);
        } else if (kind == "issue_by") {
            md.issueByFrame = parseHex(toks.at(1), line);
        } else if (kind == "no_relax") {
            md.relaxPairs = false;
        } else if (kind == "no_merge") {
            md.mergeNodes = false;
        } else if (kind == "exclude") {
            for (size_t i = 1; i < toks.size(); i++)
                md.exclude.insert(toks[i]);
        } else if (kind == "core") {
            auto kv = kvPairs(toks, 1, line);
            CoreMeta core;
            core.prefix = need(kv, "prefix", line);
            core.ifr = need(kv, "ifr", line);
            core.imPc = need(kv, "im_pc", line);
            core.reqEn = need(kv, "req_en", line);
            core.reqWen = need(kv, "req_wen", line);
            for (const auto &p : split(need(kv, "pcrs", line), ','))
                if (!p.empty())
                    core.pcrs.push_back(p);
            if (core.pcrs.empty())
                fatal("metadata: core needs at least one PCR: '%s'",
                      line.c_str());
            md.cores.push_back(std::move(core));
        } else if (kind == "instr") {
            auto kv = kvPairs(toks, 1, line);
            InstrType op;
            op.name = need(kv, "name", line);
            op.mask = parseHex(need(kv, "mask", line), line);
            op.match = parseHex(need(kv, "match", line), line);
            std::string k = need(kv, "kind", line);
            if (k == "read")
                op.isRead = true;
            else if (k == "write")
                op.isWrite = true;
            else if (k != "other")
                fatal("metadata: instr kind must be read/write/other");
            md.instrs.push_back(std::move(op));
        } else if (kind == "remote") {
            auto kv = kvPairs(toks, 1, line);
            md.remote.memName = need(kv, "mem", line);
            md.remote.grant = need(kv, "grant", line);
            md.remote.pipeValid = need(kv, "pipe_valid", line);
            md.remote.pipeWen = need(kv, "pipe_wen", line);
            md.remote.pipeCore = need(kv, "pipe_core", line);
            for (const auto &r :
                 split(need(kv, "pipe_regs", line), ','))
                if (!r.empty())
                    md.remote.pipelineRegs.push_back(r);
        } else {
            fatal("metadata: unknown directive '%s'", kind.c_str());
        }
    }
    if (md.cores.empty())
        fatal("metadata: at least one 'core' directive is required");
    if (md.instrs.empty())
        fatal("metadata: at least one 'instr' directive is required");
    return md;
}

DesignMetadata
loadMetadata(const std::string &path)
{
    return parseMetadata(readFile(path));
}

std::string
printMetadata(const DesignMetadata &md)
{
    std::string out;
    out += strfmt("bound %u\n", md.bound);
    out += strfmt("issue_by %u\n", md.issueByFrame);
    if (!md.relaxPairs)
        out += "no_relax\n";
    if (!md.mergeNodes)
        out += "no_merge\n";
    if (!md.exclude.empty()) {
        out += "exclude";
        for (const auto &e : md.exclude)
            out += " " + e;
        out += "\n";
    }
    for (const auto &core : md.cores) {
        out += "core prefix=" + core.prefix + " ifr=" + core.ifr +
               " im_pc=" + core.imPc + " pcrs=";
        for (size_t i = 0; i < core.pcrs.size(); i++)
            out += std::string(i ? "," : "") + core.pcrs[i];
        out += " req_en=" + core.reqEn + " req_wen=" + core.reqWen +
               "\n";
    }
    for (const auto &op : md.instrs) {
        out += strfmt("instr name=%s mask=0x%x match=0x%x kind=%s\n",
                      op.name.c_str(), op.mask, op.match,
                      op.isWrite ? "write"
                                 : (op.isRead ? "read" : "other"));
    }
    if (!md.remote.memName.empty()) {
        out += "remote mem=" + md.remote.memName +
               " grant=" + md.remote.grant +
               " pipe_valid=" + md.remote.pipeValid +
               " pipe_wen=" + md.remote.pipeWen +
               " pipe_core=" + md.remote.pipeCore + " pipe_regs=";
        for (size_t i = 0; i < md.remote.pipelineRegs.size(); i++)
            out += std::string(i ? "," : "") +
                   md.remote.pipelineRegs[i];
        out += "\n";
    }
    return out;
}

} // namespace r2u::rtl2uspec

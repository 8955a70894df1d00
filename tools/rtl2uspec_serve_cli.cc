/**
 * @file
 * The resilient synthesis service driver.
 *
 * Daemon mode — run a supervised rtl2uspec_serve daemon:
 *
 *   rtl2uspec_serve --socket /tmp/r2u.sock --state statedir \
 *                   [--workers N] [--max-queue N] [--chaos SPEC] ...
 *
 * Client mode — send one JSON request and print the JSON response:
 *
 *   rtl2uspec_serve --connect /tmp/r2u.sock \
 *                   --json '{"type":"synthesize","top":...}'
 *
 * SIGTERM/SIGINT begin a graceful drain: stop accepting, let in-flight
 * requests finish (or degrade once --drain-timeout passes), unlink the
 * socket, exit 0. kill -9 is also survivable: each verdict is fsync'd
 * as it lands to the --state dir's shared verdict cache, so a
 * restarted daemon answers re-issued requests warm from it.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "serve/client.hh"
#include "serve/server.hh"

namespace
{

using r2u::parseDouble;
using r2u::parseInt;

std::atomic<bool> g_stop{false};

void
onStopSignal(int)
{
    g_stop.store(true);
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: rtl2uspec_serve --socket PATH [daemon options]\n"
        "       rtl2uspec_serve --connect PATH --json REQUEST\n"
        "daemon options:\n"
        "  --socket PATH        Unix-domain socket to listen on\n"
        "  --state DIR          persistent state dir: the verdict\n"
        "                       cache (DIR/cache) every request reads\n"
        "                       and writes; omitting it runs fully\n"
        "                       in-memory\n"
        "  --workers N          heavy-request executor threads "
        "(default 2)\n"
        "  --default-jobs N     engine jobs per request unless the\n"
        "                       request says (default 1)\n"
        "  --max-queue N        admission watermark: heavy requests in\n"
        "                       service beyond which new ones are shed\n"
        "                       with an explicit \"overloaded\" reply\n"
        "                       (default 8)\n"
        "  --mem-limit MB       also shed when resident memory crosses\n"
        "                       MB (default: off)\n"
        "  --request-timeout S  per-request deadline; an overrunning\n"
        "                       request degrades to sound Unknowns\n"
        "                       (default 300, <= 0 disables)\n"
        "  --hang-timeout S     solver heartbeat age that marks a\n"
        "                       context hung and fires an async\n"
        "                       interrupt (default 30, <= 0 disables)\n"
        "  --drain-timeout S    grace for in-flight requests after\n"
        "                       SIGTERM/shutdown (default 30)\n"
        "  --retries N          server-side re-runs of a synthesize\n"
        "                       request whose solver heartbeat\n"
        "                       stalled (default 1)\n"
        "  --chaos SPEC         arm fault injection, e.g.\n"
        "                       \"stall=1,stall-ms=5000,torn=2,"
        "drop=1\"\n"
        "  --quiet              suppress progress output\n"
        "client options:\n"
        "  --connect PATH       daemon socket to talk to\n"
        "  --json REQUEST      JSON request object ('-' reads stdin)\n"
        "  --attempts N         reconnect/backoff retry budget "
        "(default 5)\n"
        "exit codes: daemon: 0 clean drain, 1 error, 2 usage;\n"
        "            client: 0 ok reply, 1 error reply or transport "
        "failure, 2 usage\n");
}

int
runClient(const std::string &socket_path, const std::string &json_arg,
          unsigned attempts)
{
    using namespace r2u;
    using namespace r2u::serve;

    std::string text = json_arg;
    if (text == "-") {
        text.clear();
        char buf[4096];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), stdin)) > 0)
            text.append(buf, n);
    }
    json::Value req;
    std::string err;
    if (!json::Value::parse(text, req, &err) || !req.isObj()) {
        std::fprintf(stderr, "error: bad --json request: %s\n",
                     err.c_str());
        return 2;
    }
    Client client;
    json::Value resp;
    if (!client.requestWithRetry(socket_path, req, resp, &err,
                                 attempts)) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        return 1;
    }
    std::printf("%s\n", resp.dump().c_str());
    return resp.getBool("ok") ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace r2u;

    serve::ServerOptions opts;
    serve::ChaosSpec chaos;
    std::string connect_path, json_arg;
    unsigned attempts = 5;
    bool chaos_armed = false;

    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                fatal("missing argument after '%s'", arg.c_str());
            return argv[i];
        };
        try {
            if (arg == "--socket") {
                opts.socketPath = next();
            } else if (arg == "--state") {
                opts.stateDir = next();
            } else if (arg == "--workers") {
                int n = parseInt("--workers", next());
                if (n < 1)
                    fatal("--workers expects a positive count");
                opts.workers = static_cast<unsigned>(n);
            } else if (arg == "--default-jobs") {
                int n = parseInt("--default-jobs", next());
                if (n < 0)
                    fatal("--default-jobs expects a count >= 0");
                opts.defaultJobs = static_cast<unsigned>(n);
            } else if (arg == "--max-queue") {
                int n = parseInt("--max-queue", next());
                if (n < 1)
                    fatal("--max-queue expects a positive watermark");
                opts.maxQueue = static_cast<unsigned>(n);
            } else if (arg == "--mem-limit") {
                int n = parseInt("--mem-limit", next());
                if (n < 0)
                    fatal("--mem-limit expects MiB >= 0");
                opts.memLimitMb = static_cast<size_t>(n);
            } else if (arg == "--request-timeout") {
                opts.requestSeconds =
                    parseDouble("--request-timeout", next());
            } else if (arg == "--hang-timeout") {
                opts.hangSeconds =
                    parseDouble("--hang-timeout", next());
            } else if (arg == "--drain-timeout") {
                opts.drainSeconds =
                    parseDouble("--drain-timeout", next());
            } else if (arg == "--retries") {
                int n = parseInt("--retries", next());
                if (n < 0)
                    fatal("--retries expects a count >= 0");
                opts.requestRetries = static_cast<unsigned>(n);
            } else if (arg == "--chaos") {
                std::string err;
                if (!serve::ChaosSpec::parse(next(), chaos, &err))
                    fatal("%s", err.c_str());
                chaos_armed = true;
            } else if (arg == "--connect") {
                connect_path = next();
            } else if (arg == "--json") {
                json_arg = next();
            } else if (arg == "--attempts") {
                int n = parseInt("--attempts", next());
                if (n < 1)
                    fatal("--attempts expects a positive count");
                attempts = static_cast<unsigned>(n);
            } else if (arg == "--quiet") {
                setLogVerbosity(0);
            } else if (arg == "--help" || arg == "-h") {
                usage();
                return 0;
            } else {
                fatal("unknown option '%s'", arg.c_str());
            }
        } catch (const FatalError &e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            usage();
            return 2;
        }
    }

    std::signal(SIGPIPE, SIG_IGN);

    if (!connect_path.empty()) {
        if (json_arg.empty()) {
            std::fprintf(stderr,
                         "error: --connect requires --json\n");
            usage();
            return 2;
        }
        return runClient(connect_path, json_arg, attempts);
    }
    if (opts.socketPath.empty()) {
        usage();
        return 2;
    }

    if (chaos_armed)
        opts.chaos = &chaos;
    opts.externalStop = &g_stop;

    struct sigaction sa{};
    sa.sa_handler = onStopSignal;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);

    try {
        serve::Server server(std::move(opts));
        server.start();
        server.serve();
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

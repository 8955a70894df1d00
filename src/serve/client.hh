/**
 * @file
 * Blocking client for the rtl2uspec_serve protocol.
 *
 * Thin by design: connect to the daemon's Unix-domain socket, send one
 * JSON request frame, read one JSON response frame. The interesting
 * part is requestWithRetry(), which encodes the client side of the
 * service's robustness contract:
 *
 *  - a dropped connection (daemon crash, chaos "drop") reconnects and
 *    re-issues the request — safe because requests are idempotent and
 *    the daemon's verdict cache makes the re-run warm;
 *  - an {"code":"overloaded"} reply backs off (honoring the server's
 *    retry_after_ms hint) and retries;
 *  - {"code":"draining"} and hard errors are returned to the caller.
 */

#ifndef R2U_SERVE_CLIENT_HH
#define R2U_SERVE_CLIENT_HH

#include <string>

#include "common/json.hh"

namespace r2u::serve
{

class Client
{
  public:
    Client() = default;
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Connect to @p socket_path; false (with a message) on failure. */
    bool connect(const std::string &socket_path, std::string *err);

    bool connected() const { return fd_ >= 0; }
    void close();

    /**
     * Send @p req, block for the response. Returns false on any
     * transport failure (send failure, connection dropped before the
     * response) and closes the connection.
     */
    bool request(const json::Value &req, json::Value &resp,
                 std::string *err);

    /**
     * request() plus the retry policy described in the file comment:
     * up to @p attempts tries, reconnecting after transport failures
     * and backing off after "overloaded" replies. Returns false only
     * once the attempts are exhausted or a non-retryable failure
     * (e.g. the daemon is gone and the socket no longer accepts).
     */
    bool requestWithRetry(const std::string &socket_path,
                          const json::Value &req, json::Value &resp,
                          std::string *err, unsigned attempts = 5);

  private:
    int fd_ = -1;
};

} // namespace r2u::serve

#endif // R2U_SERVE_CLIENT_HH

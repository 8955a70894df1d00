/**
 * @file
 * Length-prefixed frame codec for the synthesis-service socket.
 *
 * One frame = u32 little-endian payload length + payload bytes (a
 * single JSON document, see common/json.hh). The prefix makes message
 * boundaries explicit over a stream socket, so a reader never has to
 * guess where a document ends, and a hard cap on the length rejects a
 * garbage prefix (a client speaking the wrong protocol) before it
 * turns into a multi-gigabyte allocation.
 *
 * All calls are blocking and EINTR-safe. Writes go through send() with
 * MSG_NOSIGNAL — a peer that disappeared mid-response must surface as
 * an error on *this* connection, not a process-wide SIGPIPE.
 */

#ifndef R2U_SERVE_PROTOCOL_HH
#define R2U_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>

namespace r2u::serve
{

/** Default sanity cap on a frame payload (requests are small JSON;
 *  responses may inline a model report — 16 MiB is generous). */
constexpr uint32_t kMaxFrameBytes = 16u << 20;

enum class FrameIo : uint8_t
{
    Ok,
    /** Clean EOF on a frame boundary (peer closed between frames). */
    Eof,
    /** I/O error or EOF mid-frame (torn message). */
    Error,
    /** Length prefix exceeded the cap; the stream is unrecoverable. */
    TooBig,
};

/** Write one frame; false on any I/O error (connection is dead). */
bool writeFrame(int fd, const std::string &payload);

/** Read one frame into @p payload. */
FrameIo readFrame(int fd, std::string &payload,
                  uint32_t max_bytes = kMaxFrameBytes);

} // namespace r2u::serve

#endif // R2U_SERVE_PROTOCOL_HH

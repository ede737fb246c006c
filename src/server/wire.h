#ifndef STREAMASP_SERVER_WIRE_H_
#define STREAMASP_SERVER_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "asp/symbol_table.h"
#include "server/session.h"
#include "stream/triple.h"
#include "util/status.h"

namespace streamasp {

/// The session server's wire protocol: transport payloads are UTF-8
/// text, one request or reply per payload, lines separated by '\n'. The
/// TCP transport frames each payload with a 4-byte big-endian length
/// prefix; the in-proc transport passes payloads through unframed.
///
/// Requests (first line = verb, space-separated fields):
///   ping
///   open <session> [key=value ...]        + program-text lines
///   push <session>                        + one triple per line
///   flush <session>
///   stats <session>
///   close <session>
///
/// open options: window=N slide=N shards=N async=0|1 inflight=N
///   workers=N reuse=none|ground|solve queue=N admission=block|reject
///   weight=N max_queued=N max_inflight=N v=N
/// shards=N lets each dependency community split into at most N key
/// buckets (ParallelReasonerOptions::num_shards). window, shards, workers and
/// max_inflight size per-session memory or threads up front, so each is
/// capped (window <= 1048576, the others <= 64); an over-cap value is
/// refused with code=invalid_argument.
///
/// Versioning: `v=N` on open declares the client's protocol version.
/// The server rejects versions it does not speak (code=
/// unsupported_version) and stamps its own version onto the open reply
/// (`ok open <session> v=1`), so clients negotiate by sending their
/// version and reading back the server's. An open without `v` is
/// accepted as a current-version client (the field predates no release,
/// so there is no legacy fleet to protect — omitting it just skips the
/// client-side check).
///
/// Request heads: the first line, stripped of surrounding whitespace
/// (so CRLF clients work), split into fields like a triple line.
///
/// Triple lines: `<predicate> <subject> [<object>]` — fields are
/// separated by single spaces and runs of spaces collapse; a tab is part
/// of a field. Each line is stripped of surrounding whitespace (including
/// '\r') and blank lines are skipped. Integer fields within int64 range
/// become integer terms; anything else is interned as a symbol.
///
/// Replies (one per request, in request order):
///   ok open <session> v=1
///   ok <verb> <session>
///   ok stats <session>                    + key=value lines
///   error <verb> <session> code=<slug> <message>
///
/// The error `code=` field is the machine-readable half of the reply
/// (ErrorCodeSlug: quota_exceeded, unknown_session, invalid_argument,
/// failed_precondition, unsupported_version, internal); the message
/// after it is human-oriented and unstable.
///
/// Subscription events (interleaved between replies, never inside one):
///   event <session> result seq=N completeness=C items=N answers=N
///                                         + one rendered answer per line
///   event <session> error seq=N <message>
///   event <session> shed seq=N items=N

/// The protocol version this server speaks (stamped on open replies).
inline constexpr int64_t kProtocolVersion = 1;

/// Frame-size ceiling: a decoder rejects larger frames as a protocol
/// error instead of buffering unboundedly.
inline constexpr uint32_t kMaxFramePayload = 16u << 20;

/// Wraps one payload in the TCP framing: 4-byte big-endian length +
/// payload bytes.
std::string EncodeFrame(std::string_view payload);

/// Incremental decoder for the length-prefixed stream: feed raw bytes,
/// pop complete payloads. After status() goes bad (oversized frame) the
/// decoder stays wedged — close the connection.
class FrameDecoder {
 public:
  void Feed(std::string_view data);

  /// Moves the next complete payload into `*payload`. False when no
  /// complete frame is buffered (or the decoder is wedged).
  bool Next(std::string* payload);

  const Status& status() const { return status_; }

 private:
  std::string buffer_;
  size_t offset_ = 0;  ///< Consumed prefix of buffer_.
  Status status_ = OkStatus();
};

/// One parsed client request.
struct WireRequest {
  enum class Command { kPing, kOpen, kPush, kFlush, kStats, kClose };

  Command command = Command::kPing;
  std::string session;

  /// kOpen only: options assembled from key=value fields; program text
  /// from the remaining lines lands in options.program_text.
  SessionOptions options;

  /// kPush only: the triple lines (unparsed — the broker parses them
  /// against the target session's symbol table).
  std::vector<std::string> lines;

  /// kOpen only: the client's declared protocol version (`v=N`).
  /// has_version is false when the open carried no `v` field — such
  /// opens are accepted as current-version clients.
  int64_t protocol_version = kProtocolVersion;
  bool has_version = false;
};

/// Parses one request payload. kInvalidArgument on an unknown verb,
/// missing session, or malformed option. Only the head line is split
/// into fields; a push body is scanned in place into `lines` and an open
/// body is copied verbatim into `options.program_text`.
StatusOr<WireRequest> ParseRequest(std::string_view payload);

/// Parses one `<predicate> <subject> [<object>]` line against `symbols`
/// without allocating per field. Interns the predicate, then the subject,
/// then the object; a malformed line interns nothing.
StatusOr<Triple> ParseTripleLine(std::string_view line, SymbolTable& symbols);

/// The machine-readable error slug for a status code: the stable
/// contract clients switch on (the message text is not). kNotFound maps
/// to unknown_session and kResourceExhausted to quota_exceeded — the
/// only entities the protocol looks up or limits are sessions and their
/// quotas.
std::string_view ErrorCodeSlug(StatusCode code);

/// Reply/event formatting (the broker's half of the protocol).
std::string FormatOk(std::string_view verb, std::string_view session);
/// The versioned open acknowledgement: `ok open <session> v=1`.
std::string FormatOpenOk(std::string_view session);
/// `error <verb> <session> code=<slug> <message>`, slug derived from
/// status.code() via ErrorCodeSlug.
std::string FormatError(std::string_view verb, std::string_view session,
                        const Status& status);
/// Same, with an explicit slug overriding the derived one (the broker's
/// unsupported_version rejection rides an kInvalidArgument status).
std::string FormatError(std::string_view verb, std::string_view session,
                        const Status& status, std::string_view code);
std::string FormatStats(std::string_view session, const SessionStats& stats);
std::string FormatEvent(const SessionEvent& event);

}  // namespace streamasp

#endif  // STREAMASP_SERVER_WIRE_H_

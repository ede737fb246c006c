#ifndef STREAMASP_SERVER_WIRE_H_
#define STREAMASP_SERVER_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
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
/// open options: window=N slide=N shards=N async=1 inflight=N
///   reuse=none|solve admission=block|reject weight=N
///   max_queued=N max_inflight=N v=N
/// Every session is a lane on the server's shared reasoner pool, so
/// async=1 is accepted as a no-op and async=0 is refused. admission=
/// sets the window queue's backpressure (reject sheds windows, counted
/// and tombstoned); weight=, max_inflight= and max_queued= are the
/// lane's DRR weight, running-task cap and window quota.
/// shards=N lets each dependency community split into at most N key
/// buckets (ParallelReasonerOptions::num_shards). window, shards and
/// max_inflight size per-session memory or pool share up front, so each
/// is capped (window <= 1048576, the others <= 64); an over-cap value is
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
/// Push ingest: the server parses a push body in one scan over the frame
/// it was read from (ParsePushBody): no string per line, and the push's
/// symbols interned under one read lock of the session's table (a second,
/// write lock only when the push carries new names). Ids come out in the
/// order line-at-a-time parsing gives them — predicate, subject, object,
/// lines in order — so transcripts do not depend on which path parsed.
/// The first malformed line fails the whole push (nothing is pushed);
/// the lines before it stay interned, the line itself interns nothing.
/// ParseRequest + ParseTripleLine, one line at a time, is the same
/// grammar through the same scanner, for callers that want the lines.
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

  /// Copies the next complete payload into `*payload`. False when no
  /// complete frame is buffered (or the decoder is wedged).
  bool Next(std::string* payload);

  /// Views the next complete payload in place, without copying it. The
  /// view is valid until the next Feed or Next call.
  bool Next(std::string_view* payload);

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

  /// kPush from ParseRequest only: the stripped, non-blank triple lines
  /// (unparsed). The server's push path leaves this empty and parses the
  /// body in place with ParsePushBody.
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

/// ParseRequest without splitting a push body into `lines`: `*body` views
/// everything after the head line (empty when there is none), for
/// ParsePushBody.
StatusOr<WireRequest> ParseRequestHead(std::string_view payload,
                                       std::string_view* body);

/// Parses one `<predicate> <subject> [<object>]` line against `symbols`
/// without allocating per field. Interns the predicate, then the subject,
/// then the object; a malformed line interns nothing.
StatusOr<Triple> ParseTripleLine(std::string_view line, SymbolTable& symbols);

/// The server's push path: parses every line of a push body (see "Push
/// ingest" above) into triples, with the ids and errors of
/// ParseTripleLine over each stripped, non-blank line in turn. The first
/// malformed line's error fails the whole body.
StatusOr<std::vector<Triple>> ParsePushBody(std::string_view body,
                                            SymbolTable& symbols);

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

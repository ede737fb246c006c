#include "server/wire.h"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>

#include "streamrule/answer.h"
#include "streamrule/parallel_reasoner.h"
#include "util/strings.h"

namespace streamasp {

namespace {

// Caps on the open options that size per-session memory or threads up
// front, enforced here at the network boundary only: window= reserves the
// tumbling window buffer, shards= multiplies the partitions (and, under
// reuse, the grounders and solvers) of every reasoner slot, workers=
// spawns a private pool's threads, and max_inflight= builds one reasoner
// slot per unit of lane cap. An over-cap value is an invalid_argument
// error, never an allocation that takes the whole server down.
constexpr int64_t kMaxOpenWindow = 1 << 20;
constexpr int64_t kMaxOpenShards = 64;
constexpr int64_t kMaxOpenWorkers = 64;
constexpr int64_t kMaxOpenMaxInflight = 64;

std::string FormatCompleteness(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

/// Walks the fields of one line: the pieces between single spaces, with
/// empty pieces skipped (so accidental double spaces don't produce
/// phantom fields). Fields are views into the line; nothing is copied.
class FieldCursor {
 public:
  explicit FieldCursor(std::string_view line) : rest_(line) {}

  /// Stores the next field in `*field`; false once the line is exhausted.
  bool Next(std::string_view* field) {
    while (!rest_.empty()) {
      const size_t space = rest_.find(' ');
      const std::string_view piece = rest_.substr(0, space);
      rest_ = space == std::string_view::npos ? std::string_view()
                                              : rest_.substr(space + 1);
      if (!piece.empty()) {
        *field = piece;
        return true;
      }
    }
    return false;
  }

 private:
  std::string_view rest_;
};

Status ApplyOpenOption(std::string_view key, std::string_view value,
                       SessionOptions* options) {
  int64_t number = 0;
  const bool is_number = ParseInt64(value, &number);
  auto require_count = [&](const char* what) -> Status {
    if (!is_number || number < 0) {
      return InvalidArgumentError(std::string("open option ") + what +
                                  " needs a non-negative integer, got '" +
                                  std::string(value) + "'");
    }
    return OkStatus();
  };
  auto require_capped = [&](const char* what, int64_t cap) -> Status {
    STREAMASP_RETURN_IF_ERROR(require_count(what));
    if (number > cap) {
      return InvalidArgumentError(std::string("open option ") + what +
                                  " must be at most " + std::to_string(cap) +
                                  ", got " + std::to_string(number));
    }
    return OkStatus();
  };
  if (key == "window") {
    STREAMASP_RETURN_IF_ERROR(require_capped("window", kMaxOpenWindow));
    options->engine.pipeline.window_size = static_cast<size_t>(number);
  } else if (key == "slide") {
    STREAMASP_RETURN_IF_ERROR(require_count("slide"));
    options->engine.pipeline.window_slide = static_cast<size_t>(number);
  } else if (key == "shards") {
    STREAMASP_RETURN_IF_ERROR(require_capped("shards", kMaxOpenShards));
    options->engine.pipeline.reasoner.num_shards =
        static_cast<size_t>(number);
  } else if (key == "async") {
    STREAMASP_RETURN_IF_ERROR(require_count("async"));
    options->engine.pipeline.async = number != 0;
  } else if (key == "inflight") {
    STREAMASP_RETURN_IF_ERROR(require_count("inflight"));
    options->engine.pipeline.max_inflight_windows =
        static_cast<size_t>(number);
  } else if (key == "workers") {
    STREAMASP_RETURN_IF_ERROR(require_capped("workers", kMaxOpenWorkers));
    options->engine.pipeline.num_reason_workers = static_cast<size_t>(number);
  } else if (key == "queue") {
    STREAMASP_RETURN_IF_ERROR(require_count("queue"));
    options->ingest_queue_capacity = static_cast<size_t>(number);
  } else if (key == "weight") {
    if (!is_number || number < 1) {
      return InvalidArgumentError("open option weight needs a positive "
                                  "integer, got '" +
                                  std::string(value) + "'");
    }
    options->weight = static_cast<size_t>(number);
  } else if (key == "max_queued") {
    STREAMASP_RETURN_IF_ERROR(require_count("max_queued"));
    options->max_queued_windows = static_cast<size_t>(number);
  } else if (key == "max_inflight") {
    STREAMASP_RETURN_IF_ERROR(
        require_capped("max_inflight", kMaxOpenMaxInflight));
    options->max_inflight = static_cast<size_t>(number);
  } else if (key == "reuse") {
    ReasonerOptions& reasoner = options->engine.pipeline.reasoner.reasoner;
    if (value == "none") {
      reasoner.reuse_grounding = false;
      reasoner.solving.reuse_solving = false;
    } else if (value == "ground") {
      reasoner.reuse_grounding = true;
    } else if (value == "solve") {
      reasoner.solving.reuse_solving = true;
    } else {
      return InvalidArgumentError("open option reuse must be none|ground|"
                                  "solve, got '" +
                                  std::string(value) + "'");
    }
  } else if (key == "admission") {
    if (value == "block") {
      options->admission = BackpressurePolicy::kBlock;
    } else if (value == "reject") {
      options->admission = BackpressurePolicy::kReject;
    } else {
      return InvalidArgumentError("open option admission must be block|"
                                  "reject, got '" +
                                  std::string(value) + "'");
    }
  } else {
    return InvalidArgumentError("unknown open option '" + std::string(key) +
                                "'");
  }
  return OkStatus();
}

}  // namespace

std::string EncodeFrame(std::string_view payload) {
  const uint32_t length = static_cast<uint32_t>(payload.size());
  std::string frame;
  frame.reserve(4 + payload.size());
  frame.push_back(static_cast<char>((length >> 24) & 0xff));
  frame.push_back(static_cast<char>((length >> 16) & 0xff));
  frame.push_back(static_cast<char>((length >> 8) & 0xff));
  frame.push_back(static_cast<char>(length & 0xff));
  frame.append(payload);
  return frame;
}

void FrameDecoder::Feed(std::string_view data) {
  if (!status_.ok()) return;
  buffer_.append(data);
}

bool FrameDecoder::Next(std::string* payload) {
  if (!status_.ok()) return false;
  if (buffer_.size() - offset_ < 4) {
    // Reclaim the consumed prefix while we wait for more bytes.
    if (offset_ > 0) {
      buffer_.erase(0, offset_);
      offset_ = 0;
    }
    return false;
  }
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(buffer_.data()) + offset_;
  const uint32_t length = (static_cast<uint32_t>(p[0]) << 24) |
                          (static_cast<uint32_t>(p[1]) << 16) |
                          (static_cast<uint32_t>(p[2]) << 8) |
                          static_cast<uint32_t>(p[3]);
  if (length > kMaxFramePayload) {
    status_ = InvalidArgumentError(
        "oversized frame: " + std::to_string(length) + " bytes (limit " +
        std::to_string(kMaxFramePayload) + ")");
    buffer_.clear();
    offset_ = 0;
    return false;
  }
  if (buffer_.size() - offset_ - 4 < length) {
    if (offset_ > 0) {
      buffer_.erase(0, offset_);
      offset_ = 0;
    }
    return false;
  }
  payload->assign(buffer_, offset_ + 4, length);
  offset_ += 4 + length;
  if (offset_ == buffer_.size()) {
    buffer_.clear();
    offset_ = 0;
  }
  return true;
}

StatusOr<WireRequest> ParseRequest(std::string_view payload) {
  // Only the head line is tokenized; the body (everything after the first
  // '\n') is scanned in place by the verbs that carry one.
  const size_t head_end = payload.find('\n');
  const std::string_view body = head_end == std::string_view::npos
                                    ? std::string_view()
                                    : payload.substr(head_end + 1);
  FieldCursor head(StripWhitespace(payload.substr(0, head_end)));
  std::string_view verb;
  if (!head.Next(&verb)) return InvalidArgumentError("empty request");

  WireRequest request;
  if (verb == "ping") {
    request.command = WireRequest::Command::kPing;
    return request;
  }
  std::string_view session;
  if (!head.Next(&session)) {
    return InvalidArgumentError("request '" + std::string(verb) +
                                "' needs a session name");
  }
  request.session = std::string(session);
  if (verb == "open") {
    request.command = WireRequest::Command::kOpen;
    std::string_view field;
    while (head.Next(&field)) {
      const size_t eq = field.find('=');
      if (eq == std::string_view::npos) {
        return InvalidArgumentError("open option '" + std::string(field) +
                                    "' is not key=value");
      }
      const std::string_view key = field.substr(0, eq);
      const std::string_view value = field.substr(eq + 1);
      if (key == "v") {
        // Protocol version, not a session option: parse it here so the
        // broker can reject before any option is acted on. Any integer
        // is accepted at parse time — which versions the server speaks
        // is the broker's decision.
        int64_t version = 0;
        if (!ParseInt64(value, &version) || version < 0) {
          return InvalidArgumentError(
              "open option v needs a non-negative integer, got '" +
              std::string(value) + "'");
        }
        request.protocol_version = version;
        request.has_version = true;
        continue;
      }
      STREAMASP_RETURN_IF_ERROR(
          ApplyOpenOption(key, value, &request.options));
    }
    request.options.program_text = std::string(body);
    return request;
  }
  if (verb == "push") {
    request.command = WireRequest::Command::kPush;
    if (body.empty()) return request;
    request.lines.reserve(
        static_cast<size_t>(std::count(body.begin(), body.end(), '\n')) + 1);
    for (size_t start = 0; start <= body.size();) {
      size_t end = body.find('\n', start);
      if (end == std::string_view::npos) end = body.size();
      const std::string_view line =
          StripWhitespace(body.substr(start, end - start));
      if (!line.empty()) request.lines.emplace_back(line);
      start = end + 1;
    }
    return request;
  }
  if (verb == "flush") {
    request.command = WireRequest::Command::kFlush;
    return request;
  }
  if (verb == "stats") {
    request.command = WireRequest::Command::kStats;
    return request;
  }
  if (verb == "close") {
    request.command = WireRequest::Command::kClose;
    return request;
  }
  return InvalidArgumentError("unknown request verb '" + std::string(verb) +
                              "'");
}

StatusOr<Triple> ParseTripleLine(std::string_view line, SymbolTable& symbols) {
  // A fourth field already makes the line malformed, so no more are read.
  std::array<std::string_view, 4> tokens;
  size_t count = 0;
  FieldCursor fields(line);
  while (count < tokens.size() && fields.Next(&tokens[count])) ++count;
  if (count < 2 || count > 3) {
    return InvalidArgumentError(
        "triple line needs '<predicate> <subject> [<object>]', got '" +
        std::string(line) + "'");
  }
  auto parse_term = [&symbols](std::string_view token) {
    int64_t number = 0;
    if (ParseInt64(token, &number)) return PackedTerm::Integer(number);
    return PackedTerm::Symbol(symbols.Intern(token));
  };
  Triple triple;
  triple.predicate = symbols.Intern(tokens[0]);
  triple.subject = parse_term(tokens[1]);
  if (count == 3) triple.object = parse_term(tokens[2]);
  return triple;
}

std::string FormatOk(std::string_view verb, std::string_view session) {
  std::string out = "ok ";
  out.append(verb);
  if (!session.empty()) {
    out.push_back(' ');
    out.append(session);
  }
  return out;
}

std::string_view ErrorCodeSlug(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kNotFound:
      return "unknown_session";
    case StatusCode::kFailedPrecondition:
      return "failed_precondition";
    case StatusCode::kOutOfRange:
      return "out_of_range";
    case StatusCode::kResourceExhausted:
      return "quota_exceeded";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kUnimplemented:
      return "unimplemented";
  }
  return "internal";
}

std::string FormatOpenOk(std::string_view session) {
  std::string out = FormatOk("open", session);
  out.append(" v=");
  out.append(std::to_string(kProtocolVersion));
  return out;
}

std::string FormatError(std::string_view verb, std::string_view session,
                        const Status& status) {
  return FormatError(verb, session, status, ErrorCodeSlug(status.code()));
}

std::string FormatError(std::string_view verb, std::string_view session,
                        const Status& status, std::string_view code) {
  std::string out = "error ";
  out.append(verb);
  if (!session.empty()) {
    out.push_back(' ');
    out.append(session);
  }
  out.append(" code=");
  out.append(code);
  out.push_back(' ');
  out.append(status.ToString());
  return out;
}

std::string FormatStats(std::string_view session, const SessionStats& stats) {
  std::string out = FormatOk("stats", session);
  auto field = [&out](const char* key, uint64_t value) {
    out.push_back('\n');
    out.append(key);
    out.push_back('=');
    out.append(std::to_string(value));
  };
  out.append("\nstate=");
  out.append(SessionStateName(stats.state));
  field("pushed_batches", stats.pushed_batches);
  field("pushed_items", stats.pushed_items);
  field("rejected_batches", stats.rejected_batches);
  field("rejected_items", stats.rejected_items);
  field("result_events", stats.result_events);
  field("error_events", stats.error_events);
  field("shed_events", stats.shed_events);
  field("num_shards", stats.engine.num_shards);
  field("delivered_windows", stats.engine.delivered_windows);
  field("delivered_answers", stats.engine.delivered_answers);
  field("delivery_errors", stats.engine.delivery_errors);
  field("shed_windows", stats.engine.shed_windows());
  out.append("\ncompleteness=");
  out.append(FormatCompleteness(stats.engine.completeness()));
  field("lane_tasks_submitted", stats.engine.lane.submitted);
  field("lane_tasks_completed", stats.engine.lane.completed);
  field("lane_max_queued", stats.engine.lane.max_queued);
  field("partitions", stats.engine.num_partitions);
  return out;
}

std::string FormatEvent(const SessionEvent& event) {
  std::string out = "event ";
  out.append(event.session);
  const std::string seq = std::to_string(event.session_sequence);
  switch (event.event.kind) {
    case EmissionEvent::Kind::kResult: {
      // A delivered window reasoned every item it admitted.
      out.append(" result seq=");
      out.append(seq);
      out.append(" completeness=1 items=");
      out.append(std::to_string(event.event.window->items.size()));
      out.append(" answers=");
      out.append(std::to_string(event.event.result->answers.size()));
      for (const GroundAnswer& answer : event.event.result->answers) {
        out.push_back('\n');
        out.append(AnswerToString(answer, event.symbols));
      }
      break;
    }
    case EmissionEvent::Kind::kError:
      out.append(" error seq=");
      out.append(seq);
      out.push_back(' ');
      out.append(event.event.status.ToString());
      break;
    case EmissionEvent::Kind::kShed:
      out.append(" shed seq=");
      out.append(seq);
      out.append(" items=");
      out.append(std::to_string(event.event.window->items.size()));
      break;
  }
  return out;
}

}  // namespace streamasp
